#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "ec/registry.h"
#include "gf/kernel.h"
#include "hdfs/client.h"

namespace perfbench {

using dblrep::Buffer;
using dblrep::ByteSpan;
using dblrep::MutableByteSpan;

Threads thread_split() {
  Threads t;
  t.nproc = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  t.clients = std::max<std::size_t>(1, t.nproc / 2);
  t.workers = t.nproc - t.clients;
  return t;
}

// ------------------------------------------------------------- Samples

void Samples::merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = q * static_cast<double>(values_.size() - 1);
  return values_[static_cast<std::size_t>(std::llround(rank))];
}

double Samples::tail_q() const {
  const double n = static_cast<double>(values_.size());
  if (n <= 10) return 0.5;
  return std::max(0.5, std::min(0.99, 1.0 - 10.0 / n));
}

// -------------------------------------------------------------- Report

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back({name, {value, unit}});
}

void Report::note(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(line);
}

void Report::note(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  note(name + " = " + buf + " " + unit + (detail.empty() ? "" : "  (" + detail + ")"));
}

void Report::op(bool ok, const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (ok) return;
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (failures_printed_ < 20) {
    ++failures_printed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

int Report::finish() {
  const std::size_t attempted = std::max<std::size_t>(1, attempted_.load());
  const std::size_t failed = failed_.load();
  const bool correct = failed == 0;
  note("op_error_rate", static_cast<double>(failed) / static_cast<double>(attempted),
       "failed/attempted",
       std::to_string(failed) + " of " + std::to_string(attempted));
  for (const auto& line : lines_) std::cout << line << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    std::cout << (i ? ", " : "") << "\"" << name << "\": {\"value\": "
              << number(vu.first) << ", \"unit\": \"" << vu.second << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------- payload

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void fill_payload(std::uint64_t key, std::size_t offset, MutableByteSpan out) {
  std::size_t i = 0;
  // Ragged head up to the next 8-byte word boundary.
  while (i < out.size() && (offset + i) % 8 != 0) {
    const std::size_t pos = offset + i;
    out[i++] = static_cast<std::uint8_t>(mix64(key + pos / 8) >> (8 * (pos % 8)));
  }
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t word = mix64(key + (offset + i) / 8);
    std::memcpy(out.data() + i, &word, 8);  // little-endian byte order
  }
  for (; i < out.size(); ++i) {
    const std::size_t pos = offset + i;
    out[i] = static_cast<std::uint8_t>(mix64(key + pos / 8) >> (8 * (pos % 8)));
  }
}

bool payload_matches(std::uint64_t key, std::size_t offset, ByteSpan got,
                     Buffer& scratch) {
  scratch.resize(got.size());
  fill_payload(key, offset, scratch);
  return std::memcmp(scratch.data(), got.data(), got.size()) == 0;
}

// ------------------------------------------------------------- cluster

std::unique_ptr<Fixture> build_fixture(std::uint64_t layout_seed,
                                       std::uint64_t payload_seed,
                                       dblrep::exec::ThreadPool& pool,
                                       std::size_t target_stored_bytes,
                                       std::size_t min_stripes,
                                       std::size_t max_stripes) {
  auto fx = std::make_unique<Fixture>();
  fx->topology.num_nodes = 25;
  fx->topology.num_racks = 3;
  for (const auto& spec : kCodes) {
    auto code = dblrep::ec::make_code(spec);
    DBLREP_CHECK_MSG(code.is_ok(), "unknown code " << spec);
    fx->codes[spec] = std::move(code.value());
  }
  fx->dfs = std::make_unique<dblrep::hdfs::MiniDfs>(fx->topology, layout_seed, &pool);
  dblrep::hdfs::Client client(*fx->dfs);
  dblrep::Rng rng(mix64(layout_seed ^ 0x5e7u));
  Buffer data;
  while (fx->expected_stored_bytes < target_stored_bytes) {
    StoredFile f;
    f.spec = kCodes[fx->files.size() % kCodes.size()];
    f.code = fx->codes.at(f.spec).get();
    f.path = "/data/f" + std::to_string(fx->files.size());
    f.key = mix64(payload_seed * 1000003 + fx->files.size());
    const auto& params = f.code->params();
    const std::size_t stripes =
        min_stripes + rng.next_below(max_stripes - min_stripes + 1);
    f.length = stripes * params.data_blocks * kBlockSize;
    data.resize(f.length);
    fill_payload(f.key, 0, data);
    const auto status = client.write(f.path, data, f.spec, kBlockSize);
    DBLREP_CHECK_MSG(status.is_ok(), "preload write failed: " << status.to_string());
    fx->logical_bytes += f.length;
    fx->expected_stored_bytes += stripes * params.stored_blocks * kBlockSize;
    fx->files.push_back(std::move(f));
  }
  return fx;
}

Wire Wire::of(const dblrep::hdfs::MiniDfs& dfs) {
  const auto& t = dfs.traffic();
  return {t.client_bytes(), t.intra_rack_bytes(), t.cross_rack_bytes()};
}

void run_clients(std::size_t clients,
                 const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(body, c);
  for (auto& t : threads) t.join();
}

void report_header(Report& report, const Options& options,
                   const Threads& threads, std::size_t stored_bytes) {
  report.note("header workload=" + options.workload +
              " seed=" + std::to_string(options.seed) +
              " trace=" + std::to_string(options.trace ? 1 : 0) +
              " gf_kernel=" + dblrep::gf::active_kernel().name +
              " nproc=" + std::to_string(threads.nproc) +
              " clients=" + std::to_string(threads.clients) +
              " pool_workers=" + std::to_string(threads.workers) +
              " block_size=" + std::to_string(kBlockSize) +
              " stored_bytes=" + std::to_string(stored_bytes) +
              " build=" + PERFBENCH_BUILD_TYPE);
}

}  // namespace perfbench
