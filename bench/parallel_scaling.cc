// Thread-scaling of the concurrent data plane: encode (write_file), repair
// (repair_all), and the mixed workload-under-repair scenario, swept across
// worker counts and schemes. Emits BENCH_parallel_scaling.json so the perf
// trajectory (and the >= 3x repair-scaling acceptance bar for rs-10-4 at 8
// workers) is visible per commit.
//
// `workers` counts pool worker threads; 0 is the fully serial execution
// the determinism tests compare against (the calling thread always
// participates, so workers=N runs on N+1 threads). For every worker count
// the benchmark also checks that repair leaves datanode contents and
// traffic totals byte-identical to the workers=0 run of the same
// scenario -- the scaling numbers are only meaningful if the parallel
// path is exact.
//
// Usage: bench_parallel_scaling [--block-size=BYTES] [--stripes=N]
//                               [--min-time=SECONDS] [--workers=CSV]
//                               [--schemes=CSV] [--json=PATH]
//                               [--latency-json=PATH]
//
// --latency-json additionally exports every mixed run's full
// WorkloadReport (per-op count/mean/p50/p99/p999 plus raw histogram
// buckets) for offline latency-distribution analysis.
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/topology.h"
#include "common/bytes.h"
#include "common/check.h"
#include "ec/registry.h"
#include "exec/thread_pool.h"
#include "hdfs/minidfs.h"
#include "hdfs/workload_driver.h"
#include "report.h"

namespace {

using namespace dblrep;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Sample {
  std::string scheme;
  std::size_t workers = 0;
  double encode_mb_s = 0;
  double repair_mb_s = 0;
  double encode_speedup = 1.0;  // vs workers=0 for the same scheme
  double repair_speedup = 1.0;
  bool bytes_identical = true;  // repaired state matches the serial run
  // Mixed workload-under-repair:
  double mixed_read_p50_us = 0;
  double mixed_read_p99_us = 0;
  double mixed_read_p999_us = 0;
  double mixed_ops_per_s = 0;
  double mixed_repair_s = 0;
  std::size_t mixed_errors = 0;
};

/// FNV-1a over every stored block of every node (address + bytes), plus
/// the traffic totals: one number that pins down the post-repair state.
std::uint64_t cluster_fingerprint(hdfs::MiniDfs& dfs,
                                  std::size_t num_nodes) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  };
  for (std::size_t n = 0; n < num_nodes; ++n) {
    auto& dn = dfs.datanode(static_cast<cluster::NodeId>(n));
    for (const auto& address : dn.stored_addresses()) {
      mix(address.stripe);
      mix(address.slot);
      const auto bytes = dn.get(address);
      if (!bytes.is_ok()) continue;
      for (std::uint8_t b : *bytes) h = (h ^ b) * 1099511628211ULL;
    }
  }
  mix(static_cast<std::uint64_t>(dfs.traffic().total_bytes()));
  mix(static_cast<std::uint64_t>(dfs.traffic().cross_rack_bytes()));
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t block_size = 64 << 10;
  std::size_t stripes = 24;
  double min_time = 0.2;
  std::vector<std::size_t> worker_counts = {0, 1, 2, 4, 8};
  std::vector<std::string> schemes = {"rs-10-4", "pentagon", "heptagon-local"};
  std::string json_path = "BENCH_parallel_scaling.json";
  std::string latency_json_path;  // empty: no per-run histogram export
  bench::Flags flags;
  flags.add("block-size", &block_size);
  flags.add("stripes", &stripes);
  flags.add("min-time", &min_time);
  flags.add("workers", &worker_counts);
  flags.add("schemes", &schemes);
  flags.add("json", &json_path);
  flags.add("latency-json", &latency_json_path);
  if (!flags.parse(argc, argv)) return 2;
  if (block_size == 0 || stripes == 0 || worker_counts.empty()) {
    return flags.fail("--block-size, --stripes, --workers must be set");
  }

  cluster::Topology topology;
  topology.num_nodes = 25;

  std::vector<Sample> samples;
  bench::Json latency;
  latency.begin_object()
      .field("bench", "parallel_scaling_latency")
      .begin_array("reports");
  std::map<std::string, double> serial_encode, serial_repair;
  std::map<std::string, std::uint64_t> serial_fingerprint;

  for (const std::size_t workers : worker_counts) {
    std::optional<exec::ThreadPool> pool;
    if (workers > 0) pool.emplace(workers);
    exec::ThreadPool* pool_ptr = workers > 0 ? &*pool : nullptr;
    std::fprintf(stderr, "== %zu workers ==\n", workers);

    for (const auto& spec : schemes) {
      const auto code = ec::make_code(spec).value();
      const std::size_t data_bytes =
          stripes * code->data_blocks() * block_size;
      const Buffer data = random_buffer(data_bytes, 42);
      Sample sample;
      sample.scheme = spec;
      sample.workers = workers;

      // ---- encode: repeated whole-file writes -------------------------
      {
        hdfs::MiniDfs dfs(topology, 7, pool_ptr);
        std::size_t iters = 0;
        double elapsed = 0;
        // Warmup write creates the scheme and grows each worker's parity
        // buffer to its largest batch.
        DBLREP_CHECK(dfs.write_file("/warm", data, spec, block_size).is_ok());
        DBLREP_CHECK(dfs.delete_file("/warm").is_ok());
        do {
          const std::string path = "/f" + std::to_string(iters);
          const auto start = Clock::now();
          DBLREP_CHECK(dfs.write_file(path, data, spec, block_size).is_ok());
          elapsed += seconds_since(start);
          DBLREP_CHECK(dfs.delete_file(path).is_ok());
          ++iters;
        } while (elapsed < min_time);
        sample.encode_mb_s = static_cast<double>(data_bytes) *
                             static_cast<double>(iters) / (elapsed * 1e6);
      }

      // ---- repair: fail 2 stripe-group nodes, repair_all --------------
      {
        hdfs::MiniDfs dfs(topology, 7, pool_ptr);
        DBLREP_CHECK(dfs.write_file("/r", data, spec, block_size).is_ok());
        const auto group =
            dfs.catalog().stripe(dfs.stat("/r")->stripes.front()).group;
        const std::size_t healthy_bytes = dfs.stored_bytes();
        std::size_t iters = 0;
        double elapsed = 0;
        std::size_t repaired_bytes = 0;
        do {
          DBLREP_CHECK(dfs.fail_node(group[0]).is_ok());
          DBLREP_CHECK(dfs.fail_node(group[1]).is_ok());
          if (iters == 0) repaired_bytes = healthy_bytes - dfs.stored_bytes();
          const auto start = Clock::now();
          DBLREP_CHECK(dfs.repair_all().is_ok());
          elapsed += seconds_since(start);
          ++iters;
        } while (elapsed < min_time);
        DBLREP_CHECK_EQ(dfs.stored_bytes(), healthy_bytes);
        sample.repair_mb_s = static_cast<double>(repaired_bytes) *
                             static_cast<double>(iters) / (elapsed * 1e6);

        // Exactness: one more fail+repair from a reset ledger, fingerprint
        // the full cluster state and compare against the workers=0 run.
        dfs.traffic().reset();
        DBLREP_CHECK(dfs.fail_node(group[0]).is_ok());
        DBLREP_CHECK(dfs.fail_node(group[1]).is_ok());
        DBLREP_CHECK(dfs.repair_all().is_ok());
        const std::uint64_t fp = cluster_fingerprint(dfs, topology.num_nodes);
        if (const auto it = serial_fingerprint.find(spec);
            it == serial_fingerprint.end()) {
          serial_fingerprint[spec] = fp;
        } else {
          sample.bytes_identical = (fp == it->second);
        }
      }

      // ---- mixed: closed-loop clients while repair_all runs -----------
      {
        hdfs::MiniDfs dfs(topology, 7, pool_ptr);
        hdfs::WorkloadOptions options;
        options.code_spec = spec;
        options.block_size = block_size;
        options.stripes_per_file = 2;
        options.preload_files = 6;
        options.clients = 4;
        options.ops_per_client = 40;
        options.fail_nodes = 2;
        options.repair_concurrently = true;
        options.seed = 11;
        hdfs::WorkloadDriver driver(dfs, options);
        auto report = driver.run();
        DBLREP_CHECK_MSG(report.is_ok(), report.status().to_string());
        DBLREP_CHECK_MSG(report->repair_status.is_ok(),
                         report->repair_status.to_string());
        sample.mixed_read_p50_us = report->read.p50_us();
        sample.mixed_read_p99_us = report->read.p99_us();
        sample.mixed_read_p999_us = report->read.p999_us();
        sample.mixed_ops_per_s = report->ops_per_s;
        sample.mixed_repair_s = report->repair_s;
        sample.mixed_errors = report->total_errors();
        if (!latency_json_path.empty()) {
          latency.begin_object()
              .field("scheme", spec)
              .field("workers", workers)
              .raw_field("report", report->to_json())
              .end();
        }
      }

      if (workers == 0) {
        serial_encode[spec] = sample.encode_mb_s;
        serial_repair[spec] = sample.repair_mb_s;
      }
      if (const auto it = serial_encode.find(spec);
          it != serial_encode.end() && it->second > 0) {
        sample.encode_speedup = sample.encode_mb_s / it->second;
      }
      if (const auto it = serial_repair.find(spec);
          it != serial_repair.end() && it->second > 0) {
        sample.repair_speedup = sample.repair_mb_s / it->second;
      }
      std::fprintf(stderr,
                   "  %-16s encode %8.1f MB/s (%.2fx)  repair %8.1f MB/s "
                   "(%.2fx, identical=%d)  mixed p50 %.0fus p99 %.0fus "
                   "repair %.2fs errors %zu\n",
                   spec.c_str(), sample.encode_mb_s, sample.encode_speedup,
                   sample.repair_mb_s, sample.repair_speedup,
                   sample.bytes_identical ? 1 : 0, sample.mixed_read_p50_us,
                   sample.mixed_read_p99_us, sample.mixed_repair_s,
                   sample.mixed_errors);
      samples.push_back(sample);
    }
  }

  // Any parallel repair that diverged from the serial bytes fails the run;
  // scaling numbers for a wrong result are meaningless.
  bench::Report report("parallel_scaling");
  for (const auto& s : samples) {
    report.gate(s.scheme + " at " + std::to_string(s.workers) +
                    " workers repairs the serial bytes",
                s.bytes_identical);
  }

  auto& json = report.json();
  json.field("block_size", block_size)
      .field("stripes", stripes)
      .field("min_time_s", min_time)
      .field("host_hardware_threads", std::thread::hardware_concurrency());
  json.begin_array("results");
  for (const auto& s : samples) {
    json.begin_object()
        .field("scheme", s.scheme)
        .field("workers", s.workers)
        .field("encode_mb_per_s", s.encode_mb_s)
        .field("repair_mb_per_s", s.repair_mb_s)
        .field("encode_speedup_vs_serial", s.encode_speedup)
        .field("repair_speedup_vs_serial", s.repair_speedup)
        .field("bytes_identical_to_serial", s.bytes_identical)
        .field("mixed_read_p50_us", s.mixed_read_p50_us)
        .field("mixed_read_p99_us", s.mixed_read_p99_us)
        .field("mixed_read_p999_us", s.mixed_read_p999_us)
        .field("mixed_ops_per_s", s.mixed_ops_per_s)
        .field("mixed_repair_s", s.mixed_repair_s)
        .field("mixed_errors", s.mixed_errors)
        .end();
  }
  json.end();
  const int exit_code = report.finish(json_path);
  if (!latency_json_path.empty() &&
      !latency.end().end().save(latency_json_path)) {
    return 1;
  }
  return exit_code;
}
