// perfbench: the repository benchmark. One binary, three workloads
// (ingest_scan, degraded_repair, terasort), a correctness check on every
// output, and a traced mode that attributes time to the library's layers.
// README.md defines every metric and the prediction each one carries.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/bytes.h"
#include "ec/code.h"
#include "exec/thread_pool.h"
#include "hdfs/minidfs.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double micros_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

/// Client threads plus DFS pool workers never exceed the host's cores.
struct Threads {
  std::size_t nproc = 1;
  std::size_t clients = 1;
  std::size_t workers = 0;
};
Threads thread_split();

/// A bag of samples with order statistics.
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  void merge(const Samples& other);
  std::size_t count() const { return values_.size(); }
  double sum() const;
  double mean() const;
  /// Quantile q of the samples (nearest rank on the sorted values).
  double quantile(double q) const;
  /// The tail quantile reported as "p99": 0.99 when at least ten samples
  /// lie beyond it, else the highest quantile that still has ten beyond.
  double tail_quantile() const { return quantile(tail_q()); }
  double tail_q() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Collects the run's metrics, notes and output checks, and prints them:
/// human-readable lines first, the result JSON as the last line.
class Report {
 public:
  /// A metric for the result JSON (end-to-end or per-layer by mode).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line only (workload-specific metrics, attributions,
  /// the header).
  void note(const std::string& line);
  void note(const std::string& name, double value, const std::string& unit,
            const std::string& detail = "");

  /// One attempted operation; `ok` false counts it as failed.
  void op(bool ok, const std::string& what = "");
  /// An output check that is not an operation (counts as one attempt).
  void check(bool ok, const std::string& what) { op(ok, what); }

  /// Prints everything; returns the process exit code.
  int finish();

 private:
  std::mutex mu_;
  std::vector<std::string> lines_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::atomic<std::size_t> attempted_{0};
  std::atomic<std::size_t> failed_{0};
  std::size_t failures_printed_ = 0;
};

/// Peak resident set of the process so far, in MiB.
double peak_rss_mib();

// ------------------------------------------------------------- payload
//
// File contents are a pure function of (key, byte offset), so any window
// can be regenerated to check a read without keeping a copy.

std::uint64_t mix64(std::uint64_t x);
void fill_payload(std::uint64_t key, std::size_t offset,
                  dblrep::MutableByteSpan out);
/// True iff `got` equals the payload of `key` at `offset`.
bool payload_matches(std::uint64_t key, std::size_t offset,
                     dblrep::ByteSpan got, dblrep::Buffer& scratch);

// ------------------------------------------------------------- cluster

inline constexpr std::size_t kBlockSize = 64 * 1024;
/// The paper's two codes plus the cold tier, assigned round-robin.
inline const std::vector<std::string> kCodes = {"pentagon", "heptagon-local",
                                                "rs-10-4"};

struct StoredFile {
  std::string path;
  const dblrep::ec::CodeScheme* code = nullptr;  // owned by Fixture::codes
  std::string spec;
  std::uint64_t key = 0;
  std::size_t length = 0;
  std::size_t blocks() const { return length / kBlockSize; }
};

/// A 25-node, 3-rack MiniDfs (group_per_rack placement) preloaded with
/// stripe-aligned files, so stored bytes are exactly each code's overhead.
struct Fixture {
  dblrep::cluster::Topology topology;
  std::map<std::string, std::unique_ptr<dblrep::ec::CodeScheme>> codes;
  std::unique_ptr<dblrep::hdfs::MiniDfs> dfs;
  std::vector<StoredFile> files;
  std::size_t logical_bytes = 0;
  std::size_t expected_stored_bytes = 0;

  const dblrep::ec::CodeScheme& code(const std::string& spec) const {
    return *codes.at(spec);
  }
};

/// Writes files until about `target_stored_bytes` are stored. The layout
/// (file sizes and block placement) is drawn from `layout_seed`, the file
/// contents from `payload_seed`. Workloads pin the layout so that what a
/// failure destroys is the same for every run; the run seed varies the
/// contents and every operation stream.
std::unique_ptr<Fixture> build_fixture(std::uint64_t layout_seed,
                                       std::uint64_t payload_seed,
                                       dblrep::exec::ThreadPool& pool,
                                       std::size_t target_stored_bytes,
                                       std::size_t min_stripes,
                                       std::size_t max_stripes);

/// Cumulative bytes on each link class of a DFS's traffic meter.
struct Wire {
  double client = 0, intra = 0, cross = 0;

  static Wire of(const dblrep::hdfs::MiniDfs& dfs);
  double total() const { return client + intra + cross; }
  Wire operator-(const Wire& o) const {
    return {client - o.client, intra - o.intra, cross - o.cross};
  }
  Wire& operator+=(const Wire& o) {
    client += o.client;
    intra += o.intra;
    cross += o.cross;
    return *this;
  }
};

/// Runs `body(client_index)` on `clients` threads and joins them.
void run_clients(std::size_t clients,
                 const std::function<void(std::size_t)>& body);

/// Prints the run header (seed, kernel, threads, block size, build type).
void report_header(Report& report, const Options& options,
                   const Threads& threads, std::size_t stored_bytes);

/// The workloads: each fills `report` with its metrics and checks.
void run_ingest_scan(const Options& options, Report& report);
void run_degraded_repair(const Options& options, Report& report);
void run_terasort(const Options& options, Report& report);

}  // namespace perfbench
