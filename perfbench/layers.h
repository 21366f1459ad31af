// Per-layer measurement for the traced run.
//
// The library records no spans of its own, so the benchmark attributes time
// by *replaying* a client operation through each layer's public calls, each
// under a trace::Scope: a healthy read becomes NameNode::lookup plus one
// DataNode::get per block; a degraded read becomes the stripe gather,
// plan_degraded_block and PlanExecutor::execute; and so on. Every replay
// checks its bytes, like the operation it mirrors.
//
// Layers a workload's loop never reaches (repair on ingest_scan, the data
// plane on terasort) are measured by the layer probe: a small fixture run
// through a scripted lifecycle with the same replays, its spans tagged
// Source::kProbe. Each per-layer metric takes the loop's value when the loop
// produced one and the probe's otherwise.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "bench.h"
#include "common/rng.h"
#include "hdfs/datanode.h"
#include "mapred/terasort_sim.h"
#include "trace.h"

namespace perfbench {

/// Named sample bags the replays fill beside their spans, so ratios are
/// measured where the work happens. Thread-safe.
class LayerCounters {
 public:
  void add(const std::string& key, double value);
  /// Sum of the samples under `key`, or nullopt if none were added.
  std::optional<double> sum(const std::string& key) const;
  std::optional<double> quantile(const std::string& key, double q) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Samples> samples_;  // guarded by mu_
};

/// Runs `fn` under a span named `name` and returns its result.
template <typename F>
auto traced(const char* name, F&& fn) {
  trace::Scope scope(name);
  return fn();
}

/// Healthy read of blocks [first, last] of `file`. False on a read error or
/// a payload mismatch.
bool replay_pread(Fixture& fx, const StoredFile& file, std::size_t first,
                  std::size_t last, LayerCounters& counters,
                  dblrep::Buffer& scratch);

/// Degraded read of data block `block` of `file`, whose every replica must
/// be lost. Adds the plan's wire bytes to `wire_bytes`.
bool replay_degraded_read(Fixture& fx, const StoredFile& file,
                          std::size_t block, LayerCounters& counters,
                          double& wire_bytes, dblrep::Buffer& scratch);

/// One repair_all pass spelled out over the failed cluster, in its order:
/// every node visits each of its stripes and probes it for holes; the
/// first visit to a damaged stripe plans, executes and stores the rebuild
/// (into `scratch_dn` -- the cluster is not modified) and checks the
/// rebuilt stripe is a valid codeword.
bool replay_repair_pass(Fixture& fx, dblrep::hdfs::DataNode& scratch_dn);

/// Re-encodes stripe `stripe_index` of `file` from its payload, stores the
/// symbols into `scratch_dn`, applies the parity coefficients through
/// gf::matrix_apply, and checks the parity against the cluster's copy.
bool replay_encode(Fixture& fx, const StoredFile& file,
                   std::size_t stripe_index, LayerCounters& counters,
                   dblrep::hdfs::DataNode& scratch_dn);

/// MiniDfs::repair_all, spelled out: restart every down node, then
/// repair_node each node in order, each under its own span, counting the
/// stripes each visit scans and how many of them still had a hole.
dblrep::Status traced_repair_all(dblrep::hdfs::MiniDfs& dfs,
                                 LayerCounters& counters);

/// Records `wire` as the cluster.* link-class bytes of `ops` operations.
void add_cluster_bytes(LayerCounters& counters, const Wire& wire, double ops);

/// Wait of a probe task spawned on `pool`, from spawn to start, in µs.
double queue_wait_us(dblrep::exec::ThreadPool& pool);

/// Delay scheduling against max-matching over map tasks drawn from the
/// fixture's stored blocks (replicas on down nodes excluded).
void sched_probe(const Fixture& fx, dblrep::Rng& rng, int rounds,
                 LayerCounters& counters);

/// The terasort JobConfig with every constant pinned here (set-up 1: the
/// 25-node testbed, set-up 2: the 9-node one).
dblrep::mapred::JobConfig pinned_job_config(int setup, double load,
                                            std::set<int> down_nodes,
                                            std::uint64_t seed, int trials);

/// The modelled 3-rep set-up-1 job at full load: the reference job time.
double reference_job_s(std::uint64_t seed);

/// Runs the layer probe (see the file comment) and returns its counters.
void run_layer_probe(std::uint64_t seed, dblrep::exec::ThreadPool& pool,
                     Report& report, LayerCounters& counters);

/// Emits every per-layer metric plus the self-time attribution lines.
/// `p50_ratio` is the traced over the untraced median op latency.
void emit_layer_metrics(Report& report, const LayerCounters& loop,
                        const LayerCounters& probe, double p50_ratio,
                        const Options& options);

}  // namespace perfbench
