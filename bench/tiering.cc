// Adaptive tiering capstone: a Zipf-skewed read workload drives the
// heat-driven TieringEngine across the 3-rep -> heptagon-local -> rs-10-4
// ladder, against an all-3-rep baseline cluster serving the same files.
// Emits BENCH_tiering.json.
//
// Gates (asserted at exit, mirroring the PR acceptance bar):
//  * steady-state storage overhead strictly below the all-3-rep baseline,
//    and well below it (<= 2.7x vs 3.0x);
//  * the ladder is actually used: every hot-decile file still sits on
//    3-rep, and both colder rungs hold at least one file;
//  * hot-file read latency stays at replicated-tier levels: tiered hot p99
//    within max(5x, +2ms) of the all-3-rep baseline's;
//  * hot-file map-task locality (max-matching over the real converged
//    placement) is no worse than the cold tier's;
//  * every file reads back byte-identical to its original payload after
//    all transitions;
//  * a reduced chaos sweep (mixed preset: tier transitions racing node
//    crashes, rack outages, namenode crashes, ...) reports zero invariant
//    violations and executes at least one mid-transition-capable event.
//
// Runs on the inline pool so storage results are a deterministic function
// of the seed (latencies are wall-clock and only gated against a
// same-process baseline).
//
// Usage: tiering [--files=N] [--file-blocks=N] [--block-size=BYTES]
//                [--rounds=N] [--reads-per-round=N] [--zipf=S]
//                [--chaos-seeds=N] [--chaos-horizon=S] [--json=PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "chaos/harness.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "hdfs/minidfs.h"
#include "hdfs/workload_driver.h"
#include "report.h"
#include "sched/schedulers.h"
#include "tier/engine.h"

namespace {

using namespace dblrep;
using Clock = std::chrono::steady_clock;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1));
  return v[idx];
}

std::string file_path(std::size_t rank) {
  return "/tier/f" + std::to_string(rank);
}

/// Map-task assignment problem over the *real* converged placement of
/// `paths`: one task per data block, located at the cluster nodes holding
/// a replica of its symbol (1 for plain RS, 2-3 on the replicated rungs).
sched::AssignmentProblem build_problem(const hdfs::MiniDfs& dfs,
                                       const std::vector<std::string>& paths) {
  sched::AssignmentProblem problem;
  problem.num_nodes = dfs.topology().num_nodes;
  for (const std::string& path : paths) {
    const auto info = dfs.stat(path);
    const auto code = dfs.code_for(path);
    if (!info.is_ok() || !code.is_ok()) continue;
    const std::size_t k = (*code)->data_blocks();
    const auto& layout = (*code)->layout();
    const std::size_t blocks =
        (info->length + info->block_size - 1) / info->block_size;
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto& si = dfs.catalog().stripe(info->stripes[b / k]);
      sched::TaskInfo task;
      task.stripe = problem.tasks.size() / std::max<std::size_t>(k, 1);
      task.symbol = b % k;
      for (const std::size_t slot : layout.slots_of_symbol(b % k)) {
        const auto node = static_cast<sched::NodeId>(
            si.group[static_cast<std::size_t>(layout.node_of_slot(slot))]);
        if (std::find(task.locations.begin(), task.locations.end(), node) ==
            task.locations.end()) {
          task.locations.push_back(node);
        }
      }
      problem.tasks.push_back(std::move(task));
    }
  }
  // Offered load ~0.8: enough contention that single-replica placement
  // actually costs locality, without overcommitting past one wave.
  problem.slots_per_node = std::max<int>(
      1, static_cast<int>((problem.tasks.size() + problem.num_nodes - 1) /
                          (0.8 * static_cast<double>(problem.num_nodes))) /
             1);
  return problem;
}

double locality_of(const hdfs::MiniDfs& dfs,
                   const std::vector<std::string>& paths, std::uint64_t seed) {
  const auto problem = build_problem(dfs, paths);
  if (problem.tasks.empty()) return 0;
  Rng rng(seed);
  sched::MaxMatchingScheduler scheduler;
  return scheduler.assign(problem, rng).locality();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t files = 36;
  // 40 blocks lands on exact stripe boundaries of every ladder rung
  // (heptagon-local stripes carry 40 data blocks, rs-10-4 stripes 10), so
  // overheads measure the codes, not the tail padding.
  std::size_t file_blocks = 40;
  std::size_t block_size = 4096;
  std::size_t rounds = 12;
  std::size_t reads_per_round = 120;
  double zipf_s = 1.1;
  std::size_t chaos_seeds = 4;
  double chaos_horizon = 15.0;
  std::string json_path = "BENCH_tiering.json";
  bench::Flags flags;
  flags.add("files", &files);
  flags.add("file-blocks", &file_blocks);
  flags.add("block-size", &block_size);
  flags.add("rounds", &rounds);
  flags.add("reads-per-round", &reads_per_round);
  flags.add("zipf", &zipf_s);
  flags.add("chaos-seeds", &chaos_seeds);
  flags.add("chaos-horizon", &chaos_horizon);
  flags.add("json", &json_path);
  if (!flags.parse(argc, argv)) return 2;

  bench::Report report("tiering");
  // Per-operation checks: each kind's failure count is one gate at 0.
  std::map<std::string, std::size_t> failures;
  const auto check = [&failures](bool passed, const std::string& kind,
                                 const std::string& path) {
    failures[kind] += passed ? 0 : 1;
    if (!passed) std::fprintf(stderr, "%s: %s\n", kind.c_str(), path.c_str());
  };

  cluster::Topology topology;
  topology.num_nodes = 21;
  topology.num_racks = 3;
  const double round_dt_s = tier::kHeatHalfLifeS / 2;

  // Tiered cluster: heat observer wired in, everything ingested hot.
  tier::HeatTracker heat;
  hdfs::MiniDfsOptions options;
  options.access_observer = &heat;
  hdfs::MiniDfs dfs(topology, /*seed=*/2014, &exec::inline_pool(), options);
  // Thresholds scale with the block size (one read heats by one block), so
  // the same skew converges to the same census at any --block-size.
  tier::TieringPolicy policy(
      {.demote_below = {8.0 * static_cast<double>(block_size),
                        3.0 * static_cast<double>(block_size)}});
  tier::TieringEngine engine(dfs, heat, policy,
                             {.max_transitions_per_pass = 0});

  // All-3-rep baseline: same files, no tiering -- the storage and latency
  // yardstick ("what the paper's hot tier costs everywhere").
  hdfs::MiniDfs baseline(topology, /*seed=*/2014, &exec::inline_pool(), {});

  std::fprintf(stderr, "ingesting %zu files x %zu blocks x %zu B...\n", files,
               file_blocks, block_size);
  std::vector<Buffer> payloads;
  payloads.reserve(files);
  for (std::size_t f = 0; f < files; ++f) {
    payloads.push_back(random_buffer(file_blocks * block_size, f + 1));
    const auto& path = file_path(f);
    check(dfs.write_file(path, payloads[f], "3-rep", block_size).is_ok(),
          "failed ingests (tiered)", path);
    check(baseline.write_file(path, payloads[f], "3-rep", block_size).is_ok(),
          "failed ingests (baseline)", path);
  }
  const double logical_bytes =
      static_cast<double>(files * file_blocks * block_size);
  const double baseline_overhead =
      static_cast<double>(baseline.stored_bytes()) / logical_bytes;

  // Zipf-skewed read rounds with a background engine pass after each: the
  // closed loop that lets the namespace converge to heat-proportional
  // tiers while serving traffic.
  const hdfs::ZipfSampler zipf(files, zipf_s);
  Rng rng(7);
  std::size_t total_transitions = 0, total_errors = 0;
  std::vector<std::size_t> per_round_transitions;
  for (std::size_t round = 1; round <= rounds; ++round) {
    for (std::size_t r = 0; r < reads_per_round; ++r) {
      const std::size_t rank = zipf.sample(rng);
      const std::size_t block = rng.next_below(file_blocks);
      const auto read = dfs.read_block(file_path(rank), block);
      check(read.is_ok(), "failed workload reads", file_path(rank));
    }
    const auto pass =
        engine.run_once(static_cast<double>(round) * round_dt_s);
    total_transitions += pass.transitions;
    total_errors += pass.errors;
    per_round_transitions.push_back(pass.transitions);
  }
  // Converge: repeat passes at the final clock until the policy is
  // satisfied everywhere (run_once is idempotent at fixed heat).
  for (std::size_t extra = 0; extra < 8; ++extra) {
    const auto pass =
        engine.run_once(static_cast<double>(rounds) * round_dt_s);
    total_transitions += pass.transitions;
    total_errors += pass.errors;
    if (pass.transitions == 0) break;
  }
  report.gate("transition errors on a healthy cluster", 0, total_errors,
              total_errors == 0);
  report.gate("transitions executed", 0, total_transitions,
              total_transitions > 0);

  // Census + byte identity after every re-encode.
  std::map<std::string, std::size_t> census;
  const std::size_t hot_count = std::max<std::size_t>(1, files / 10);
  std::vector<std::string> hot_paths, cold_paths;
  std::size_t hot_off_replica = 0;
  for (std::size_t f = 0; f < files; ++f) {
    const auto info = dfs.stat(file_path(f));
    check(info.is_ok(), "failed stats", file_path(f));
    if (!info.is_ok()) continue;
    ++census[info->code_spec];
    if (f < hot_count) {
      hot_paths.push_back(file_path(f));
      if (info->code_spec != "3-rep") ++hot_off_replica;
    } else {
      cold_paths.push_back(file_path(f));
    }
    const auto read = dfs.read_file(file_path(f));
    check(read.is_ok() && *read == payloads[f],
          "files not byte-identical after transitions", file_path(f));
  }
  const double tiered_overhead =
      static_cast<double>(dfs.stored_bytes()) / logical_bytes;
  std::fprintf(stderr,
               "converged: %zu transitions, overhead %.3fx vs %.3fx, census:",
               total_transitions, tiered_overhead, baseline_overhead);
  for (const auto& [spec, count] : census) {
    std::fprintf(stderr, " %s=%zu", spec.c_str(), count);
  }
  std::fprintf(stderr, "\n");

  report.gate("storage overhead strictly below all-3-rep", baseline_overhead,
              tiered_overhead, tiered_overhead < baseline_overhead);
  report.gate("storage overhead well below the 3.0x baseline", 2.7,
              tiered_overhead, tiered_overhead <= 2.7);
  report.gate("hot-decile files off the replicated tier", 0, hot_off_replica,
              hot_off_replica == 0);
  for (const std::string rung : {"heptagon-local", "rs-10-4"}) {
    report.gate("files on the " + rung + " rung", 0, census[rung],
                census[rung] > 0);
  }

  // Hot-file latency: the same measurement loop against both clusters.
  // Wall-clock, so gated only relative to the in-process baseline.
  const auto measure = [&](hdfs::MiniDfs& target) {
    std::vector<double> us;
    Rng measure_rng(11);
    for (std::size_t i = 0; i < 40 * hot_count; ++i) {
      const std::size_t rank = measure_rng.next_below(hot_count);
      const std::size_t block = measure_rng.next_below(file_blocks);
      const auto start = Clock::now();
      const auto read = target.read_block(file_path(rank), block);
      us.push_back(std::chrono::duration<double, std::micro>(Clock::now() -
                                                             start)
                       .count());
      check(read.is_ok(), "failed hot measurement reads", file_path(rank));
    }
    return us;
  };
  const std::vector<double> hot_us = measure(dfs);
  const std::vector<double> base_us = measure(baseline);
  const double hot_p50 = percentile(hot_us, 0.50);
  const double hot_p99 = percentile(hot_us, 0.99);
  const double base_p50 = percentile(base_us, 0.50);
  const double base_p99 = percentile(base_us, 0.99);
  const double latency_budget_us = std::max(5.0 * base_p99, base_p99 + 2000);
  std::fprintf(stderr,
               "hot reads: tiered p50/p99 %.1f/%.1f us, baseline %.1f/%.1f "
               "us (budget %.1f)\n",
               hot_p50, hot_p99, base_p50, base_p99, latency_budget_us);
  report.gate("hot-file p99 us within the replicated-tier budget",
              latency_budget_us, hot_p99, hot_p99 <= latency_budget_us);

  // Locality: hot files (replicated) must schedule at least as locally as
  // the erasure-coded cold tail under the same offered load.
  const double hot_locality = locality_of(dfs, hot_paths, 3);
  const double cold_locality = locality_of(dfs, cold_paths, 3);
  std::fprintf(stderr, "max-matching locality: hot %.3f, cold %.3f\n",
               hot_locality, cold_locality);
  report.gate("hot-tier locality at least the cold tier's", cold_locality,
              hot_locality, hot_locality >= cold_locality);

  // Chaos: tier transitions interleaved with node/rack/namenode failures
  // (the mixed preset's tier_rate), mid-transition crashes included.
  chaos::ChaosConfig chaos_config;
  chaos_config.horizon_s = chaos_horizon;
  chaos_config.mix = chaos::FaultMix::mixed();
  const chaos::ChaosHarness harness(chaos_config);
  std::size_t chaos_violations = 0, chaos_tier_events = 0;
  for (std::uint64_t seed = 1; seed <= chaos_seeds; ++seed) {
    const auto report = harness.run_seed(seed);
    chaos_violations += report.violations.size();
    for (const auto& v : report.violations) {
      std::fprintf(stderr, "chaos seed %llu: %s\n",
                   static_cast<unsigned long long>(seed), v.c_str());
    }
    for (const auto& step : report.trace) {
      if (step.event.kind == chaos::EventKind::kTierTransition &&
          step.outcome.rfind("tier ", 0) == 0) {
        ++chaos_tier_events;
      }
    }
    std::fprintf(stderr, "chaos seed %llu: %zu events, %zu violations\n",
                 static_cast<unsigned long long>(seed), report.trace.size(),
                 report.violations.size());
  }
  report.gate("chaos violations with tier transitions", 0, chaos_violations,
              chaos_violations == 0);
  report.gate("chaos tier transitions executed", 0, chaos_tier_events,
              chaos_tier_events > 0);
  for (const auto& [kind, count] : failures) {
    report.gate(kind, 0, count, count == 0);
  }

  auto& json = report.json();
  json.begin_object("config")
      .field("files", files)
      .field("file_blocks", file_blocks)
      .field("block_size", block_size)
      .field("rounds", rounds)
      .field("reads_per_round", reads_per_round)
      .field("zipf_s", zipf_s)
      .field("chaos_seeds", chaos_seeds)
      .field("chaos_horizon_s", chaos_horizon)
      .end();
  json.begin_object("transitions")
      .field("total", total_transitions)
      .field("errors", total_errors)
      .begin_array("per_round");
  for (const std::size_t n : per_round_transitions) json.element(n);
  json.end().end();
  json.begin_object("storage")
      .field("logical_bytes", logical_bytes)
      .field("tiered_overhead", tiered_overhead)
      .field("baseline_overhead", baseline_overhead)
      .end();
  json.begin_object("census");
  for (const auto& [spec, count] : census) json.field(spec, count);
  json.end();
  json.begin_object("hot_reads")
      .field("tiered_p50_us", hot_p50)
      .field("tiered_p99_us", hot_p99)
      .field("baseline_p50_us", base_p50)
      .field("baseline_p99_us", base_p99)
      .field("budget_us", latency_budget_us)
      .end();
  json.begin_object("locality")
      .field("hot", hot_locality)
      .field("cold", cold_locality)
      .end();
  json.begin_object("chaos")
      .field("violations", chaos_violations)
      .field("tier_events", chaos_tier_events)
      .end();
  return report.finish(json_path);
}
