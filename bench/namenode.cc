// Metadata-plane scaling and recovery cost of the sharded NameNode.
//
// Two sweeps, both pure metadata (no datanode I/O, no payload bytes):
//
//  * Catalog ops/s vs shard count. For each shard count the harness first
//    bulk-creates --files files from --threads concurrent writers
//    (begin_write -> attach_stripes -> commit_write against "3-rep"),
//    then runs a mixed phase of --mixed-ops operations across the same
//    threads (7/8 stat lookups, 1/8 create+publish+delete churn). More
//    shards = more independent lock domains and smaller per-shard maps,
//    so mutation-heavy concurrency is exactly where sharding should pay.
//
//  * Recovery time vs journal length. For each target length the harness
//    grows a snapshot-free 4-shard NameNode until its journals hold that
//    many records, then times a cold restore() of a scratch NameNode from
//    copies of the artifacts and asserts the rebuilt fingerprint matches.
//
// Acceptance gates (asserted at exit, mirroring the PR bar):
//   * at --gate-files files or more, mixed ops/s with 4 shards beats
//     1 shard by more than --gate-scaling (default 1.5x, the full-size
//     sharding claim; CI smoke runs enforce a reduced ratio sized for
//     2-core runners via --gate-files=<smoke size> --gate-scaling=1.15);
//   * recovery is linear in journal length: across the sweep, the max
//     per-record replay cost is within 2.5x of the min (no superlinear
//     blowup from map rebuilds or orphan sweeps).
//   Below --gate-files the scaling gate is reported but not enforced --
//   contention is too light at CI-smoke sizes for the full ratio to mean
//   much, which is why the smoke gate pairs a lower --gate-scaling with a
//   matching --gate-files.
//
// Fixed seeds, everything a deterministic function of the flags. Emits
// BENCH_namenode.json.
//
// Usage: namenode [--files=N] [--mixed-ops=N] [--threads=N] [--reps=N]
//                 [--shards=CSV] [--journal-records=CSV]
//                 [--gate-files=N] [--gate-scaling=X] [--json=PATH]
//
// --reps runs each shard sample N times and keeps the best mixed ops/s
// (best-of-N is the standard throughput-gate estimator: interference only
// ever slows a run down, so the max is the least-noisy observation and
// the ratio of two maxes is what the scaling gate judges).
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/topology.h"
#include "common/check.h"
#include "common/status.h"
#include "ec/code.h"
#include "ec/registry.h"
#include "hdfs/namenode.h"
#include "report.h"

namespace {

using namespace dblrep;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Resolver backed by an owned scheme cache: the benches construct many
/// NameNodes, and catalogs hold raw CodeScheme pointers.
hdfs::SchemeResolver make_resolver() {
  auto schemes = std::make_shared<
      std::map<std::string, std::unique_ptr<ec::CodeScheme>>>();
  return [schemes](const std::string& spec) -> Result<const ec::CodeScheme*> {
    auto it = schemes->find(spec);
    if (it == schemes->end()) {
      auto code = ec::make_code(spec);
      if (!code.is_ok()) return code.status();
      it = schemes->emplace(spec, std::move(*code)).first;
    }
    return it->second.get();
  };
}

std::string file_path(std::size_t i) {
  // Spread over directories so the path hash exercises every shard.
  return "/bench/d" + std::to_string(i % 64) + "/f" + std::to_string(i);
}

constexpr std::size_t kNumNodes = 21;
constexpr std::size_t kNumRacks = 3;
constexpr const char* kSpec = "3-rep";
constexpr std::size_t kBlockSize = 1 << 20;

void create_one(hdfs::NameNode& nn, const ec::CodeScheme& code,
                const std::string& path, std::size_t salt) {
  DBLREP_CHECK(nn.begin_write(path, kSpec, kBlockSize).is_ok());
  std::vector<cluster::NodeId> group(code.num_nodes());
  for (std::size_t j = 0; j < group.size(); ++j) {
    group[j] = static_cast<cluster::NodeId>((salt + j) % kNumNodes);
  }
  DBLREP_CHECK(nn.attach_stripes(path, {group}).is_ok());
  DBLREP_CHECK(nn.commit_write(path).is_ok());
}

struct ShardSample {
  std::size_t shards = 0;
  double create_s = 0;
  double create_files_per_s = 0;
  double mixed_s = 0;
  double mixed_ops_per_s = 0;
};

ShardSample run_shard_sample(std::size_t shards, std::size_t files,
                             std::size_t mixed_ops, std::size_t threads) {
  cluster::Topology topology;
  topology.num_nodes = kNumNodes;
  topology.num_racks = kNumRacks;

  auto resolver = make_resolver();
  const ec::CodeScheme& code = *resolver(kSpec).value();
  // Snapshot cadence bounds journal memory; the recovery sweep below owns
  // the snapshot-free regime.
  hdfs::NameNode nn(topology, resolver,
                    hdfs::NameNodeOptions{.shards = shards,
                                          .snapshot_every = 1 << 15});

  ShardSample sample;
  sample.shards = nn.num_shards();

  // ---- create phase: concurrent bulk namespace build ------------------
  const auto create_start = Clock::now();
  {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t lo = files * t / threads;
        const std::size_t hi = files * (t + 1) / threads;
        for (std::size_t i = lo; i < hi; ++i) {
          create_one(nn, code, file_path(i), i);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  sample.create_s = seconds_since(create_start);
  sample.create_files_per_s =
      static_cast<double>(files) / sample.create_s;
  DBLREP_CHECK_EQ(nn.num_files(), files);

  // ---- mixed phase: stat-heavy traffic with create/delete churn -------
  const auto mixed_start = Clock::now();
  {
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t lo = mixed_ops * t / threads;
        const std::size_t hi = mixed_ops * (t + 1) / threads;
        for (std::size_t i = lo; i < hi; ++i) {
          if (i % 8 == 0) {
            const std::string path =
                "/bench/churn/t" + std::to_string(t) + "_" +
                std::to_string(i);
            DBLREP_CHECK(nn.begin_write(path, kSpec, kBlockSize).is_ok());
            DBLREP_CHECK(nn.commit_write(path).is_ok());
            DBLREP_CHECK(nn.remove_file(path).is_ok());
          } else {
            DBLREP_CHECK(nn.stat(file_path(i % files)).is_ok());
          }
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  sample.mixed_s = seconds_since(mixed_start);
  sample.mixed_ops_per_s =
      static_cast<double>(mixed_ops) / sample.mixed_s;
  return sample;
}

struct RecoverySample {
  std::size_t target_records = 0;
  std::size_t replayed = 0;
  double restore_s = 0;
  double per_record_us = 0;
};

RecoverySample run_recovery_sample(std::size_t target_records) {
  cluster::Topology topology;
  topology.num_nodes = kNumNodes;
  topology.num_racks = kNumRacks;

  auto resolver = make_resolver();
  const ec::CodeScheme& code = *resolver(kSpec).value();
  hdfs::NameNode nn(topology, resolver,
                    hdfs::NameNodeOptions{.shards = 4, .snapshot_every = 0});
  for (std::size_t i = 0; nn.total_journal_records() < target_records; ++i) {
    create_one(nn, code, file_path(i), i);
  }

  std::vector<Buffer> snapshots, journals;
  for (std::size_t s = 0; s < nn.num_shards(); ++s) {
    snapshots.push_back(nn.snapshot_bytes(s));
    journals.push_back(nn.journal_bytes(s));
  }

  hdfs::NameNode scratch(topology, resolver,
                         hdfs::NameNodeOptions{.shards = 4,
                                               .snapshot_every = 0});
  const auto start = Clock::now();
  const auto report =
      scratch.restore(std::move(snapshots), std::move(journals));
  RecoverySample sample;
  sample.target_records = target_records;
  sample.restore_s = seconds_since(start);
  DBLREP_CHECK(report.is_ok());
  DBLREP_CHECK_EQ(scratch.fingerprint(), nn.fingerprint());
  sample.replayed = report->journal_records_replayed;
  sample.per_record_us =
      sample.restore_s * 1e6 / static_cast<double>(sample.replayed);
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t files = 1000000;
  std::size_t mixed_ops = 400000;
  std::size_t threads = 8;
  std::size_t gate_files = 1000000;
  double gate_scaling = 1.5;
  std::size_t reps = 1;
  std::vector<std::size_t> shard_counts = {1, 4, 16};
  std::vector<std::size_t> journal_records = {10000, 20000, 40000, 80000};
  std::string json_path = "BENCH_namenode.json";
  bench::Flags flags;
  flags.add("files", &files);
  flags.add("mixed-ops", &mixed_ops);
  flags.add("threads", &threads);
  flags.add("reps", &reps);
  flags.add("gate-files", &gate_files);
  flags.add("gate-scaling", &gate_scaling);
  flags.add("shards", &shard_counts);
  flags.add("journal-records", &journal_records);
  flags.add("json", &json_path);
  if (!flags.parse(argc, argv)) return 2;
  if (files == 0 || mixed_ops == 0 || threads == 0 || reps == 0 ||
      shard_counts.empty() || journal_records.empty()) {
    return flags.fail("need positive sizes");
  }

  std::vector<ShardSample> shard_samples;
  for (const std::size_t shards : shard_counts) {
    ShardSample best;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      ShardSample sample = run_shard_sample(shards, files, mixed_ops, threads);
      if (rep == 0 || sample.mixed_ops_per_s > best.mixed_ops_per_s) {
        best = sample;
      }
    }
    shard_samples.push_back(best);
    const auto& s = shard_samples.back();
    std::fprintf(stderr,
                 "shards=%zu create %.0f files/s, mixed %.0f ops/s "
                 "(best of %zu)\n",
                 s.shards, s.create_files_per_s, s.mixed_ops_per_s, reps);
  }

  std::vector<RecoverySample> recovery_samples;
  for (const std::size_t records : journal_records) {
    recovery_samples.push_back(run_recovery_sample(records));
    const auto& s = recovery_samples.back();
    std::fprintf(stderr,
                 "journal=%zu records: restore %.3fs (%.2f us/record, "
                 "%zu replayed)\n",
                 s.target_records, s.restore_s, s.per_record_us, s.replayed);
  }

  // ---- gates -----------------------------------------------------------
  const auto ops_at = [&](std::size_t shards) -> double {
    for (const auto& s : shard_samples) {
      if (s.shards == shards) return s.mixed_ops_per_s;
    }
    return 0;
  };
  const double ops1 = ops_at(1);
  const double ops4 = ops_at(4);
  const double scaling = ops1 > 0 ? ops4 / ops1 : 0;
  const bool scaling_enforced = files >= gate_files && ops1 > 0 && ops4 > 0;

  double min_cost = 0, max_cost = 0;
  for (const auto& s : recovery_samples) {
    if (min_cost == 0 || s.per_record_us < min_cost) min_cost = s.per_record_us;
    if (s.per_record_us > max_cost) max_cost = s.per_record_us;
  }

  bench::Report report("namenode");
  if (scaling_enforced) {
    report.gate("mixed ops/s scaling 1->4 shards", gate_scaling, scaling,
                scaling > gate_scaling);
  } else {
    std::fprintf(stderr,
                 "scaling gate not enforced (%zu files < %zu gate-files); "
                 "measured %.2fx\n",
                 files, gate_files, scaling);
  }
  report.gate("recovery per-record cost max/min", 2.5,
              min_cost > 0 ? max_cost / min_cost : 0,
              max_cost <= 2.5 * min_cost);

  auto& json = report.json();
  json.field("files", files)
      .field("mixed_ops", mixed_ops)
      .field("threads", threads);
  json.begin_array("shard_sweep");
  for (const auto& s : shard_samples) {
    json.begin_object()
        .field("shards", s.shards)
        .field("create_s", s.create_s)
        .field("create_files_per_s", s.create_files_per_s)
        .field("mixed_s", s.mixed_s)
        .field("mixed_ops_per_s", s.mixed_ops_per_s)
        .end();
  }
  json.end();
  json.begin_array("recovery_sweep");
  for (const auto& s : recovery_samples) {
    json.begin_object()
        .field("target_records", s.target_records)
        .field("replayed", s.replayed)
        .field("restore_s", s.restore_s)
        .field("per_record_us", s.per_record_us)
        .end();
  }
  json.end();
  json.field("scaling_1_to_4", scaling)
      .field("scaling_gate_enforced", scaling_enforced)
      .field("recovery_per_record_us_min", min_cost)
      .field("recovery_per_record_us_max", max_cost);
  return report.finish(json_path);
}
