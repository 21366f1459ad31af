// Adaptive tiering tests: heat tracking fed by real client traffic, the
// heat -> tier policy (hysteresis, multi-rung demotes), the TieringEngine's
// publish-then-delete transitions (idempotence, promote/demote round-trip
// byte identity per ladder scheme, mid-transition crash readability, delete
// races), the kRetier transfer classing of re-encode streams, and the
// Zipfian workload skew the engine is built for.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "hdfs/minidfs.h"
#include "hdfs/raidnode.h"
#include "hdfs/workload_driver.h"
#include "net/transfer.h"
#include "tier/engine.h"

namespace dblrep::tier {
namespace {

constexpr std::size_t kBlockSize = 64;

cluster::Topology topology(std::size_t nodes = 21, std::size_t racks = 3) {
  cluster::Topology t;
  t.num_nodes = nodes;
  t.num_racks = racks;
  return t;
}

hdfs::MiniDfs make_dfs(hdfs::MiniDfsOptions options = {},
                       std::uint64_t seed = 7) {
  return hdfs::MiniDfs(topology(), seed, &exec::inline_pool(), options);
}

// ------------------------------------------------------------ HeatTracker

TEST(HeatTrackerTest, AccruesAndDecaysWithHalfLife) {
  HeatTracker heat;  // kHeatHalfLifeS = 60
  heat.record_access("/f", 1000);
  EXPECT_DOUBLE_EQ(heat.heat("/f"), 1000.0);
  heat.advance_to(60.0);
  EXPECT_DOUBLE_EQ(heat.heat("/f"), 500.0);
  heat.advance_to(120.0);
  EXPECT_DOUBLE_EQ(heat.heat("/f"), 250.0);
  // The clock is monotonic: rewinding is a no-op, not a re-heat.
  heat.advance_to(30.0);
  EXPECT_DOUBLE_EQ(heat.heat("/f"), 250.0);
  EXPECT_DOUBLE_EQ(heat.heat("/untracked"), 0.0);
}

TEST(HeatTrackerTest, NamespaceEventsFollowTheFile) {
  HeatTracker heat;
  heat.record_access("/a", 100);
  heat.on_rename("/a", "/b");
  EXPECT_FALSE(heat.tracked("/a"));
  EXPECT_DOUBLE_EQ(heat.heat("/b"), 100.0);
  heat.on_delete("/b");
  EXPECT_EQ(heat.size(), 0u);

  // replace(from, to): the temp's accrued (write) heat is scaffolding and
  // is dropped; the published path keeps its own history.
  heat.record_access("/f", 500);
  heat.record_access("/f.raid-tmp", 9999);
  heat.on_replace("/f.raid-tmp", "/f");
  EXPECT_FALSE(heat.tracked("/f.raid-tmp"));
  EXPECT_DOUBLE_EQ(heat.heat("/f"), 500.0);
}

TEST(HeatTrackerTest, SnapshotIsHottestFirstAndDeterministic) {
  HeatTracker heat;
  heat.record_access("/cold", 10);
  heat.record_access("/hot", 1000);
  heat.record_access("/warm", 100);
  const auto samples = heat.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].path, "/hot");
  EXPECT_EQ(samples[1].path, "/warm");
  EXPECT_EQ(samples[2].path, "/cold");
}

TEST(HeatTrackerTest, ObservesClientTrafficButNotRetierStreams) {
  HeatTracker heat;
  hdfs::MiniDfsOptions options;
  options.access_observer = &heat;
  hdfs::MiniDfs dfs = make_dfs(options);
  const Buffer data = random_buffer(kBlockSize * 20, 1);
  ASSERT_TRUE(dfs.write_file("/f", data, "rs-10-4", kBlockSize).is_ok());
  const double after_write = heat.heat("/f");
  EXPECT_GT(after_write, 0.0);

  ASSERT_TRUE(dfs.read_file("/f").is_ok());
  const double after_read = heat.heat("/f");
  EXPECT_GT(after_read, after_write);

  // A tier transition streams the whole file under kRetier: the file being
  // cooled must not re-heat, and the temp's heat must not linger.
  hdfs::RaidNode raid(dfs);
  ASSERT_TRUE(raid.raid_file("/f", "3-rep").is_ok());
  EXPECT_DOUBLE_EQ(heat.heat("/f"), after_read);
  EXPECT_FALSE(heat.tracked("/f.raid-tmp"));
}

// ---------------------------------------------------------- TieringPolicy

TEST(TieringPolicyTest, MapsHeatToLadderRungs) {
  TieringPolicy policy({.demote_below = {4096, 1024}});
  ASSERT_EQ(policy.num_tiers(), 3u);
  // Hot files stay replicated; lukewarm files settle mid-ladder; cold
  // files fall through both thresholds in a single decision.
  EXPECT_EQ(policy.target_tier(10000, 0), 0u);
  EXPECT_EQ(policy.target_tier(2000, 0), 1u);
  EXPECT_EQ(policy.target_tier(0, 0), 2u);
  EXPECT_EQ(policy.target_tier(500, 1), 2u);
}

TEST(TieringPolicyTest, PromotionRequiresHysteresis) {
  TieringPolicy policy({.demote_below = {4096, 1024}});
  // Just above the demotion threshold is inside the anti-thrash band: the
  // file stays where it is in both directions.
  EXPECT_EQ(policy.target_tier(5000, 1), 1u);
  EXPECT_EQ(policy.target_tier(5000, 0), 0u);
  // Past threshold x hysteresis it promotes -- from the bottom rung all the
  // way up when hot enough.
  EXPECT_EQ(policy.target_tier(4096 * kPromoteHysteresis, 1), 0u);
  EXPECT_EQ(policy.target_tier(4096 * kPromoteHysteresis, 2), 0u);
  EXPECT_EQ(policy.target_tier(1024 * kPromoteHysteresis, 2), 1u);
}

TEST(TieringPolicyTest, EmptyThresholdsDefaultToHotAndColdBytes) {
  TieringPolicy policy;  // empty demote_below: 4096 / 1024
  EXPECT_DOUBLE_EQ(policy.demote_threshold(0), 4096.0);
  EXPECT_DOUBLE_EQ(policy.demote_threshold(1), 1024.0);
  // A longer ladder interpolates geometrically between the two.
  TieringPolicyOptions options;
  options.ladder = {"3-rep", "heptagon-local", "pentagon", "rs-10-4"};
  TieringPolicy four_rungs(options);
  EXPECT_DOUBLE_EQ(four_rungs.demote_threshold(0), 4096.0);
  EXPECT_NEAR(four_rungs.demote_threshold(1), 2048.0, 1e-9);
  EXPECT_DOUBLE_EQ(four_rungs.demote_threshold(2), 1024.0);
}

TEST(TieringPolicyTest, OffLadderSpecsAreRejected) {
  TieringPolicy policy;
  EXPECT_TRUE(policy.tier_of("rs-10-4").is_ok());
  EXPECT_FALSE(policy.tier_of("pentagon").is_ok());
  EXPECT_FALSE(policy.tier_of("").is_ok());
}

// ---------------------------------------------------------- TieringEngine

struct Cluster {
  HeatTracker heat;
  hdfs::MiniDfs dfs;
  TieringEngine engine;

  explicit Cluster(TieringPolicyOptions policy = {},
                   TieringEngineOptions options = {})
      : dfs(make_dfs(with_observer())),
        engine(dfs, heat, TieringPolicy(std::move(policy)), options) {}

  hdfs::MiniDfsOptions with_observer() {
    hdfs::MiniDfsOptions options;
    options.access_observer = &heat;
    return options;
  }
};

TEST(TieringEngineTest, DemotesColdAndPromotesReheatedFiles) {
  Cluster c;
  const Buffer data = random_buffer(kBlockSize * 20, 2);
  ASSERT_TRUE(c.dfs.write_file("/f", data, "3-rep", kBlockSize).is_ok());

  // Cold from the start (the write's heat decays to ~0 after many half
  // lives): one pass demotes straight to the bottom rung.
  auto report = c.engine.run_once(/*now_s=*/600.0);
  EXPECT_EQ(report.transitions, 1u);
  EXPECT_EQ(report.demotions, 1u);
  auto info = c.dfs.stat("/f");
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info->code_spec, "rs-10-4");

  // Idempotence: at the same heat a second pass has nothing to do.
  report = c.engine.run_once(600.0);
  EXPECT_EQ(report.considered, 1u);
  EXPECT_EQ(report.transitions, 0u);
  EXPECT_EQ(report.errors, 0u);

  // Re-heat past hysteresis: the file promotes back and still reads
  // byte-identical after the full demote/promote cycle.
  c.heat.record_access("/f", 1u << 20);
  report = c.engine.run_once(601.0);
  EXPECT_EQ(report.promotions, 1u);
  info = c.dfs.stat("/f");
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info->code_spec, "3-rep");
  const auto read = c.dfs.read_file("/f");
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, data);
}

TEST(TieringEngineTest, RoundTripIsByteIdenticalPerLadderScheme) {
  Cluster c;
  const Buffer data = random_buffer(kBlockSize * 25, 3);
  ASSERT_TRUE(c.dfs.write_file("/f", data, "rs-10-4", kBlockSize).is_ok());
  for (const std::string& spec : c.engine.policy().ladder()) {
    if (spec == "rs-10-4") continue;
    ASSERT_TRUE(c.engine.force_transition("/f", spec).is_ok()) << spec;
    auto read = c.dfs.read_file("/f");
    ASSERT_TRUE(read.is_ok()) << spec;
    EXPECT_EQ(*read, data) << spec;
    ASSERT_TRUE(c.engine.force_transition("/f", "rs-10-4").is_ok()) << spec;
    read = c.dfs.read_file("/f");
    ASSERT_TRUE(read.is_ok()) << spec;
    EXPECT_EQ(*read, data) << spec;
  }
}

TEST(TieringEngineTest, ForceTransitionRejectsOffLadderTargets) {
  Cluster c;
  const Buffer data = random_buffer(kBlockSize * 10, 4);
  ASSERT_TRUE(c.dfs.write_file("/f", data, "rs-10-4", kBlockSize).is_ok());
  EXPECT_FALSE(c.engine.force_transition("/f", "pentagon").is_ok());
  EXPECT_EQ(c.dfs.stat("/f")->code_spec, "rs-10-4");
}

TEST(TieringEngineTest, ResidencyGateDefersFlappingFiles) {
  TieringPolicyOptions sticky;
  sticky.min_residency_s = 100.0;
  Cluster c(sticky);
  const Buffer data = random_buffer(kBlockSize * 20, 5);
  ASSERT_TRUE(c.dfs.write_file("/f", data, "3-rep", kBlockSize).is_ok());
  auto report = c.engine.run_once(600.0);
  ASSERT_EQ(report.transitions, 1u);

  // Immediately re-heated: due for promotion, but inside the residency
  // window -- deferred, then executed once the window passes.
  c.heat.record_access("/f", 1u << 20);
  report = c.engine.run_once(601.0);
  EXPECT_EQ(report.transitions, 0u);
  EXPECT_EQ(report.skipped_residency, 1u);
  report = c.engine.run_once(701.0);
  EXPECT_EQ(report.promotions, 1u);
}

TEST(TieringEngineTest, PassBudgetCapsTransitionsPerPass) {
  TieringEngineOptions budget;
  budget.max_transitions_per_pass = 1;
  Cluster c({}, budget);
  const Buffer data = random_buffer(kBlockSize * 20, 6);
  ASSERT_TRUE(c.dfs.write_file("/a", data, "3-rep", kBlockSize).is_ok());
  ASSERT_TRUE(c.dfs.write_file("/b", data, "3-rep", kBlockSize).is_ok());
  auto report = c.engine.run_once(600.0);
  EXPECT_EQ(report.transitions, 1u);
  EXPECT_EQ(report.skipped_budget, 1u);
  report = c.engine.run_once(600.0);
  EXPECT_EQ(report.transitions, 1u);
}

TEST(TieringEngineTest, FileStaysReadableThroughMidTransitionCrash) {
  Cluster c;
  const Buffer data = random_buffer(kBlockSize * 20, 7);
  ASSERT_TRUE(c.dfs.write_file("/f", data, "rs-10-4", kBlockSize).is_ok());

  // Crash a node while the re-encode stream is in flight, and prove the
  // published layout still serves the exact bytes at that instant -- the
  // tentpole's always-readable invariant.
  bool checked_mid_stream = false;
  c.engine.set_mid_transition_hook([&] {
    ASSERT_TRUE(c.dfs.fail_node(0).is_ok());
    const auto mid = c.dfs.read_file("/f");
    ASSERT_TRUE(mid.is_ok()) << mid.status().to_string();
    EXPECT_EQ(*mid, data);
    checked_mid_stream = true;
  });
  const auto raided = c.engine.force_transition("/f", "3-rep");
  EXPECT_TRUE(checked_mid_stream);

  // Whether the transition survived the crash or aborted, the file reads
  // back byte-identical and no temp scaffolding is left behind.
  const auto read = c.dfs.read_file("/f");
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  EXPECT_EQ(*read, data);
  for (const std::string& path : c.dfs.list_files()) {
    EXPECT_FALSE(path.ends_with(".raid-tmp")) << path;
  }
  if (raided.is_ok()) {
    EXPECT_EQ(c.dfs.stat("/f")->code_spec, "3-rep");
  } else {
    EXPECT_EQ(c.dfs.stat("/f")->code_spec, "rs-10-4");
  }
}

TEST(TieringEngineTest, DeleteRacingATransitionWinsCleanly) {
  Cluster c;
  const Buffer data = random_buffer(kBlockSize * 20, 8);
  ASSERT_TRUE(c.dfs.write_file("/f", data, "rs-10-4", kBlockSize).is_ok());
  c.engine.set_mid_transition_hook([&] {
    ASSERT_TRUE(c.dfs.delete_file("/f").is_ok());
  });
  // publish-then-delete: the swap finds the published path gone, the
  // transition reports the loss, and its temp is cleaned up.
  const auto raided = c.engine.force_transition("/f", "3-rep");
  EXPECT_FALSE(raided.is_ok());
  EXPECT_TRUE(c.dfs.list_files().empty());
}

TEST(TieringEngineTest, ConcurrentReadersSeeConsistentBytesThroughout) {
  Cluster c;
  hdfs::MiniDfs& dfs = c.dfs;
  TieringEngine& engine = c.engine;
  const Buffer data = random_buffer(kBlockSize * 20, 9);
  ASSERT_TRUE(dfs.write_file("/f", data, "rs-10-4", kBlockSize).is_ok());

  // Real reader threads race the swap's metadata handoff (the TSan job
  // runs this suite). Readers yield between reads so the transition
  // stream is raced, not starved.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> good_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto read = dfs.read_file("/f");
        // Every read -- before, during, or after a swap -- must return
        // the exact contents: the path is always published.
        ASSERT_TRUE(read.is_ok()) << read.status().to_string();
        ASSERT_EQ(*read, data);
        good_reads.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
  }
  ASSERT_TRUE(engine.force_transition("/f", "3-rep").is_ok());
  ASSERT_TRUE(engine.force_transition("/f", "heptagon-local").is_ok());
  ASSERT_TRUE(engine.force_transition("/f", "rs-10-4").is_ok());
  // Let every reader land at least one read against the final layout
  // before stopping (the transitions can outrun a reader's first pass).
  while (good_reads.load(std::memory_order_relaxed) < 3) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_GT(good_reads.load(), 0u);
  EXPECT_EQ(*dfs.read_file("/f"), data);
}

// ------------------------------------------------- retier transfer class

TEST(TieringEngineTest, TransitionTrafficIsRetierClassed) {
  // Capture off: the ledger's always-live per-class view alone shows that
  // every byte a transition moves is classed kRetier.
  HeatTracker heat;
  hdfs::MiniDfsOptions options;
  options.access_observer = &heat;
  hdfs::MiniDfs dfs = make_dfs(options);
  TieringEngine engine(dfs, heat, TieringPolicy{});
  const Buffer data = random_buffer(kBlockSize * 20, 10);
  ASSERT_TRUE(dfs.write_file("/f", data, "rs-10-4", kBlockSize).is_ok());
  const net::TrafficLedger& ledger = dfs.traffic();
  ASSERT_FALSE(ledger.capturing());
  const double total0 = ledger.total_bytes();
  const double retier0 = ledger.class_bytes(net::TransferClass::kRetier);

  ASSERT_TRUE(engine.force_transition("/f", "heptagon-local").is_ok());
  const double retier =
      ledger.class_bytes(net::TransferClass::kRetier) - retier0;
  EXPECT_GT(retier, 0.0);
  EXPECT_EQ(retier, ledger.total_bytes() - total0);
  EXPECT_TRUE(net::is_repair_class(net::TransferClass::kRetier));
  EXPECT_STREQ(net::to_string(net::TransferClass::kRetier), "retier");
}

// ------------------------------------------------------- Zipfian workload

TEST(ZipfWorkloadTest, ZeroExponentIsUniform) {
  const hdfs::ZipfSampler zipf(8, 0.0);
  for (std::size_t rank = 0; rank < 8; ++rank) {
    EXPECT_NEAR(zipf.probability(rank), 1.0 / 8, 1e-12);
  }
}

TEST(ZipfWorkloadTest, SkewIsMonotoneInRankAndExponent) {
  const hdfs::ZipfSampler zipf(16, 1.0);
  for (std::size_t rank = 0; rank + 1 < 16; ++rank) {
    EXPECT_GT(zipf.probability(rank), zipf.probability(rank + 1));
  }
  // A sharper exponent concentrates more mass on the head.
  const hdfs::ZipfSampler sharper(16, 2.0);
  EXPECT_GT(sharper.probability(0), zipf.probability(0));

  // Empirically: rank 0 dominates the tail by roughly the analytic ratio.
  Rng rng(42);
  std::vector<std::size_t> counts(16, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[15] * 4);
}

TEST(ZipfWorkloadTest, SkewedDriverRunsCleanAndIsDeterministic) {
  const auto run = [](double zipf_s) {
    hdfs::MiniDfs dfs = make_dfs();
    hdfs::WorkloadOptions options;
    options.clients = 2;
    options.ops_per_client = 30;
    options.block_size = kBlockSize;
    options.preload_files = 6;
    options.pread_fraction = 0.2;
    options.zipf_s = zipf_s;
    options.seed = 11;
    hdfs::WorkloadDriver driver(dfs, options);
    EXPECT_TRUE(driver.preload().is_ok());
    const auto report = driver.run();
    EXPECT_TRUE(report.is_ok());
    EXPECT_EQ(report->total_errors(), 0u);
    return report->traffic_total_bytes;
  };
  // Same seed, same skew -> identical traffic; the skew knob itself is
  // exercised at s = 0 (the byte-identical legacy path) and s > 0.
  EXPECT_EQ(run(0.0), run(0.0));
  EXPECT_EQ(run(1.2), run(1.2));
}

}  // namespace
}  // namespace dblrep::tier
