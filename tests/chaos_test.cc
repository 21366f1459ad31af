// The chaos harness's own contract tests: schedules are pure functions of
// (config, seed); replays reproduce traces and cluster state byte for
// byte, across worker pools; the invariant checkers detect true
// violations (seeded silent corruption) and the minimizer shrinks a
// violating schedule to a core that still violates; layered repair stays
// byte-equivalent under chaos; and the fault model pieces underneath
// (transient offline, stale-replica GC, corruption-aware repair) behave.
#include <gtest/gtest.h>

#include <algorithm>

#include "chaos/harness.h"
#include "chaos/invariants.h"
#include "chaos/schedule.h"
#include "exec/thread_pool.h"
#include "hdfs/minidfs.h"

namespace dblrep::chaos {
namespace {

/// Small, fast scenario: ~40 events on a 21-node/3-rack cluster.
ChaosConfig small_config(const std::string& code_spec = "rs-10-4") {
  ChaosConfig config;
  config.code_spec = code_spec;
  config.horizon_s = 12.0;
  config.preload_files = 2;
  config.stripes_per_file = 1;
  return config;
}

// ----------------------------------------------------------- schedules

TEST(ChaosSchedule, DeterministicPerSeed) {
  const ChaosConfig config = small_config();
  const auto a = generate_schedule(config, 7);
  const auto b = generate_schedule(config, 7);
  EXPECT_EQ(a, b);
  const auto c = generate_schedule(config, 8);
  EXPECT_NE(a, c);
  EXPECT_FALSE(a.empty());
}

TEST(ChaosSchedule, TimeOrdered) {
  const auto events = generate_schedule(small_config(), 3);
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const ChaosEvent& a, const ChaosEvent& b) { return a.at < b.at; }));
}

TEST(ChaosSchedule, MixPresetsRoundTrip) {
  for (const FaultMix& mix : FaultMix::presets()) {
    const auto parsed = FaultMix::preset(mix.name);
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed->name, mix.name);
  }
  EXPECT_FALSE(FaultMix::preset("antigravity").is_ok());
}

// -------------------------------------------------------------- replay

TEST(ChaosHarness, ReplayReproducesTraceAndState) {
  const ChaosHarness harness(small_config());
  const ChaosReport a = harness.run_seed(21);
  const ChaosReport b = harness.run_seed(21);
  EXPECT_TRUE(a.ok()) << a.trace_to_string();
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.final_fingerprint, b.final_fingerprint);
  EXPECT_EQ(a.final_storage_fingerprint, b.final_storage_fingerprint);
}

TEST(ChaosHarness, WorkerPoolReplaysInlineTraceByteForByte) {
  // The DBLREP_THREADS regime: every event is a serial barrier, the DFS
  // parallelizes inside events, and the result must be bit-identical to
  // the fully serial run.
  ChaosConfig inline_config = small_config();
  const ChaosReport serial = ChaosHarness(inline_config).run_seed(33);

  exec::ThreadPool pool(3);
  ChaosConfig pooled_config = small_config();
  pooled_config.pool = &pool;
  const ChaosReport pooled = ChaosHarness(pooled_config).run_seed(33);

  EXPECT_EQ(serial.trace, pooled.trace);
  EXPECT_EQ(serial.final_fingerprint, pooled.final_fingerprint);
  EXPECT_EQ(serial.traffic_total_bytes, pooled.traffic_total_bytes);
  EXPECT_EQ(serial.traffic_cross_rack_bytes,
            pooled.traffic_cross_rack_bytes);
}

TEST(ChaosHarness, EveryPresetMixHoldsInvariants) {
  for (const FaultMix& mix : FaultMix::presets()) {
    ChaosConfig config = small_config();
    config.mix = mix;
    const ChaosReport report = ChaosHarness(config).run_seed(5);
    EXPECT_TRUE(report.ok()) << mix.name << ":\n" << report.trace_to_string();
    EXPECT_FALSE(report.trace.empty()) << mix.name;
  }
}

// ---------------------------------------------- checker true positives

TEST(ChaosHarness, DurabilityCheckerCatchesSilentCorruption) {
  // kTamperBlock rewrites a stored block with a fresh, CRC-valid payload:
  // the one fault class checksums cannot see. The durability checker must
  // flag it (decode succeeds, bytes differ from write-time contents).
  const ChaosHarness harness(small_config());
  const std::vector<ChaosEvent> events = {
      {0.5, EventKind::kTamperBlock, 12345}};
  const ChaosReport report = harness.run_schedule(99, events);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations.front().find("durability"), std::string::npos)
      << report.violations.front();
}

TEST(ChaosHarness, MinimizerShrinksToViolatingCore) {
  // Bury one tamper event inside a benign generated schedule; the
  // minimizer must strip the noise and keep a schedule that still
  // violates -- which must include the tamper (nothing else can violate).
  const ChaosHarness harness(small_config());
  std::vector<ChaosEvent> events = generate_schedule(small_config(), 11);
  const std::size_t original = events.size();
  ASSERT_GT(original, 5u);
  events.insert(events.begin() + static_cast<std::ptrdiff_t>(original / 2),
                {events[original / 2].at, EventKind::kTamperBlock, 777});

  ASSERT_FALSE(harness.run_schedule(11, events).ok());
  const auto minimized = harness.minimize(11, events);
  EXPECT_LT(minimized.size(), events.size());
  EXPECT_FALSE(harness.run_schedule(11, minimized).ok());
  EXPECT_TRUE(std::any_of(minimized.begin(), minimized.end(),
                          [](const ChaosEvent& event) {
                            return event.kind == EventKind::kTamperBlock;
                          }));
}

TEST(ChaosHarness, NameNodeCrashEventsAreScheduledAndSurvivable) {
  // Every preset carries a nonzero namenode_crash_rate, so generated
  // schedules must actually contain crash events -- and a run that crashes
  // the NameNode repeatedly (with and without a prior snapshot) must
  // recover to the same catalog every time and stay deterministic.
  bool scheduled = false;
  for (const FaultMix& mix : FaultMix::presets()) {
    ChaosConfig config = small_config();
    config.mix = mix;
    for (std::uint64_t seed = 0; seed < 8 && !scheduled; ++seed) {
      const auto events = generate_schedule(config, seed);
      scheduled = std::any_of(events.begin(), events.end(),
                              [](const ChaosEvent& event) {
                                return event.kind ==
                                       EventKind::kNameNodeCrash;
                              });
    }
  }
  EXPECT_TRUE(scheduled);

  const ChaosHarness harness(small_config());
  const std::vector<ChaosEvent> events = {
      {0.5, EventKind::kNameNodeCrash, 0},   // crash with journal replay
      {1.0, EventKind::kNameNodeCrash, 1},   // snapshot first, then crash
      {1.5, EventKind::kNameNodeCrash, 2}};  // crash again on empty journal
  const ChaosReport a = harness.run_schedule(17, events);
  EXPECT_TRUE(a.ok()) << a.trace_to_string();
  const ChaosReport b = harness.run_schedule(17, events);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.final_fingerprint, b.final_fingerprint);
}

TEST(ChaosInvariants, CatalogRecoveryCheckerCatchesLostJournalRecord) {
  // Forget the durable record of the most recent commit: the on-disk
  // journal now replays to a catalog missing one published file, which the
  // recovery checker must flag against the live NameNode.
  cluster::Topology topology;
  topology.num_nodes = 21;
  topology.num_racks = 3;
  hdfs::MiniDfsOptions options;
  options.meta_shards = 4;
  hdfs::MiniDfs dfs(topology, 9, nullptr, options);
  ASSERT_TRUE(
      dfs.write_file("/a", random_buffer(64 * 10, 6), "rs-10-4", 64).is_ok());
  ASSERT_TRUE(
      dfs.write_file("/b", random_buffer(64 * 3, 7), "3-rep", 64).is_ok());

  std::vector<std::string> violations;
  check_catalog_recovery(dfs, violations);
  ASSERT_TRUE(violations.empty()) << violations.front();

  const std::size_t shard = dfs.namenode().shard_of("/b");
  ASSERT_GT(dfs.namenode().journal_record_count(shard), 0u);
  ASSERT_TRUE(dfs.namenode().testonly_drop_last_journal_record(shard).is_ok());

  check_catalog_recovery(dfs, violations);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("catalog"), std::string::npos)
      << violations.front();
}

// ------------------------------------------------- layered equivalence

TEST(ChaosHarness, LayeredRepairEquivalentUnderChaos) {
  for (const char* spec : {"heptagon-local", "rs-10-4"}) {
    ChaosConfig config = small_config(spec);
    const auto violations = check_layering_equivalence(config, 13);
    EXPECT_TRUE(violations.empty())
        << spec << ": " << violations.front();
  }
}

// ------------------------------------------------- fault-model pieces

TEST(MiniDfsFaultModel, OfflineNodeKeepsItsDisk) {
  cluster::Topology topology;
  topology.num_nodes = 21;
  topology.num_racks = 3;
  hdfs::MiniDfs dfs(topology, 5);
  const Buffer data = random_buffer(64 * 10, 2);
  ASSERT_TRUE(dfs.write_file("/f", data, "rs-10-4", 64).is_ok());
  const auto group = dfs.catalog().stripe(dfs.stat("/f")->stripes[0]).group;

  const std::size_t blocks =
      dfs.datanode(group[0]).block_count();
  ASSERT_GT(blocks, 0u);
  ASSERT_TRUE(dfs.offline_node(group[0]).is_ok());
  EXPECT_FALSE(dfs.datanode(group[0]).is_up());
  ASSERT_TRUE(dfs.restart_node(group[0]).is_ok());
  // Unlike fail_node, the blocks survived: no repair needed.
  EXPECT_EQ(dfs.datanode(group[0]).block_count(), blocks);
  EXPECT_TRUE(dfs.scrub().is_ok());
}

TEST(MiniDfsFaultModel, RejoiningNodeDropsReplicasOfDeletedFiles) {
  cluster::Topology topology;
  topology.num_nodes = 21;
  topology.num_racks = 3;
  hdfs::MiniDfs dfs(topology, 5);
  const Buffer data = random_buffer(64 * 10, 3);
  ASSERT_TRUE(dfs.write_file("/f", data, "rs-10-4", 64).is_ok());
  const auto group = dfs.catalog().stripe(dfs.stat("/f")->stripes[0]).group;

  // Delete while one replica holder is away: the deletion cannot reach its
  // disk, so the block-report GC on rejoin must drop the stale replicas.
  ASSERT_TRUE(dfs.offline_node(group[0]).is_ok());
  ASSERT_TRUE(dfs.delete_file("/f").is_ok());
  ASSERT_TRUE(dfs.restart_node(group[0]).is_ok());
  EXPECT_EQ(dfs.datanode(group[0]).block_count(), 0u);

  std::vector<std::string> violations;
  check_placement(dfs, {}, violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(MiniDfsFaultModel, RepairHealsCrcCorruptReplicas) {
  cluster::Topology topology;
  topology.num_nodes = 21;
  topology.num_racks = 3;
  hdfs::MiniDfs dfs(topology, 5);
  const Buffer data = random_buffer(64 * 10, 4);
  ASSERT_TRUE(dfs.write_file("/f", data, "rs-10-4", 64).is_ok());
  const cluster::StripeId stripe = dfs.stat("/f")->stripes[0];
  const auto group = dfs.catalog().stripe(stripe).group;

  // Corrupt one replica (CRC catches it), then repair its node: the
  // repair's read must treat the CRC-broken slot as failed and rewrite it.
  auto& dn = dfs.datanode(group[1]);
  const auto addresses = dn.stored_addresses();
  ASSERT_FALSE(addresses.empty());
  ASSERT_TRUE(dn.corrupt(addresses[0], 3).is_ok());
  EXPECT_FALSE(dn.get(addresses[0]).is_ok());
  ASSERT_TRUE(dfs.repair_node(group[1]).is_ok());
  EXPECT_TRUE(dn.get(addresses[0]).is_ok());
  EXPECT_TRUE(dfs.scrub().is_ok());
}

TEST(MiniDfsFaultModel, RepairAllHealsCrcCorruptReplicaOnALiveNode) {
  cluster::Topology topology;
  topology.num_nodes = 21;
  topology.num_racks = 3;
  hdfs::MiniDfs dfs(topology, 5);
  ASSERT_TRUE(
      dfs.write_file("/f", random_buffer(64 * 9, 5), "pentagon", 64).is_ok());
  ASSERT_TRUE(
      dfs.write_file("/g", random_buffer(64 * 9, 6), "pentagon", 64).is_ok());
  const cluster::StripeId f_stripe = dfs.stat("/f")->stripes[0];
  const auto f_group = dfs.catalog().stripe(f_stripe).group;
  const auto g_group = dfs.catalog().stripe(dfs.stat("/g")->stripes[0]).group;

  // Corrupt one replica of /f on a live node, and crash a node that holds
  // /g but nothing of /f: only a sweep that visits every live stripe, not
  // just the stripes of the nodes that went down, finds the bad replica.
  cluster::NodeId elsewhere = -1;
  for (cluster::NodeId node : g_group) {
    if (std::find(f_group.begin(), f_group.end(), node) == f_group.end()) {
      elsewhere = node;
      break;
    }
  }
  ASSERT_NE(elsewhere, -1);
  const cluster::SlotAddress bad{
      f_stripe, dfs.code_for("/f").value()->layout().slots_on_node(1)[0]};
  auto& dn = dfs.datanode(f_group[1]);
  ASSERT_TRUE(dn.corrupt(bad, 3).is_ok());
  ASSERT_TRUE(dfs.fail_node(elsewhere).is_ok());
  dfs.traffic().reset();
  ASSERT_TRUE(dfs.repair_all().is_ok());
  EXPECT_TRUE(dn.get(bad).is_ok());
  EXPECT_TRUE(dfs.scrub().is_ok());
  // /f's stripe is healed with one block, its twin copied to the holder; the
  // crashed node's 4 blocks of /g are copied from their twins.
  EXPECT_DOUBLE_EQ(dfs.traffic().node_received_bytes(f_group[1]), 64.0);
  EXPECT_DOUBLE_EQ(dfs.traffic().class_bytes(net::TransferClass::kRepair),
                   (1 + 4) * 64.0);
}

TEST(MiniDfsFaultModel, RepairAllHealsCorruptReplicasOnThreeNodesOfAStripe) {
  // Regression: repair_all used to fail every node holding a corrupt slot,
  // so one bad replica on each of three pentagon nodes read as three lost
  // nodes -- DATA_LOSS, though each replica has a good twin.
  cluster::Topology topology;
  topology.num_nodes = 21;
  topology.num_racks = 3;
  hdfs::MiniDfs dfs(topology, 7);
  const Buffer data = random_buffer(64 * 9, 7);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", 64).is_ok());
  const cluster::StripeId stripe = dfs.stat("/f")->stripes[0];
  const auto& layout = dfs.code_for("/f").value()->layout();
  for (const ec::NodeIndex node : {0, 2, 4}) {
    const cluster::SlotAddress bad{stripe, layout.slots_on_node(node)[0]};
    auto& holder = dfs.datanode(dfs.catalog().node_of(bad));
    ASSERT_TRUE(holder.corrupt(bad, 3).is_ok());
  }
  dfs.traffic().reset();
  const Status status = dfs.repair_all();
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_DOUBLE_EQ(dfs.traffic().class_bytes(net::TransferClass::kRepair),
                   3 * 64.0);
  EXPECT_TRUE(dfs.scrub().is_ok());
  EXPECT_EQ(*dfs.read_file("/f"), data);
}

// ----------------------------------------------------------- checkers

TEST(ChaosInvariants, CleanClusterPassesAllCheckers) {
  cluster::Topology topology;
  topology.num_nodes = 21;
  topology.num_racks = 3;
  hdfs::MiniDfs dfs(topology, 9);
  const Buffer data = random_buffer(64 * 20, 6);
  ASSERT_TRUE(dfs.write_file("/f", data, "rs-10-4", 64).is_ok());

  TruthMap truth;
  FileTruth file;
  file.expected = data;
  file.block_size = 64;
  truth["/f"] = std::move(file);

  std::vector<std::string> violations;
  check_all(dfs, truth, violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(ChaosInvariants, FingerprintTracksByteChanges) {
  cluster::Topology topology;
  topology.num_nodes = 21;
  topology.num_racks = 3;
  hdfs::MiniDfs dfs(topology, 9);
  const Buffer data = random_buffer(64 * 10, 7);
  ASSERT_TRUE(dfs.write_file("/f", data, "rs-10-4", 64).is_ok());
  const std::uint64_t before = storage_fingerprint(dfs);

  const cluster::StripeId stripe = dfs.stat("/f")->stripes[0];
  auto& dn = dfs.datanode(dfs.catalog().node_of({stripe, 0}));
  ASSERT_TRUE(dn.corrupt({stripe, 0}, 0).is_ok());
  EXPECT_NE(storage_fingerprint(dfs), before);
}

}  // namespace
}  // namespace dblrep::chaos
