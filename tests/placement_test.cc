// Placement-policy invariants (cluster/placement.h) and their end-to-end
// consequences through MiniDfs: distinct nodes per stripe (so no node ever
// holds two replicas of one block), rack spreading under rack_aware,
// locality-group pinning under group_per_rack, and the layered-repair
// cross-rack win the rack dimension exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "cluster/placement.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "ec/registry.h"
#include "hdfs/minidfs.h"

namespace dblrep::cluster {
namespace {

std::vector<NodeId> all_nodes(const Topology& topology) {
  std::vector<NodeId> live(topology.num_nodes);
  for (std::size_t n = 0; n < live.size(); ++n) {
    live[n] = static_cast<NodeId>(n);
  }
  return live;
}

std::map<int, std::size_t> rack_histogram(const Topology& topology,
                                          const std::vector<NodeId>& group) {
  std::map<int, std::size_t> hist;
  for (NodeId node : group) ++hist[topology.rack_of(node)];
  return hist;
}

TEST(Placement, PolicyNamesRoundTrip) {
  for (PlacementPolicy policy : all_placement_policies()) {
    const auto parsed = parse_placement_policy(to_string(policy));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(parse_placement_policy("antigravity").is_ok());
}

TEST(Placement, EveryPolicyPlacesDistinctNodesForEveryCode) {
  Topology topology;
  topology.num_nodes = 24;
  topology.num_racks = 3;
  const auto live = all_nodes(topology);
  Rng rng(7);
  auto specs = ec::paper_code_specs();
  specs.push_back("rs-10-4");
  for (PlacementPolicy policy : all_placement_policies()) {
    for (const auto& spec : specs) {
      const auto code = ec::make_code(spec).value();
      for (int trial = 0; trial < 5; ++trial) {
        const auto group =
            place_stripe_group(policy, topology, *code, live, rng);
        ASSERT_TRUE(group.is_ok()) << spec << " under " << to_string(policy);
        EXPECT_EQ(group->size(), code->num_nodes());
        const std::set<NodeId> distinct(group->begin(), group->end());
        EXPECT_EQ(distinct.size(), group->size())
            << spec << " under " << to_string(policy)
            << ": duplicate node in group";
      }
    }
  }
}

TEST(Placement, RackAwareSpreadsEvenlyAcrossRacks) {
  Topology topology;
  topology.num_nodes = 24;
  topology.num_racks = 3;
  const auto live = all_nodes(topology);
  Rng rng(11);
  const auto code = ec::make_code("rs-10-4").value();  // 14 nodes
  for (int trial = 0; trial < 10; ++trial) {
    const auto group = place_stripe_group(PlacementPolicy::kRackAware,
                                          topology, *code, live, rng);
    ASSERT_TRUE(group.is_ok());
    const auto hist = rack_histogram(topology, *group);
    EXPECT_EQ(hist.size(), 3u) << "group must span all racks";
    std::size_t lo = group->size(), hi = 0;
    for (const auto& [rack, count] : hist) {
      lo = std::min(lo, count);
      hi = std::max(hi, count);
    }
    EXPECT_LE(hi - lo, 1u) << "rack load must be balanced";
  }
}

TEST(Placement, GroupPerRackPinsEachLocalToItsOwnRack) {
  Topology topology;
  topology.num_nodes = 27;
  topology.num_racks = 3;
  const auto live = all_nodes(topology);
  Rng rng(13);
  const auto code = ec::make_code("heptagon-local").value();
  for (int trial = 0; trial < 10; ++trial) {
    const auto group = place_stripe_group(PlacementPolicy::kGroupPerRack,
                                          topology, *code, live, rng);
    ASSERT_TRUE(group.is_ok());
    std::set<int> local0, local1;
    for (std::size_t i = 0; i < 7; ++i) {
      local0.insert(topology.rack_of((*group)[i]));
      local1.insert(topology.rack_of((*group)[7 + i]));
    }
    const int global_rack = topology.rack_of((*group)[14]);
    EXPECT_EQ(local0.size(), 1u);
    EXPECT_EQ(local1.size(), 1u);
    EXPECT_NE(*local0.begin(), *local1.begin());
    EXPECT_NE(global_rack, *local0.begin());
    EXPECT_NE(global_rack, *local1.begin());
  }
}

TEST(Placement, GroupPerRackDegradesGracefully) {
  // 6 racks of 4 nodes cannot hold a heptagon per rack: fall back to
  // rack-aware spreading (distinct nodes, multiple racks), not an error.
  Topology topology;
  topology.num_nodes = 24;
  topology.num_racks = 6;
  Rng rng(17);
  const auto code = ec::make_code("heptagon-local").value();
  const auto group = place_stripe_group(PlacementPolicy::kGroupPerRack,
                                        topology, *code, all_nodes(topology),
                                        rng);
  ASSERT_TRUE(group.is_ok());
  EXPECT_EQ(group->size(), 15u);
  EXPECT_GT(rack_histogram(topology, *group).size(), 1u);

  // Single-rack topologies work for every policy (the paper's testbeds).
  Topology single;
  single.num_nodes = 25;
  for (PlacementPolicy policy : all_placement_policies()) {
    const auto g = place_stripe_group(policy, single, *code,
                                      all_nodes(single), rng);
    ASSERT_TRUE(g.is_ok()) << to_string(policy);
    EXPECT_EQ(std::set<NodeId>(g->begin(), g->end()).size(), 15u);
  }
}

TEST(Placement, FailsWhenLiveSetTooSmall) {
  Topology topology;
  topology.num_nodes = 25;
  Rng rng(19);
  const auto code = ec::make_code("heptagon-local").value();
  const std::vector<NodeId> live = {0, 1, 2, 3, 4};
  for (PlacementPolicy policy : all_placement_policies()) {
    const auto group = place_stripe_group(policy, topology, *code, live, rng);
    EXPECT_FALSE(group.is_ok());
    EXPECT_EQ(group.status().code(), StatusCode::kResourceExhausted);
  }
}

// ----------------------------------------------- MiniDfs end-to-end rack

hdfs::MiniDfsOptions make_options(PlacementPolicy policy, bool layered) {
  hdfs::MiniDfsOptions options;
  options.placement = policy;
  options.layered_repair = layered;
  return options;
}

TEST(MiniDfsPlacement, NoNodeHoldsTwoReplicasOfOneBlock) {
  Topology topology;
  topology.num_nodes = 24;
  topology.num_racks = 3;
  for (PlacementPolicy policy : all_placement_policies()) {
    hdfs::MiniDfs dfs(topology, 23, nullptr, make_options(policy, false));
    const Buffer data = random_buffer(256 * 18, 5);
    ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", 256).is_ok());
    const auto info = *dfs.stat("/f");
    const auto& code = *dfs.code_for("/f").value();
    for (const StripeId stripe : info.stripes) {
      for (std::size_t sym = 0; sym < code.num_symbols(); ++sym) {
        const auto replicas = dfs.catalog().replica_nodes(stripe, sym);
        const std::set<NodeId> distinct(replicas.begin(), replicas.end());
        EXPECT_EQ(distinct.size(), replicas.size())
            << to_string(policy) << ": replicas of symbol " << sym
            << " share a node";
      }
    }
  }
}

TEST(MiniDfsPlacement, LayeredRepairMatchesUnlayeredBytesWithFewerCrossRack) {
  // Same seed and policy, layered on vs off: repaired datanode contents
  // must be byte-identical, totals equal, and the layered run must move
  // fewer (never more) bytes across racks.
  Topology topology;
  topology.num_nodes = 24;
  topology.num_racks = 3;
  const Buffer data = random_buffer(512 * 10, 6);

  auto run_repair = [&](bool layered, double* cross, double* total,
                        std::map<std::pair<NodeId, SlotAddress>, SharedBlock>*
                            contents) -> void {
    hdfs::MiniDfs dfs(topology, 31, nullptr,
                      make_options(PlacementPolicy::kFlat, layered));
    ASSERT_TRUE(dfs.write_file("/f", data, "rs-10-4", 512).is_ok());
    const auto info = *dfs.stat("/f");
    const auto group = dfs.catalog().stripe(info.stripes.front()).group;
    ASSERT_TRUE(dfs.fail_node(group[0]).is_ok());
    dfs.traffic().reset();
    ASSERT_TRUE(dfs.repair_all().is_ok());
    *cross = dfs.traffic().cross_rack_bytes();
    *total = dfs.traffic().total_bytes();
    for (std::size_t n = 0; n < topology.num_nodes; ++n) {
      auto& dn = dfs.datanode(static_cast<NodeId>(n));
      for (const auto& address : dn.stored_addresses()) {
        (*contents)[{static_cast<NodeId>(n), address}] = *dn.get(address);
      }
    }
    EXPECT_EQ(*dfs.read_file("/f"), data);
  };

  double plain_cross = 0, plain_total = 0, layered_cross = 0,
         layered_total = 0;
  std::map<std::pair<NodeId, SlotAddress>, SharedBlock> plain_contents,
      layered_contents;
  run_repair(false, &plain_cross, &plain_total, &plain_contents);
  run_repair(true, &layered_cross, &layered_total, &layered_contents);

  EXPECT_EQ(plain_contents, layered_contents);
  EXPECT_DOUBLE_EQ(plain_total, layered_total);
  EXPECT_LE(layered_cross, plain_cross);
  // rs-10-4 pulls 10 helpers; under flat placement over 3 racks some rack
  // always contributes >= 2 of them, so layering strictly wins here.
  EXPECT_LT(layered_cross, plain_cross);
  EXPECT_GT(plain_cross, 0.0);
}

TEST(MiniDfsPlacement, GroupPerRackLocalRepairBeatsFlatOnCrossRackBytes) {
  // The acceptance scenario: heptagon-local under group_per_rack + layered
  // repair vs rack-blind flat placement, one failed local node, 3 racks.
  Topology topology;
  topology.num_nodes = 27;
  topology.num_racks = 3;
  const Buffer data = random_buffer(256 * 40, 7);

  auto repair_cross_bytes = [&](PlacementPolicy policy,
                                bool layered) -> double {
    hdfs::MiniDfs dfs(topology, 37, nullptr, make_options(policy, layered));
    EXPECT_TRUE(
        dfs.write_file("/f", data, "heptagon-local", 256).is_ok());
    const auto info = *dfs.stat("/f");
    const auto group = dfs.catalog().stripe(info.stripes.front()).group;
    EXPECT_TRUE(dfs.fail_node(group[2]).is_ok());
    dfs.traffic().reset();
    EXPECT_TRUE(dfs.repair_all().is_ok());
    EXPECT_EQ(*dfs.read_file("/f"), data);
    return dfs.traffic().cross_rack_bytes();
  };

  const double flat = repair_cross_bytes(PlacementPolicy::kFlat, false);
  const double layered_gpr =
      repair_cross_bytes(PlacementPolicy::kGroupPerRack, true);
  // A local node's repair stays entirely inside its rack when the local
  // lives in one rack; flat placement scatters the heptagon across racks.
  EXPECT_GT(flat, 0.0);
  EXPECT_DOUBLE_EQ(layered_gpr, 0.0);
}

TEST(MiniDfsPlacement, LayeredDegradedReadDeliversSameBytes) {
  Topology topology;
  topology.num_nodes = 24;
  topology.num_racks = 3;
  const Buffer data = random_buffer(256 * 9, 8);
  SharedBlock plain_block, layered_block;
  double plain_client = 0, layered_client = 0;
  for (const bool layered : {false, true}) {
    hdfs::MiniDfs dfs(topology, 41, nullptr,
                      make_options(PlacementPolicy::kFlat, layered));
    ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", 256).is_ok());
    const auto info = *dfs.stat("/f");
    const auto& code = *dfs.code_for("/f").value();
    for (std::size_t slot : code.layout().slots_of_symbol(0)) {
      ASSERT_TRUE(
          dfs.fail_node(dfs.catalog().node_of({info.stripes[0], slot}))
              .is_ok());
    }
    dfs.traffic().reset();
    auto block = dfs.read_block("/f", 0);
    ASSERT_TRUE(block.is_ok());
    (layered ? layered_block : plain_block) = std::move(*block);
    (layered ? layered_client : plain_client) = dfs.traffic().client_bytes();
  }
  EXPECT_EQ(plain_block, layered_block);
  // Per-rack aggregation may only shrink what reaches the client.
  EXPECT_LE(layered_client, plain_client);
}

}  // namespace
}  // namespace dblrep::cluster
