// Integration tests for the mini-HDFS data plane: write/read round trips
// under every code, corruption fallback, failure + degraded reads with the
// paper's exact repair-bandwidth numbers measured on the wire, node repair,
// scrub, the RaidNode re-encoder, and one DataNode under concurrent access.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"
#include "hdfs/minidfs.h"
#include "ec/local_polygon.h"
#include "ec/registry.h"
#include "hdfs/raidnode.h"

namespace dblrep::hdfs {
namespace {

constexpr std::size_t kBlockSize = 64;

MiniDfs make_dfs(std::size_t nodes = 25, std::uint64_t seed = 7) {
  cluster::Topology topology;
  topology.num_nodes = nodes;
  return MiniDfs(topology, seed);
}

Buffer payload(std::size_t size, std::uint64_t seed = 1) {
  return random_buffer(size, seed);
}

// ---------------------------------------------------------- write/read

class DfsRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DfsRoundTripTest, WholeFileRoundTripsAcrossStripes) {
  MiniDfs dfs = make_dfs();
  // 2.5 stripes worth of data exercises striping and tail padding.
  const auto code_spec = GetParam();
  const Buffer data = payload(kBlockSize * 22);
  ASSERT_TRUE(dfs.write_file("/f", data, code_spec, kBlockSize).is_ok());
  const auto read = dfs.read_file("/f");
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  EXPECT_EQ(*read, data);
}

TEST_P(DfsRoundTripTest, SurvivesToleratedFailuresWithoutRepair) {
  MiniDfs dfs = make_dfs();
  const auto code_spec = GetParam();
  const Buffer data = payload(kBlockSize * 30, 2);
  ASSERT_TRUE(dfs.write_file("/f", data, code_spec, kBlockSize).is_ok());
  // Fail two nodes (every paper code tolerates 2).
  ASSERT_TRUE(dfs.fail_node(3).is_ok());
  ASSERT_TRUE(dfs.fail_node(11).is_ok());
  const auto read = dfs.read_file("/f");
  ASSERT_TRUE(read.is_ok()) << read.status().to_string();
  EXPECT_EQ(*read, data);
}

TEST_P(DfsRoundTripTest, RepairAllRestoresFullRedundancy) {
  MiniDfs dfs = make_dfs();
  const auto code_spec = GetParam();
  const Buffer data = payload(kBlockSize * 30, 3);
  ASSERT_TRUE(dfs.write_file("/f", data, code_spec, kBlockSize).is_ok());
  const std::size_t bytes_healthy = dfs.stored_bytes();
  ASSERT_TRUE(dfs.fail_node(5).is_ok());
  ASSERT_TRUE(dfs.fail_node(17).is_ok());
  ASSERT_TRUE(dfs.repair_all().is_ok());
  EXPECT_EQ(dfs.stored_bytes(), bytes_healthy);
  EXPECT_TRUE(dfs.scrub().is_ok());
  const auto read = dfs.read_file("/f");
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, data);
}

INSTANTIATE_TEST_SUITE_P(PaperCodes, DfsRoundTripTest,
                         ::testing::Values("2-rep", "3-rep", "pentagon",
                                           "heptagon", "heptagon-local",
                                           "raidm-9", "rs-10-4"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------- basic API

TEST(MiniDfs, StatListsAndDeletes) {
  MiniDfs dfs = make_dfs();
  ASSERT_TRUE(dfs.write_file("/a", payload(100), "pentagon", kBlockSize).is_ok());
  ASSERT_TRUE(dfs.write_file("/b", payload(100), "3-rep", kBlockSize).is_ok());
  EXPECT_EQ(dfs.list_files().size(), 2u);
  const auto info = dfs.stat("/a");
  ASSERT_TRUE(info.is_ok());
  EXPECT_EQ(info->code_spec, "pentagon");
  EXPECT_EQ(info->length, 100u);
  EXPECT_EQ(info->stripes.size(), 1u);
  ASSERT_TRUE(dfs.delete_file("/a").is_ok());
  EXPECT_EQ(dfs.list_files().size(), 1u);
  EXPECT_FALSE(dfs.stat("/a").is_ok());
  EXPECT_FALSE(dfs.delete_file("/a").is_ok());
}

TEST(MiniDfs, DuplicateCreateAndUnknownCodeRejected) {
  MiniDfs dfs = make_dfs();
  ASSERT_TRUE(dfs.write_file("/a", payload(10), "2-rep", kBlockSize).is_ok());
  EXPECT_EQ(dfs.write_file("/a", payload(10), "2-rep", kBlockSize).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(dfs.write_file("/c", payload(10), "nonagon", kBlockSize).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dfs.write_file("/d", payload(10), "2-rep", 0).code(),
            StatusCode::kInvalidArgument);
}

TEST(MiniDfs, WriteNeedsEnoughLiveNodes) {
  MiniDfs dfs = make_dfs(6);  // heptagon needs 7 nodes
  EXPECT_EQ(dfs.write_file("/f", payload(10), "heptagon", kBlockSize).code(),
            StatusCode::kResourceExhausted);
  // pentagon fits on 6 nodes, but not after two failures.
  ASSERT_TRUE(dfs.fail_node(0).is_ok());
  ASSERT_TRUE(dfs.fail_node(1).is_ok());
  EXPECT_EQ(dfs.write_file("/f", payload(10), "pentagon", kBlockSize).code(),
            StatusCode::kResourceExhausted);
}

TEST(MiniDfs, StorageOverheadMatchesTable1) {
  // 9 data blocks in a pentagon file occupy exactly 20 blocks: 2.22x.
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 4);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  EXPECT_EQ(dfs.stored_bytes(), 20 * kBlockSize);
  ASSERT_TRUE(dfs.delete_file("/f").is_ok());
  EXPECT_EQ(dfs.stored_bytes(), 0u);
}

TEST(MiniDfs, ReadBlockOutOfRange) {
  MiniDfs dfs = make_dfs();
  ASSERT_TRUE(dfs.write_file("/f", payload(kBlockSize * 2), "2-rep",
                             kBlockSize).is_ok());
  EXPECT_TRUE(dfs.read_block("/f", 1).is_ok());
  EXPECT_FALSE(dfs.read_block("/f", 2).is_ok());
  EXPECT_FALSE(dfs.read_block("/missing", 0).is_ok());
}

// ------------------------------------------------------ corruption path

TEST(MiniDfs, CorruptReplicaFallsBackToHealthyCopy) {
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 5);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  // Corrupt the first replica of data block 0.
  const auto info = *dfs.stat("/f");
  const auto stripe = info.stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  const std::size_t slot0 = code.layout().slots_of_symbol(0)[0];
  const cluster::NodeId holder = dfs.catalog().node_of({stripe, slot0});
  ASSERT_TRUE(dfs.datanode(holder).corrupt({stripe, slot0}, 3).is_ok());
  // Scrub must notice; the read must silently use the second replica.
  EXPECT_FALSE(dfs.scrub().is_ok());
  const auto block = dfs.read_block("/f", 0);
  ASSERT_TRUE(block.is_ok());
  EXPECT_TRUE(std::equal(block->begin(), block->end(), data.begin()));
}

TEST(MiniDfs, BothReplicasCorruptTriggersDegradedRead) {
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 6);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto stripe = info.stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  for (std::size_t slot : code.layout().slots_of_symbol(0)) {
    const cluster::NodeId holder = dfs.catalog().node_of({stripe, slot});
    ASSERT_TRUE(dfs.datanode(holder).corrupt({stripe, slot}, 0).is_ok());
  }
  // A holder whose replica read fails counts as failed for the degraded
  // read (not just down nodes), so a block whose replicas are all
  // CRC-broken on *live* nodes is still served by on-the-fly decode from
  // the rest of the stripe -- and never returns bad bytes.
  const auto block = dfs.read_block("/f", 0);
  ASSERT_TRUE(block.is_ok()) << block.status().to_string();
  EXPECT_TRUE(std::equal(block->begin(), block->end(), data.begin()));
}

TEST(MiniDfs, ScrubRepairHealsCorruptReplicas) {
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 30);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto stripe = info.stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  // Corrupt one replica of block 0 and one replica of the parity.
  const std::size_t data_slot = code.layout().slots_of_symbol(0)[0];
  const std::size_t parity_slot = code.layout().slots_of_symbol(9)[1];
  for (std::size_t slot : {data_slot, parity_slot}) {
    const cluster::NodeId holder = dfs.catalog().node_of({stripe, slot});
    ASSERT_TRUE(dfs.datanode(holder).corrupt({stripe, slot}, 1).is_ok());
  }
  EXPECT_FALSE(dfs.scrub().is_ok());
  dfs.traffic().reset();
  dfs.traffic().set_capture(true);
  const auto healed = dfs.scrub_repair();
  ASSERT_TRUE(healed.is_ok()) << healed.status().to_string();
  EXPECT_EQ(*healed, 2u);
  // Each bad replica is copied from its twin: one block of kScrub per heal,
  // sent from the twin's node to the holder, and nothing from a client.
  std::multiset<std::pair<cluster::NodeId, cluster::NodeId>> expected;
  for (const auto& [slot, twin] :
       {std::pair{data_slot, code.layout().slots_of_symbol(0)[1]},
        std::pair{parity_slot, code.layout().slots_of_symbol(9)[0]}}) {
    expected.emplace(dfs.catalog().node_of({stripe, twin}),
                     dfs.catalog().node_of({stripe, slot}));
  }
  std::multiset<std::pair<cluster::NodeId, cluster::NodeId>> sends;
  for (const auto& record : dfs.traffic().drain()) {
    EXPECT_EQ(record.cls, net::TransferClass::kScrub);
    EXPECT_DOUBLE_EQ(record.bytes, static_cast<double>(kBlockSize));
    sends.emplace(record.from, record.to);
  }
  EXPECT_EQ(sends, expected);
  EXPECT_DOUBLE_EQ(dfs.traffic().class_bytes(net::TransferClass::kScrub),
                   2.0 * kBlockSize);
  EXPECT_DOUBLE_EQ(dfs.traffic().client_bytes(), 0.0);
  EXPECT_TRUE(dfs.scrub().is_ok());
  EXPECT_EQ(*dfs.read_file("/f"), data);

  // A code without replicas heals a slot by decoding it: rs-10-4 reads
  // k = 10 blocks for one corrupt slot.
  const Buffer rs_data = payload(kBlockSize * 10, 34);
  ASSERT_TRUE(dfs.write_file("/rs", rs_data, "rs-10-4", kBlockSize).is_ok());
  const auto rs_stripe = dfs.stat("/rs")->stripes[0];
  const cluster::NodeId rs_holder = dfs.catalog().node_of({rs_stripe, 3});
  ASSERT_TRUE(dfs.datanode(rs_holder).corrupt({rs_stripe, 3}, 1).is_ok());
  dfs.traffic().set_capture(false);
  dfs.traffic().reset();
  const auto rs_healed = dfs.scrub_repair();
  ASSERT_TRUE(rs_healed.is_ok()) << rs_healed.status().to_string();
  EXPECT_EQ(*rs_healed, 1u);
  EXPECT_DOUBLE_EQ(dfs.traffic().class_bytes(net::TransferClass::kScrub),
                   10.0 * kBlockSize);
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 10.0 * kBlockSize);
  EXPECT_TRUE(dfs.scrub().is_ok());
  EXPECT_EQ(*dfs.read_file("/rs"), rs_data);
}

TEST(MiniDfs, ScrubRepairHealsEvenWithBothReplicasOfABlockCorrupt) {
  // scrub_repair plans over whatever verifies, so it durably rewrites a
  // block whose two replicas are both CRC-broken on live nodes (reads of
  // the block already succeed beforehand via degraded reads that count the
  // failed holders as failed, but only the scrub restores the replicas on
  // disk).
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 31);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto stripe = info.stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  for (std::size_t slot : code.layout().slots_of_symbol(4)) {
    const cluster::NodeId holder = dfs.catalog().node_of({stripe, slot});
    ASSERT_TRUE(dfs.datanode(holder).corrupt({stripe, slot}, 2).is_ok());
  }
  EXPECT_TRUE(dfs.read_block("/f", 4).is_ok());
  const auto healed = dfs.scrub_repair();
  ASSERT_TRUE(healed.is_ok());
  EXPECT_EQ(*healed, 2u);
  const auto block = dfs.read_block("/f", 4);
  ASSERT_TRUE(block.is_ok());
  EXPECT_TRUE(std::equal(block->begin(), block->end(),
                         data.begin() + 4 * kBlockSize));
}

TEST(MiniDfs, WriteStoresOneBlockInBothReplicaSlotsOfEachSymbol) {
  // A write copies each symbol once and stores that block in both of its
  // replica slots. Corrupting one replica replaces only that slot's block,
  // so its twin still verifies, the read returns the data, and
  // scrub_repair rewrites the bad replica.
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 18, 33);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto& code = *dfs.code_for("/f").value();
  auto holder = [&](cluster::StripeId stripe, std::size_t slot) -> DataNode& {
    return dfs.datanode(dfs.catalog().node_of({stripe, slot}));
  };
  for (const cluster::StripeId stripe : info.stripes) {
    for (std::size_t sym = 0; sym < code.num_symbols(); ++sym) {
      const auto& slots = code.layout().slots_of_symbol(sym);
      ASSERT_EQ(slots.size(), 2u);
      const auto first = holder(stripe, slots[0]).peek({stripe, slots[0]});
      const auto second = holder(stripe, slots[1]).peek({stripe, slots[1]});
      ASSERT_TRUE(first.is_ok() && second.is_ok());
      EXPECT_EQ(first->data(), second->data())
          << "stripe " << stripe << " symbol " << sym;
    }
  }

  // Data block 2 of the second stripe is block 11 of the file.
  const cluster::StripeId stripe = info.stripes[1];
  const auto& twins = code.layout().slots_of_symbol(2);
  const Buffer expected(data.begin() + 11 * kBlockSize,
                        data.begin() + 12 * kBlockSize);
  DataNode& bad = holder(stripe, twins[0]);
  ASSERT_TRUE(bad.corrupt({stripe, twins[0]}, 5).is_ok());
  EXPECT_EQ(bad.get({stripe, twins[0]}).status().code(),
            StatusCode::kCorruption);
  const auto twin = holder(stripe, twins[1]).get({stripe, twins[1]});
  ASSERT_TRUE(twin.is_ok()) << twin.status().to_string();
  EXPECT_EQ(*twin, expected);
  const auto block = dfs.read_block("/f", 11);
  ASSERT_TRUE(block.is_ok()) << block.status().to_string();
  EXPECT_EQ(*block, expected);

  const auto healed = dfs.scrub_repair();
  ASSERT_TRUE(healed.is_ok()) << healed.status().to_string();
  EXPECT_EQ(*healed, 1u);
  EXPECT_TRUE(dfs.scrub().is_ok());
  const auto rewritten = bad.get({stripe, twins[0]});
  ASSERT_TRUE(rewritten.is_ok()) << rewritten.status().to_string();
  EXPECT_EQ(*rewritten, expected);
}

TEST(MiniDfs, ScrubRepairIsNoopWhenHealthy) {
  MiniDfs dfs = make_dfs();
  ASSERT_TRUE(dfs.write_file("/f", payload(kBlockSize * 9, 32), "heptagon",
                             kBlockSize).is_ok());
  const auto healed = dfs.scrub_repair();
  ASSERT_TRUE(healed.is_ok());
  EXPECT_EQ(*healed, 0u);
}

// ------------------------------------------- degraded reads on the wire

TEST(MiniDfs, PentagonDegradedReadMovesExactlyThreeBlocks) {
  // Section 3.1 measured on the simulated wire: with both holders of a
  // block down, the client read costs 3 block transfers.
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 7);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto stripe = info.stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  // Down both holders of block 0.
  for (std::size_t slot : code.layout().slots_of_symbol(0)) {
    ASSERT_TRUE(dfs.fail_node(dfs.catalog().node_of({stripe, slot})).is_ok());
  }
  dfs.traffic().reset();
  const auto block = dfs.read_block("/f", 0);
  ASSERT_TRUE(block.is_ok());
  EXPECT_TRUE(std::equal(block->begin(), block->end(), data.begin()));
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 3.0 * kBlockSize);
}

TEST(MiniDfs, RaidMirrorDegradedReadMovesNineBlocks) {
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 8);
  ASSERT_TRUE(dfs.write_file("/f", data, "raidm-9", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto stripe = info.stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  for (std::size_t slot : code.layout().slots_of_symbol(0)) {
    ASSERT_TRUE(dfs.fail_node(dfs.catalog().node_of({stripe, slot})).is_ok());
  }
  dfs.traffic().reset();
  const auto block = dfs.read_block("/f", 0);
  ASSERT_TRUE(block.is_ok());
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 9.0 * kBlockSize);
}

TEST(MiniDfs, DegradedReadIgnoresCorruptionOutsideItsPlan) {
  // Both replicas of block 0 are lost and one more slot is CRC-broken on a
  // live node the plan never reads: the read needs only the plan's 9
  // slots, so the bad slot cannot push the failed set past pentagon's
  // tolerance of 2.
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 14);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const cluster::StripeId stripe = dfs.stat("/f")->stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  std::set<ec::NodeIndex> failed;
  for (std::size_t slot : code.layout().slots_of_symbol(0)) {
    failed.insert(code.layout().node_of_slot(slot));
    ASSERT_TRUE(dfs.fail_node(dfs.catalog().node_of({stripe, slot})).is_ok());
  }
  const auto plan = code.plan_degraded_block(0, failed);
  ASSERT_TRUE(plan.is_ok());
  const auto sources = plan->source_slots();
  std::size_t outside = code.layout().num_slots();
  for (std::size_t slot = 0; slot < code.layout().num_slots(); ++slot) {
    if (!failed.contains(code.layout().node_of_slot(slot)) &&
        !std::binary_search(sources.begin(), sources.end(), slot)) {
      outside = slot;
      break;
    }
  }
  ASSERT_LT(outside, code.layout().num_slots());
  ASSERT_TRUE(dfs.datanode(dfs.catalog().node_of({stripe, outside}))
                  .corrupt({stripe, outside}, 0)
                  .is_ok());
  dfs.traffic().reset();
  const auto block = dfs.read_block("/f", 0);
  ASSERT_TRUE(block.is_ok()) << block.status().to_string();
  EXPECT_TRUE(std::equal(block->begin(), block->end(), data.begin()));
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 3.0 * kBlockSize);
}

TEST(MiniDfs, DegradedReadReplansAroundACorruptSource) {
  // rs-10-4: block 0's only holder is down and one slot the first plan
  // reads is CRC-broken. The read re-plans without that node and charges
  // exactly the plan it executed.
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 10, 15);
  ASSERT_TRUE(dfs.write_file("/f", data, "rs-10-4", kBlockSize).is_ok());
  const cluster::StripeId stripe = dfs.stat("/f")->stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  const std::size_t lost = code.layout().slots_of_symbol(0)[0];
  const ec::NodeIndex down = code.layout().node_of_slot(lost);
  ASSERT_TRUE(dfs.fail_node(dfs.catalog().node_of({stripe, lost})).is_ok());
  const auto first = code.plan_degraded_block(0, {down});
  ASSERT_TRUE(first.is_ok());
  const std::size_t bad = first->source_slots().front();
  const ec::NodeIndex corrupt = code.layout().node_of_slot(bad);
  ASSERT_TRUE(dfs.datanode(dfs.catalog().node_of({stripe, bad}))
                  .corrupt({stripe, bad}, 0)
                  .is_ok());
  const auto executed = code.plan_degraded_block(0, {down, corrupt});
  ASSERT_TRUE(executed.is_ok());
  dfs.traffic().reset();
  const auto block = dfs.read_block("/f", 0);
  ASSERT_TRUE(block.is_ok()) << block.status().to_string();
  EXPECT_TRUE(std::equal(block->begin(), block->end(), data.begin()));
  EXPECT_DOUBLE_EQ(
      dfs.traffic().total_bytes(),
      static_cast<double>(executed->network_bytes(kBlockSize, 1)));
}

TEST(MiniDfs, CachedDegradedPlanReplansAroundANewCorruptSource) {
  // heptagon-local: both holders of block 0 are down, so the first read
  // plans a degraded read and caches the plan. A slot that plan reads is
  // then CRC-broken: the second read starts from the cached plan, fails
  // that source, and plans again without its node. (Pentagon cannot host
  // this: a third failed node leaves a doubly-lost pentagon block
  // unrecoverable.)
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 40, 16);
  ASSERT_TRUE(
      dfs.write_file("/f", data, "heptagon-local", kBlockSize).is_ok());
  const cluster::StripeId stripe = dfs.stat("/f")->stripes[0];
  const auto& code = *dfs.code_for("/f").value();
  std::set<ec::NodeIndex> failed;
  for (std::size_t slot : code.layout().slots_of_symbol(0)) {
    failed.insert(code.layout().node_of_slot(slot));
    ASSERT_TRUE(dfs.fail_node(dfs.catalog().node_of({stripe, slot})).is_ok());
  }
  const auto first = code.plan_degraded_block(0, failed);
  ASSERT_TRUE(first.is_ok());
  dfs.traffic().reset();
  auto block = dfs.read_block("/f", 0);
  ASSERT_TRUE(block.is_ok()) << block.status().to_string();
  EXPECT_TRUE(std::equal(block->begin(), block->end(), data.begin()));
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(),
                   static_cast<double>(first->network_bytes(kBlockSize, 1)));

  const std::size_t bad = first->source_slots().front();
  failed.insert(code.layout().node_of_slot(bad));
  ASSERT_TRUE(dfs.datanode(dfs.catalog().node_of({stripe, bad}))
                  .corrupt({stripe, bad}, 0)
                  .is_ok());
  const auto second = code.plan_degraded_block(0, failed);
  ASSERT_TRUE(second.is_ok());
  dfs.traffic().reset();
  block = dfs.read_block("/f", 0);
  ASSERT_TRUE(block.is_ok()) << block.status().to_string();
  EXPECT_TRUE(std::equal(block->begin(), block->end(), data.begin()));
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(),
                   static_cast<double>(second->network_bytes(kBlockSize, 1)));
}

TEST(MiniDfs, HealthyReadTouchesNoInterNodeLinks) {
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 9);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  dfs.traffic().reset();
  ASSERT_TRUE(dfs.read_file("/f").is_ok());
  // All bytes go node -> client: exactly 9 blocks, one per data block.
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 9.0 * kBlockSize);
}

// -------------------------------------------------------- node repair

TEST(MiniDfs, SingleNodeRepairUsesRepairByTransferBandwidth) {
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 10);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto stripe = info.stripes[0];
  const cluster::NodeId victim = dfs.catalog().stripe(stripe).group[0];
  ASSERT_TRUE(dfs.fail_node(victim).is_ok());
  dfs.traffic().reset();
  ASSERT_TRUE(dfs.repair_node(victim).is_ok());
  // Repair-by-transfer: the node's 4 blocks are plain-copied -> exactly 4
  // block transfers, no decode anywhere.
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 4.0 * kBlockSize);
  EXPECT_TRUE(dfs.scrub().is_ok());
}

TEST(MiniDfs, DoubleNodeRepairCostsTenBlocksOnTheWire) {
  // Section 2.1 end-to-end: repairing both lost nodes of one pentagon
  // stripe moves exactly 10 blocks.
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 11);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto group = dfs.catalog().stripe(info.stripes[0]).group;
  ASSERT_TRUE(dfs.fail_node(group[0]).is_ok());
  ASSERT_TRUE(dfs.fail_node(group[1]).is_ok());
  dfs.traffic().reset();
  ASSERT_TRUE(dfs.repair_all().is_ok());
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 10.0 * kBlockSize);
  EXPECT_TRUE(dfs.scrub().is_ok());
  EXPECT_EQ(*dfs.read_file("/f"), data);
}

TEST(MiniDfs, RepairBeyondToleranceReportsDataLoss) {
  MiniDfs dfs = make_dfs();
  const Buffer data = payload(kBlockSize * 9, 12);
  ASSERT_TRUE(dfs.write_file("/f", data, "pentagon", kBlockSize).is_ok());
  const auto group = dfs.catalog().stripe(dfs.stat("/f")->stripes[0]).group;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(dfs.fail_node(group[i]).is_ok());
  const auto status = dfs.repair_all();
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST(MiniDfs, RepairIsNoopOnHealthyCluster) {
  MiniDfs dfs = make_dfs();
  ASSERT_TRUE(dfs.write_file("/f", payload(kBlockSize * 9, 13), "pentagon",
                             kBlockSize).is_ok());
  dfs.traffic().reset();
  ASSERT_TRUE(dfs.repair_all().is_ok());
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 0.0);
}

TEST(MiniDfs, RepairOfAnIntactNodeMovesNothing) {
  // Regression: repair_node on an intact node used to plan, execute and
  // charge repair traffic for stripes whose only holes sit on a node that
  // is still down -- rebuilt bytes it then stored nowhere.
  cluster::Topology topology;
  topology.num_nodes = 12;
  topology.num_racks = 3;
  MiniDfs dfs(topology, 7);
  ASSERT_TRUE(dfs.write_file("/f", payload(kBlockSize * 9, 22), "pentagon",
                             kBlockSize).is_ok());
  const auto group = dfs.catalog().stripe(dfs.stat("/f")->stripes[0]).group;
  ASSERT_TRUE(dfs.fail_node(group[1]).is_ok());
  const std::size_t stored = dfs.stored_bytes();
  dfs.traffic().reset();
  ASSERT_TRUE(dfs.repair_node(group[0]).is_ok());
  EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), 0.0);
  EXPECT_EQ(dfs.stored_bytes(), stored);
}

TEST(MiniDfs, RepairNodeMovesNothingToAStillDownNode) {
  // Regression: repair_node(X) used to plan as if every down node of the
  // stripe were being rebuilt too, charging sends to and from a node that
  // was still down. Now it rebuilds only X's slots, with the other down
  // node as a failed helper; that node's own repair follows. Blocks per
  // repair (sub-chunk codes in whole blocks): first X = code node 1, then
  // code node 0.
  struct Case {
    const char* spec;
    double first_blocks;
    double second_blocks;
  };
  for (const Case& c : {Case{"pentagon", 6, 4}, Case{"heptagon", 10, 6},
                        Case{"heptagon-local", 10, 6}, Case{"rs-10-4", 10, 10},
                        Case{"raidm-9", 9, 1}, Case{"clay-6-4", 4, 2.5},
                        Case{"pgy-10-4", 10, 7}}) {
    SCOPED_TRACE(c.spec);
    MiniDfs dfs = make_dfs();
    const std::size_t k = ec::make_code(c.spec).value()->data_blocks();
    const Buffer data = payload(kBlockSize * k, 23);
    ASSERT_TRUE(dfs.write_file("/f", data, c.spec, kBlockSize).is_ok());
    ASSERT_EQ(dfs.stat("/f")->stripes.size(), 1u);
    const auto group = dfs.catalog().stripe(dfs.stat("/f")->stripes[0]).group;
    ASSERT_TRUE(dfs.fail_node(group[0]).is_ok());
    ASSERT_TRUE(dfs.fail_node(group[1]).is_ok());
    dfs.traffic().reset();
    ASSERT_TRUE(dfs.repair_node(group[1]).is_ok());
    EXPECT_DOUBLE_EQ(dfs.traffic().node_sent_bytes(group[0]), 0.0);
    EXPECT_DOUBLE_EQ(dfs.traffic().node_received_bytes(group[0]), 0.0);
    EXPECT_DOUBLE_EQ(dfs.traffic().class_bytes(net::TransferClass::kRepair),
                     c.first_blocks * kBlockSize);
    EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(), c.first_blocks * kBlockSize);
    dfs.traffic().reset();
    ASSERT_TRUE(dfs.repair_node(group[0]).is_ok());
    EXPECT_DOUBLE_EQ(dfs.traffic().total_bytes(),
                     c.second_blocks * kBlockSize);
    EXPECT_EQ(*dfs.read_file("/f"), data);
    EXPECT_TRUE(dfs.scrub().is_ok());
  }
}

TEST(MiniDfs, RepairIgnoresDeletedFiles) {
  // Regression: deleting a file must tombstone its stripes, or a later
  // node repair tries to "rebuild" blocks that were intentionally removed
  // and reports phantom data loss.
  MiniDfs dfs = make_dfs();
  ASSERT_TRUE(dfs.write_file("/old", payload(kBlockSize * 18, 20), "3-rep",
                             kBlockSize).is_ok());
  ASSERT_TRUE(dfs.write_file("/keep", payload(kBlockSize * 9, 21), "pentagon",
                             kBlockSize).is_ok());
  ASSERT_TRUE(dfs.delete_file("/old").is_ok());
  ASSERT_TRUE(dfs.fail_node(4).is_ok());
  ASSERT_TRUE(dfs.fail_node(16).is_ok());
  EXPECT_TRUE(dfs.repair_all().is_ok());
  EXPECT_TRUE(dfs.scrub().is_ok());
}

TEST(MiniDfs, HeptagonLocalPlacementIsRackAwareWhenPossible) {
  // Section 2.2: the two heptagons and the global parity node land on
  // three different racks when the topology provides them.
  cluster::Topology topology;
  topology.num_nodes = 24;
  topology.num_racks = 3;
  MiniDfs dfs(topology, 9);
  ASSERT_TRUE(dfs.write_file("/f", payload(kBlockSize * 40, 40),
                             "heptagon-local", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto& stripe = dfs.catalog().stripe(info.stripes[0]);
  const auto* code =
      dynamic_cast<const ec::LocalPolygonCode*>(stripe.code);
  ASSERT_NE(code, nullptr);
  std::set<int> local0_racks, local1_racks;
  for (std::size_t i = 0; i < 7; ++i) {
    local0_racks.insert(topology.rack_of(stripe.group[i]));
    local1_racks.insert(topology.rack_of(stripe.group[7 + i]));
  }
  const int global_rack = topology.rack_of(stripe.group[14]);
  EXPECT_EQ(local0_racks.size(), 1u);
  EXPECT_EQ(local1_racks.size(), 1u);
  EXPECT_NE(*local0_racks.begin(), *local1_racks.begin());
  EXPECT_NE(global_rack, *local0_racks.begin());
  EXPECT_NE(global_rack, *local1_racks.begin());
  // The data plane still round-trips and repairs under this placement.
  EXPECT_EQ(*dfs.read_file("/f"), payload(kBlockSize * 40, 40));
  ASSERT_TRUE(dfs.fail_node(stripe.group[2]).is_ok());
  ASSERT_TRUE(dfs.repair_all().is_ok());
  EXPECT_TRUE(dfs.scrub().is_ok());
}

TEST(MiniDfs, HeptagonLocalFallsBackToUniformOnSingleRack) {
  MiniDfs dfs = make_dfs();  // 25 nodes, 1 rack
  ASSERT_TRUE(dfs.write_file("/f", payload(kBlockSize * 40, 41),
                             "heptagon-local", kBlockSize).is_ok());
  EXPECT_EQ(*dfs.read_file("/f"), payload(kBlockSize * 40, 41));
}

TEST(MiniDfs, RackLocalRepairKeepsCrossRackTrafficAtZero) {
  // The locality benefit of the local code: repairing <=2 failures inside
  // one heptagon never crosses racks.
  cluster::Topology topology;
  topology.num_nodes = 24;
  topology.num_racks = 3;
  MiniDfs dfs(topology, 10);
  const Buffer data = payload(kBlockSize * 40, 42);
  ASSERT_TRUE(
      dfs.write_file("/f", data, "heptagon-local", kBlockSize).is_ok());
  const auto info = *dfs.stat("/f");
  const auto& stripe = dfs.catalog().stripe(info.stripes[0]);
  ASSERT_TRUE(dfs.fail_node(stripe.group[1]).is_ok());
  ASSERT_TRUE(dfs.fail_node(stripe.group[4]).is_ok());
  dfs.traffic().reset();
  ASSERT_TRUE(dfs.repair_all().is_ok());
  EXPECT_GT(dfs.traffic().total_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(dfs.traffic().cross_rack_bytes(), 0.0);
  EXPECT_EQ(*dfs.read_file("/f"), data);
}

// ------------------------------------------------------------ RaidNode

TEST(RaidNode, ConvertsThreeRepToPentagonAndReclaimsSpace) {
  MiniDfs dfs = make_dfs();
  RaidNode raid(dfs);
  const Buffer data = payload(kBlockSize * 18, 14);  // 2 pentagon stripes
  ASSERT_TRUE(dfs.write_file("/warm", data, "3-rep", kBlockSize).is_ok());
  const std::size_t before = dfs.stored_bytes();
  EXPECT_EQ(before, 3 * 18 * kBlockSize);

  const auto report = raid.raid_file("/warm", "pentagon");
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report->stripes_written, 2u);
  EXPECT_EQ(dfs.stored_bytes(), 2 * 20 * kBlockSize);  // 2.22x < 3x
  EXPECT_LT(dfs.stored_bytes(), before);

  const auto read = dfs.read_file("/warm");
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, data);
  EXPECT_EQ(dfs.stat("/warm")->code_spec, "pentagon");
  EXPECT_TRUE(dfs.scrub().is_ok());
}

TEST(RaidNode, RefusesNoopConversion) {
  MiniDfs dfs = make_dfs();
  RaidNode raid(dfs);
  ASSERT_TRUE(dfs.write_file("/f", payload(100, 15), "pentagon", kBlockSize)
                  .is_ok());
  EXPECT_EQ(raid.raid_file("/f", "pentagon").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(raid.raid_file("/missing", "pentagon").is_ok());
}

TEST(RaidNode, RaidsThroughDegradedStripes) {
  // Re-encoding must work even while a replica holder is down (reads fall
  // back to the surviving copies).
  MiniDfs dfs = make_dfs();
  RaidNode raid(dfs);
  const Buffer data = payload(kBlockSize * 18, 16);
  ASSERT_TRUE(dfs.write_file("/f", data, "2-rep", kBlockSize).is_ok());
  ASSERT_TRUE(dfs.fail_node(4).is_ok());
  const auto report = raid.raid_file("/f", "heptagon");
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  const auto read = dfs.read_file("/f");
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(*read, data);
}

// ----------------------------------------------------------- DataNode

TEST(DataNode, ConcurrentReadersGetExactBytesWhileAWriterChurns) {
  // Reads verify outside the node lock, so four readers share one
  // node while a writer puts and drops other addresses and corrupts one
  // block four times, at distinct bytes so it stays corrupt. Every read
  // returns the exact bytes; only reads of the corrupted address may fail,
  // and only with kCorruption.
  DataNode dn(0);
  constexpr std::size_t kBlocks = 8;
  constexpr std::size_t kRounds = 200;
  const cluster::SlotAddress corrupted{1, 3};
  std::vector<Buffer> blocks;
  for (std::size_t slot = 0; slot < kBlocks; ++slot) {
    blocks.push_back(random_buffer(8192, 100 + slot));
    ASSERT_TRUE(dn.put({1, slot}, blocks.back()).is_ok());
  }

  std::atomic<std::size_t> wrong_bytes{0};
  std::atomic<std::size_t> unexpected_errors{0};
  std::atomic<std::size_t> corruptions_seen{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t slot = 0; slot < kBlocks; ++slot) {
          const cluster::SlotAddress address{1, slot};
          const auto got = dn.get(address);
          if (got.is_ok()) {
            if (*got != blocks[slot]) ++wrong_bytes;
          } else if (address == corrupted &&
                     got.status().code() == StatusCode::kCorruption) {
            ++corruptions_seen;
          } else {
            ++unexpected_errors;
          }
        }
      }
    });
  }
  std::thread writer([&] {
    const Buffer churn = random_buffer(8192, 7);
    for (std::size_t round = 0; round < kRounds; ++round) {
      if (!dn.put({2, round}, churn).is_ok()) ++unexpected_errors;
      if (round % 50 == 25 && !dn.corrupt(corrupted, round).is_ok()) {
        ++unexpected_errors;
      }
      if (!dn.drop({2, round}).is_ok()) ++unexpected_errors;
    }
  });
  for (auto& reader : readers) reader.join();
  writer.join();

  EXPECT_EQ(wrong_bytes.load(), 0u);
  EXPECT_EQ(unexpected_errors.load(), 0u);
  EXPECT_EQ(dn.get(corrupted).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(dn.block_count(), kBlocks);
  // The stored bytes differ in exactly the flipped places.
  const auto raw = dn.peek(corrupted);
  ASSERT_TRUE(raw.is_ok());
  Buffer expected = blocks[corrupted.slot];
  for (std::size_t byte = 25; byte < kRounds; byte += 50) expected[byte] ^= 0xff;
  EXPECT_EQ(*raw, expected);
}

TEST(DataNode, GetHandsOutTheStoredBlockWithoutCopying) {
  // put() keeps a moved Buffer's bytes and get() returns them in place:
  // two reads share one buffer. corrupt() swaps in a flipped copy, so a
  // block already handed out stays intact while the next read fails.
  DataNode dn(0);
  Buffer bytes = random_buffer(4096, 3);
  const Buffer expected = bytes;
  const std::uint8_t* stored = bytes.data();
  ASSERT_TRUE(dn.put({1, 0}, std::move(bytes)).is_ok());
  const auto first = dn.get({1, 0});
  const auto second = dn.get({1, 0});
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first->data(), stored);
  EXPECT_EQ(second->data(), first->data());

  // Moving a block (construction or assignment) empties the source.
  auto third = dn.get({1, 0});
  ASSERT_TRUE(third.is_ok());
  SharedBlock taken = std::move(*third);
  SharedBlock assigned;
  assigned = std::move(taken);
  EXPECT_EQ(assigned.data(), stored);
  EXPECT_TRUE(third->empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(third->data(), nullptr);
  EXPECT_TRUE(taken.empty());  // NOLINT(bugprone-use-after-move)

  ASSERT_TRUE(dn.corrupt({1, 0}, 7).is_ok());
  EXPECT_EQ(*first, expected);
  EXPECT_EQ(dn.get({1, 0}).status().code(), StatusCode::kCorruption);
}

TEST(DataNode, PutRacingFailNeverLandsOnTheCrashedDisk) {
  // fail() marks the node down and then clears its disk. A put that saw
  // the node up must not insert after the clear, or the next restart()
  // would serve a block from a crashed disk.
  DataNode dn(0);
  const Buffer block = random_buffer(16384, 1);
  for (std::size_t round = 0; round < 300; ++round) {
    dn.restart();
    std::atomic<bool> stored{false};
    std::thread putter([&] {
      for (std::size_t slot = 0; dn.put({round, slot}, block).is_ok();
           ++slot) {
        stored.store(true, std::memory_order_release);
      }
    });
    while (!stored.load(std::memory_order_acquire)) std::this_thread::yield();
    dn.fail();
    putter.join();
    ASSERT_EQ(dn.block_count(), 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace dblrep::hdfs
