// Property tests for two-stage repair layering (ec/layering.h): for every
// registered code and failure pattern, the layered plan must execute to
// byte-identical results, never send more cross-rack blocks than the
// unlayered plan, and keep the total block count unchanged.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ec/layering.h"
#include "ec/local_polygon.h"
#include "ec/polygon.h"
#include "ec/registry.h"
#include "ec/repair.h"
#include "ec/rs.h"

namespace dblrep::ec {
namespace {

constexpr std::size_t kBlockSize = 96;

std::vector<Buffer> random_data(const CodeScheme& code, std::uint64_t seed) {
  std::vector<Buffer> data;
  for (std::size_t i = 0; i < code.data_blocks(); ++i) {
    data.push_back(random_buffer(kBlockSize, seed * 1000 + i));
  }
  return data;
}

SlotStore store_without_nodes(const CodeScheme& code,
                              const std::vector<Buffer>& data,
                              const std::set<NodeIndex>& failed) {
  const auto slots = code.encode(data);
  SlotStore store;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    if (!failed.contains(code.layout().node_of_slot(s))) store[s] = slots[s];
  }
  return store;
}

/// Round-robin rack map over the code's nodes.
std::vector<int> round_robin_racks(const CodeScheme& code,
                                   std::size_t num_racks) {
  std::vector<int> racks(code.num_nodes());
  for (std::size_t i = 0; i < racks.size(); ++i) {
    racks[i] = static_cast<int>(i % num_racks);
  }
  return racks;
}

/// Executes `plan` over only its source slots, taken from `full`, and
/// checks that none of them sits on a failed node and that it delivers and
/// rebuilds the same bytes as executing over the whole of `full`.
void check_reads_only_sources(const CodeScheme& code, const RepairPlan& plan,
                              const SlotStore& full,
                              const std::set<NodeIndex>& failed) {
  SlotStore sparse;
  for (std::size_t slot : plan.source_slots()) {
    EXPECT_FALSE(failed.contains(code.layout().node_of_slot(slot)))
        << "source slot " << slot << " is on a failed node";
    const auto it = full.find(slot);
    ASSERT_NE(it, full.end()) << "source slot " << slot << " is not stored";
    sparse.insert(*it);
  }
  SlotStore whole = full;
  PlanExecutor executor(code.layout());
  const auto from_whole = executor.execute(plan, whole);
  const auto from_sparse = executor.execute(plan, sparse);
  ASSERT_TRUE(from_whole.is_ok());
  ASSERT_TRUE(from_sparse.is_ok()) << from_sparse.status().to_string();
  EXPECT_EQ(*from_sparse, *from_whole);
  for (const auto& rec : plan.reconstructions) {
    if (rec.dest_slot == Reconstruction::kClientSlot) continue;
    EXPECT_EQ(sparse.at(rec.dest_slot), whole.at(rec.dest_slot))
        << "slot " << rec.dest_slot;
  }
}

/// Executes both forms of a node-repair plan and checks the layered one is
/// byte-identical, no more cross-rack, and no larger; both forms, and the
/// degraded read of every data block under the same failures, read only
/// their source slots.
void check_repair_equivalence(const CodeScheme& code,
                              const std::set<NodeIndex>& failed,
                              const std::vector<int>& racks,
                              std::uint64_t seed) {
  const auto data = random_data(code, seed);
  const auto pristine = code.encode(data);
  const auto plan = code.plan_multi_node_repair(failed);
  ASSERT_TRUE(plan.is_ok());
  const RepairPlan layered = layer_plan(*plan, racks);

  EXPECT_LE(cross_rack_sends(layered, racks), cross_rack_sends(*plan, racks));
  EXPECT_EQ(layered.network_units(), plan->network_units());

  PlanExecutor executor(code.layout());
  auto plain_store = store_without_nodes(code, data, failed);
  auto layered_store = store_without_nodes(code, data, failed);
  ASSERT_TRUE(executor.execute(*plan, plain_store).is_ok());
  ASSERT_TRUE(executor.execute(layered, layered_store).is_ok());
  for (std::size_t s = 0; s < pristine.size(); ++s) {
    ASSERT_TRUE(layered_store.contains(s)) << "slot " << s << " missing";
    EXPECT_EQ(layered_store.at(s), pristine[s]) << "slot " << s;
    EXPECT_EQ(layered_store.at(s), plain_store.at(s)) << "slot " << s;
  }

  const auto full = store_without_nodes(code, data, failed);
  check_reads_only_sources(code, *plan, full, failed);
  check_reads_only_sources(code, layered, full, failed);
  for (std::size_t block = 0; block < code.data_blocks(); ++block) {
    const auto read = code.plan_degraded_block(block, failed);
    ASSERT_TRUE(read.is_ok()) << "block " << block;
    check_reads_only_sources(code, *read, full, failed);
    check_reads_only_sources(code, layer_plan(*read, racks), full, failed);
  }
}

TEST(LayerPlan, EveryCodeEveryFailurePatternIsEquivalent) {
  auto specs = paper_code_specs();
  specs.push_back("rs-10-4");
  specs.push_back("rs-6-3");
  specs.push_back("clay-6-4");
  specs.push_back("pgy-10-4");
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec);
    const auto code = make_code(spec).value();
    const auto n = static_cast<NodeIndex>(code->num_nodes());
    const auto racks = round_robin_racks(*code, 3);
    for (NodeIndex a = 0; a < n; ++a) {
      check_repair_equivalence(*code, {a}, racks, 11);
    }
    if (code->params().fault_tolerance >= 2) {
      // All pairs for small codes, a deterministic stride for big ones.
      const NodeIndex stride = n > 9 ? 3 : 1;
      for (NodeIndex a = 0; a < n; a += stride) {
        for (NodeIndex b = a + 1; b < n; b += stride) {
          check_repair_equivalence(*code, {a, b}, racks, 13);
        }
      }
    }
  }
}

TEST(LayerPlan, DegradedReadDeliversIdenticalBytesPerRackRelayed) {
  // Degraded read of a doubly-lost pentagon block: three partial parities
  // normally go to the client; with two sources sharing a rack, the
  // layered plan relays them as one block.
  PolygonCode pentagon(5);
  const auto data = random_data(pentagon, 21);
  const auto symbols = pentagon.encode_symbols(data);
  const std::vector<int> racks = {0, 0, 1, 1, 2};
  PlanExecutor executor(pentagon.layout());
  for (NodeIndex a = 0; a < 5; ++a) {
    for (NodeIndex b = a + 1; b < 5; ++b) {
      const std::size_t sym = pentagon.shared_symbol(a, b);
      const auto plan = pentagon.plan_degraded_read(sym, {a, b});
      ASSERT_TRUE(plan.is_ok());
      const RepairPlan layered = layer_plan(*plan, racks);
      EXPECT_LE(cross_rack_sends(layered, racks),
                cross_rack_sends(*plan, racks));

      auto plain_store = store_without_nodes(pentagon, data, {a, b});
      auto layered_store = store_without_nodes(pentagon, data, {a, b});
      auto plain = executor.execute(*plan, plain_store);
      auto relayed = executor.execute(layered, layered_store);
      ASSERT_TRUE(plain.is_ok());
      ASSERT_TRUE(relayed.is_ok());
      ASSERT_EQ(relayed->size(), 1u);
      EXPECT_EQ((*relayed)[0], symbols[sym]);
      EXPECT_EQ((*relayed)[0], (*plain)[0]);

      const auto full = store_without_nodes(pentagon, data, {a, b});
      check_reads_only_sources(pentagon, *plan, full, {a, b});
      check_reads_only_sources(pentagon, layered, full, {a, b});
    }
  }
}

TEST(LayerPlan, RsSingleFailureCollapsesToOneSendPerRack) {
  // The textbook layering win: a (6,3) RS repair reads k = 6 helpers; with
  // nodes round-robined over 3 racks, each remote rack forwards exactly
  // one relay instead of its 2-3 individual sends.
  RsCode rs(6, 3);
  const auto racks = round_robin_racks(rs, 3);
  const auto plan = rs.plan_node_repair(0);
  ASSERT_TRUE(plan.is_ok());
  const RepairPlan layered = layer_plan(*plan, racks);
  // Unlayered: every helper outside rack 0 crosses a rack boundary.
  EXPECT_GT(cross_rack_sends(*plan, racks), 2u);
  // Layered: one relay per remote rack that contributed >= 2 helpers.
  EXPECT_LE(cross_rack_sends(layered, racks), 2u);
  EXPECT_GT(layered.relay_sends(), 0u);
  EXPECT_EQ(layered.network_units(), plan->network_units());
}

TEST(LayerPlan, SingleRackIsANoOp) {
  PolygonCode pentagon(5);
  const auto racks = round_robin_racks(pentagon, 1);
  const auto plan = pentagon.plan_multi_node_repair({0, 1});
  ASSERT_TRUE(plan.is_ok());
  const RepairPlan layered = layer_plan(*plan, racks);
  EXPECT_EQ(layered.aggregates, plan->aggregates);
  EXPECT_EQ(layered.reconstructions, plan->reconstructions);
}

TEST(LayerPlan, IsIdempotent) {
  RsCode rs(6, 3);
  const auto racks = round_robin_racks(rs, 3);
  const auto plan = rs.plan_node_repair(2);
  ASSERT_TRUE(plan.is_ok());
  const RepairPlan once = layer_plan(*plan, racks);
  const RepairPlan twice = layer_plan(once, racks);
  EXPECT_EQ(once.aggregates, twice.aggregates);
  EXPECT_EQ(once.reconstructions, twice.reconstructions);
}

TEST(LayerPlan, GroupPerRackHeptagonLocalRepairStaysInRack) {
  // The code's own rack structure (each local in its rack): repairing one
  // node of local 0 must not cross racks, layered or not.
  LocalPolygonCode code(7);
  std::vector<int> racks(code.num_nodes());
  for (NodeIndex n = 0; n < static_cast<NodeIndex>(code.num_nodes()); ++n) {
    racks[static_cast<std::size_t>(n)] = code.rack_of_node(n);
  }
  const auto plan = code.plan_node_repair(3);
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(cross_rack_sends(*plan, racks), 0u);
  const RepairPlan layered = layer_plan(*plan, racks);
  EXPECT_EQ(cross_rack_sends(layered, racks), 0u);
  // Global-node repair recomputes both parities from all 14 data nodes;
  // layering squeezes each local's contribution to one cross-rack relay
  // per rebuilt parity: 2 parities x 2 local racks = 4 sends instead of
  // one per helper node.
  const auto global_plan = code.plan_node_repair(code.global_node());
  ASSERT_TRUE(global_plan.is_ok());
  const RepairPlan global_layered = layer_plan(*global_plan, racks);
  EXPECT_LT(cross_rack_sends(global_layered, racks),
            cross_rack_sends(*global_plan, racks));
  EXPECT_LE(cross_rack_sends(global_layered, racks), 4u);
}

TEST(LayerPlan, SubChunkNodeRepairPlansLayerEquivalently) {
  // The sub-packetized schemes' plan_node_repair produces sub-chunk plans
  // (helpers ship beta < alpha units); layering must preserve bytes and
  // unit counts for every failed-node choice, and the unit counts must hit
  // the schemes' exact repair bandwidth: clay-6-4 reads beta * d =
  // 4 * 5 = 20 units for every node; pgy-10-4 reads 10 + |group| units for
  // a data node (14 for the piggyback-free first group, 13 otherwise) and
  // falls back to the generic k * alpha = 20 units for a parity node.
  for (const char* spec : {"clay-6-4", "pgy-10-4"}) {
    SCOPED_TRACE(spec);
    const auto code = make_code(spec).value();
    const auto racks = round_robin_racks(*code, 3);
    const auto data = random_data(*code, 17);
    const auto pristine = code->encode(data);
    const auto n = static_cast<NodeIndex>(code->num_nodes());
    for (NodeIndex f = 0; f < n; ++f) {
      SCOPED_TRACE(static_cast<int>(f));
      const auto plan = code->plan_node_repair(f);
      ASSERT_TRUE(plan.is_ok());
      if (std::string(spec) == "clay-6-4") {
        EXPECT_EQ(plan->network_units(), 20u);
        // beta * helpers exactly: each of the d = 5 helpers ships beta = 4.
        std::map<NodeIndex, std::size_t> per_helper;
        for (const auto& send : plan->aggregates) ++per_helper[send.from_node];
        EXPECT_EQ(per_helper.size(), 5u);
        for (const auto& [helper, count] : per_helper) EXPECT_EQ(count, 4u);
      } else if (f < static_cast<NodeIndex>(code->data_blocks())) {
        EXPECT_EQ(plan->network_units(), f < 4 ? 14u : 13u);
      } else {
        EXPECT_EQ(plan->network_units(), 20u);
      }

      const RepairPlan layered = layer_plan(*plan, racks);
      EXPECT_LE(cross_rack_sends(layered, racks),
                cross_rack_sends(*plan, racks));
      EXPECT_EQ(layered.network_units(), plan->network_units());
      PlanExecutor executor(code->layout());
      auto plain_store = store_without_nodes(*code, data, {f});
      auto layered_store = store_without_nodes(*code, data, {f});
      ASSERT_TRUE(executor.execute(*plan, plain_store).is_ok());
      ASSERT_TRUE(executor.execute(layered, layered_store).is_ok());
      for (std::size_t s = 0; s < pristine.size(); ++s) {
        ASSERT_TRUE(layered_store.contains(s)) << "slot " << s << " missing";
        EXPECT_EQ(layered_store.at(s), pristine[s]) << "slot " << s;
        EXPECT_EQ(layered_store.at(s), plain_store.at(s)) << "slot " << s;
      }
    }
  }
}

// ----------------------------------------------------- executor contracts

TEST(PlanExecutor, RefusesRelayReferencingLaterAggregate) {
  PolygonCode pentagon(5);
  PlanExecutor executor(pentagon.layout());
  const auto data = random_data(pentagon, 31);
  auto store = store_without_nodes(pentagon, data, {});
  RepairPlan bogus;
  // A0 relays A1, which comes later: an invalid (cyclic-capable) plan.
  bogus.aggregates.push_back(
      {1, kClientNode, {}, {{1, gf::Elem{1}}}});
  bogus.aggregates.push_back(
      {2, 1, {{pentagon.layout().slots_on_node(2)[0], 1}}, {}});
  bogus.reconstructions.push_back(
      {0, Reconstruction::kClientSlot, {{0, 1}}, {}});
  const auto run = executor.execute(bogus, store);
  EXPECT_FALSE(run.is_ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanExecutor, RefusesRelayOfAggregateDeliveredElsewhere) {
  PolygonCode pentagon(5);
  PlanExecutor executor(pentagon.layout());
  const auto data = random_data(pentagon, 32);
  auto store = store_without_nodes(pentagon, data, {});
  RepairPlan bogus;
  // A0 is delivered to node 3, but the relay at node 1 claims to fold it.
  bogus.aggregates.push_back(
      {2, 3, {{pentagon.layout().slots_on_node(2)[0], 1}}, {}});
  bogus.aggregates.push_back({1, kClientNode, {}, {{0, gf::Elem{1}}}});
  bogus.reconstructions.push_back(
      {0, Reconstruction::kClientSlot, {{1, 1}}, {}});
  const auto run = executor.execute(bogus, store);
  EXPECT_FALSE(run.is_ok());
  EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PlanExecutor, ExecutesHandBuiltRelayChain) {
  // Manual two-stage plan: N1 and N2 each hold a replica-distinct slot;
  // N1 aggregates its own slot with N2's send and forwards one block to
  // the client, which must equal slot(a) + slot(b).
  PolygonCode pentagon(5);
  PlanExecutor executor(pentagon.layout());
  const auto data = random_data(pentagon, 33);
  auto store = store_without_nodes(pentagon, data, {});
  const std::size_t slot_n2 = pentagon.layout().slots_on_node(2)[0];
  const std::size_t slot_n1 = pentagon.layout().slots_on_node(1)[0];
  RepairPlan plan;
  plan.aggregates.push_back({2, 1, {{slot_n2, 1}}, {}});
  plan.aggregates.push_back(
      {1, kClientNode, {{slot_n1, 1}}, {{0, gf::Elem{1}}}});
  plan.reconstructions.push_back(
      {0, Reconstruction::kClientSlot, {{1, 1}}, {}});
  auto run = executor.execute(plan, store);
  ASSERT_TRUE(run.is_ok());
  ASSERT_EQ(run->size(), 1u);
  Buffer expected(store.at(slot_n1).begin(), store.at(slot_n1).end());
  xor_into(expected, store.at(slot_n2));
  EXPECT_EQ((*run)[0], expected);
}

}  // namespace
}  // namespace dblrep::ec
