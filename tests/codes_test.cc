// Property tests on every CodeScheme: encode/decode round trips under all
// tolerated erasure patterns, fault-tolerance boundaries, Table-1 static
// parameters, codeword verification, and the batched stripe encoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <set>

#include "common/rng.h"
#include "ec/code.h"
#include "ec/local_polygon.h"
#include "ec/polygon.h"
#include "ec/raid_mirror.h"
#include "ec/registry.h"
#include "ec/replication.h"
#include "ec/rs.h"
#include "ec/stripe_codec.h"

namespace dblrep::ec {
namespace {

constexpr std::size_t kBlockSize = 256;

std::vector<Buffer> random_data(const CodeScheme& code, std::uint64_t seed) {
  std::vector<Buffer> data;
  for (std::size_t i = 0; i < code.data_blocks(); ++i) {
    data.push_back(random_buffer(kBlockSize, seed * 1000 + i));
  }
  return data;
}

SlotStore full_store(const CodeScheme& code, const std::vector<Buffer>& data) {
  const auto slots = code.encode(data);
  SlotStore store;
  for (std::size_t s = 0; s < slots.size(); ++s) store[s] = slots[s];
  return store;
}

SlotStore store_without_nodes(const CodeScheme& code,
                              const std::vector<Buffer>& data,
                              const std::set<NodeIndex>& failed) {
  SlotStore store = full_store(code, data);
  for (NodeIndex node : failed) {
    for (auto slot : code.layout().slots_on_node(node)) store.erase(slot);
  }
  return store;
}

/// All size-t subsets of [0, n).
std::vector<std::set<NodeIndex>> node_subsets(std::size_t n, std::size_t t) {
  std::vector<std::set<NodeIndex>> out;
  std::vector<NodeIndex> pick(t);
  // Iterative combination enumeration.
  std::function<void(std::size_t, NodeIndex)> rec = [&](std::size_t depth,
                                                        NodeIndex start) {
    if (depth == t) {
      out.emplace_back(pick.begin(), pick.end());
      return;
    }
    for (NodeIndex v = start; v < static_cast<NodeIndex>(n); ++v) {
      pick[depth] = v;
      rec(depth + 1, v + 1);
    }
  };
  rec(0, 0);
  return out;
}

// ------------------------------------------------- parameterized suite

struct CodeCase {
  std::string spec;
  // Expected Table-1 style static parameters.
  double overhead;
  std::size_t code_length;
  int tolerance;
};

class AllCodesTest : public ::testing::TestWithParam<CodeCase> {
 protected:
  void SetUp() override {
    auto made = make_code(GetParam().spec);
    ASSERT_TRUE(made.is_ok()) << made.status().to_string();
    code_ = std::move(made).value();
  }
  std::unique_ptr<CodeScheme> code_;
};

TEST_P(AllCodesTest, StaticParametersMatchPaperTable1) {
  const auto& p = code_->params();
  EXPECT_NEAR(p.storage_overhead(), GetParam().overhead, 0.005);
  EXPECT_EQ(p.num_nodes, GetParam().code_length);
  EXPECT_EQ(p.fault_tolerance, GetParam().tolerance);
}

TEST_P(AllCodesTest, EncodeProducesReplicaConsistentSlots) {
  const auto data = random_data(*code_, 1);
  const auto slots = code_->encode(data);
  ASSERT_EQ(slots.size(), code_->layout().num_slots());
  for (std::size_t sym = 0; sym < code_->num_symbols(); ++sym) {
    const auto& replicas = code_->layout().slots_of_symbol(sym);
    for (std::size_t i = 1; i < replicas.size(); ++i) {
      EXPECT_EQ(slots[replicas[i]], slots[replicas[0]]);
    }
  }
  // Systematic: data symbols hold data verbatim (unit u is sub-chunk
  // u % alpha of block u / alpha; alpha == 1 reduces to whole blocks).
  const std::size_t alpha = code_->sub_chunks();
  const std::size_t unit_size = kBlockSize / alpha;
  for (std::size_t u = 0; u < code_->data_units(); ++u) {
    const auto& block = data[u / alpha];
    const Buffer expected(block.begin() + (u % alpha) * unit_size,
                          block.begin() + (u % alpha + 1) * unit_size);
    EXPECT_EQ(slots[code_->layout().slots_of_symbol(u)[0]], expected);
  }
}

TEST_P(AllCodesTest, EncodeBatchHandsTheSinkEncodeSymbolsOfEachStripe) {
  // More stripes than one fused batch holds, and a final stripe that ends
  // inside a unit: every symbol view the sink sees must equal
  // encode_symbols of that stripe, zero-padded.
  const StripeCodec codec(*code_);
  const std::size_t stripe_bytes = codec.stripe_bytes(kBlockSize);
  const std::size_t stripes = codec.batch_stripes(kBlockSize) + 2;
  const Buffer data =
      random_buffer((stripes - 1) * stripe_bytes + stripe_bytes / 2 + 3, 4);
  ASSERT_EQ(codec.stripe_count(data.size(), kBlockSize), stripes);
  std::size_t seen = 0;
  const Status status = codec.encode_batch(
      data, kBlockSize,
      [&](std::size_t s, std::span<const ByteSpan> symbols) -> Status {
        EXPECT_EQ(s, seen++);
        std::vector<Buffer> blocks(code_->data_blocks(), Buffer(kBlockSize, 0));
        for (std::size_t b = 0; b < blocks.size(); ++b) {
          const std::size_t begin =
              std::min(data.size(), s * stripe_bytes + b * kBlockSize);
          const std::size_t end = std::min(data.size(), begin + kBlockSize);
          std::copy(data.begin() + static_cast<std::ptrdiff_t>(begin),
                    data.begin() + static_cast<std::ptrdiff_t>(end),
                    blocks[b].begin());
        }
        const auto want = code_->encode_symbols(blocks);
        EXPECT_EQ(symbols.size(), want.size());
        for (std::size_t sym = 0; sym < std::min(symbols.size(), want.size());
             ++sym) {
          EXPECT_TRUE(std::equal(symbols[sym].begin(), symbols[sym].end(),
                                 want[sym].begin(), want[sym].end()))
              << "stripe " << s << " symbol " << sym;
        }
        return Status::ok();
      });
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(seen, stripes);
}

TEST_P(AllCodesTest, DecodeFromIntactStripe) {
  const auto data = random_data(*code_, 2);
  auto store = full_store(*code_, data);
  const auto decoded = code_->decode(store, kBlockSize);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(*decoded, data);
}

TEST_P(AllCodesTest, DecodeUnderEveryToleratedNodeFailurePattern) {
  const auto data = random_data(*code_, 3);
  const auto t = static_cast<std::size_t>(code_->params().fault_tolerance);
  for (std::size_t size = 1; size <= t; ++size) {
    for (const auto& failed : node_subsets(code_->num_nodes(), size)) {
      auto store = store_without_nodes(*code_, data, failed);
      EXPECT_TRUE(code_->is_recoverable(failed));
      const auto decoded = code_->decode(store, kBlockSize);
      ASSERT_TRUE(decoded.is_ok())
          << GetParam().spec << " failed pattern size " << size;
      EXPECT_EQ(*decoded, data);
    }
  }
}

TEST_P(AllCodesTest, SomePatternBeyondToleranceIsFatal) {
  // fault_tolerance is the *maximum* t with all patterns recoverable, so at
  // least one (t+1)-pattern must be fatal (unless it exceeds node count).
  const auto t = static_cast<std::size_t>(code_->params().fault_tolerance);
  if (t + 1 > code_->num_nodes()) GTEST_SKIP();
  bool found_fatal = false;
  for (const auto& failed : node_subsets(code_->num_nodes(), t + 1)) {
    if (!code_->is_recoverable(failed)) {
      found_fatal = true;
      // decode must refuse, not hand back wrong bytes.
      const auto data = random_data(*code_, 4);
      auto store = store_without_nodes(*code_, data, failed);
      const auto decoded = code_->decode(store, kBlockSize);
      EXPECT_FALSE(decoded.is_ok());
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
      break;
    }
  }
  EXPECT_TRUE(found_fatal) << "tolerance understated for " << GetParam().spec;
}

TEST_P(AllCodesTest, VerifyCodewordAcceptsConsistentStripe) {
  const auto data = random_data(*code_, 5);
  auto store = full_store(*code_, data);
  EXPECT_TRUE(code_->verify_codeword(store, kBlockSize).is_ok());
}

TEST_P(AllCodesTest, VerifyCodewordFlagsCorruptedSlot) {
  const auto data = random_data(*code_, 6);
  auto store = full_store(*code_, data);
  Buffer flipped(store[0].begin(), store[0].end());
  flipped[10] ^= 0xff;
  store[0] = std::move(flipped);
  const auto status = code_->verify_codeword(store, kBlockSize);
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST_P(AllCodesTest, NodeRepairPlanRestoresEveryLostSlotExactly) {
  const auto data = random_data(*code_, 7);
  const auto pristine = code_->encode(data);
  PlanExecutor executor(code_->layout());
  for (NodeIndex failed = 0;
       failed < static_cast<NodeIndex>(code_->num_nodes()); ++failed) {
    auto store = store_without_nodes(*code_, data, {failed});
    const auto plan = code_->plan_node_repair(failed);
    ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
    const auto run = executor.execute(*plan, store);
    ASSERT_TRUE(run.is_ok()) << run.status().to_string();
    for (auto slot : code_->layout().slots_on_node(failed)) {
      ASSERT_TRUE(store.contains(slot));
      EXPECT_EQ(store.at(slot), pristine[slot]) << "slot " << slot;
    }
  }
}

TEST_P(AllCodesTest, MultiNodeRepairUnderEveryToleratedPattern) {
  const auto data = random_data(*code_, 8);
  const auto pristine = code_->encode(data);
  PlanExecutor executor(code_->layout());
  const auto t = static_cast<std::size_t>(code_->params().fault_tolerance);
  for (std::size_t size = 2; size <= t; ++size) {
    for (const auto& failed : node_subsets(code_->num_nodes(), size)) {
      auto store = store_without_nodes(*code_, data, failed);
      const auto plan = code_->plan_multi_node_repair(failed);
      ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
      const auto run = executor.execute(*plan, store);
      ASSERT_TRUE(run.is_ok()) << run.status().to_string();
      for (NodeIndex node : failed) {
        for (auto slot : code_->layout().slots_on_node(node)) {
          EXPECT_EQ(store.at(slot), pristine[slot]);
        }
      }
    }
  }
}

TEST_P(AllCodesTest, DegradedReadDeliversEverySymbolUnderSingleFailures) {
  const auto data = random_data(*code_, 9);
  const auto symbols = code_->encode_symbols(data);
  PlanExecutor executor(code_->layout());
  for (NodeIndex failed = 0;
       failed < static_cast<NodeIndex>(code_->num_nodes()); ++failed) {
    for (auto slot : code_->layout().slots_on_node(failed)) {
      const std::size_t sym = code_->layout().symbol_of_slot(slot);
      auto store = store_without_nodes(*code_, data, {failed});
      const auto plan = code_->plan_degraded_read(sym, {failed});
      ASSERT_TRUE(plan.is_ok());
      auto run = executor.execute(*plan, store);
      ASSERT_TRUE(run.is_ok()) << run.status().to_string();
      ASSERT_EQ(run->size(), 1u);
      EXPECT_EQ((*run)[0], symbols[sym]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperCodes, AllCodesTest,
    ::testing::Values(
        CodeCase{"2-rep", 2.0, 2, 1},
        CodeCase{"3-rep", 3.0, 3, 2},
        CodeCase{"pentagon", 20.0 / 9.0, 5, 2},
        CodeCase{"heptagon", 42.0 / 20.0, 7, 2},
        CodeCase{"heptagon-local", 86.0 / 40.0, 15, 3},
        CodeCase{"raidm-9", 20.0 / 9.0, 20, 3},
        CodeCase{"raidm-11", 24.0 / 11.0, 24, 3},
        CodeCase{"rs-10-4", 14.0 / 10.0, 14, 4},
        CodeCase{"clay-6-4", 1.5, 6, 2},
        CodeCase{"pgy-10-4", 14.0 / 10.0, 14, 4},
        CodeCase{"polygon-4", 12.0 / 5.0, 4, 2},
        CodeCase{"polygon-6", 30.0 / 14.0, 6, 2},
        CodeCase{"polygon-5-local", 42.0 / 18.0, 11, 3}),
    [](const ::testing::TestParamInfo<CodeCase>& info) {
      std::string name = info.param.spec;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

// ------------------------------------------------- code-specific facts

TEST(Pentagon, AnyThreeNodesSufficeToDecode) {
  // The MBR property quoted in Section 2.1: contents of any 3 of the 5
  // nodes recover all 9 data blocks.
  PolygonCode pentagon(5);
  const auto data = random_data(pentagon, 10);
  for (const auto& alive : node_subsets(5, 3)) {
    std::set<NodeIndex> failed;
    for (NodeIndex n = 0; n < 5; ++n) {
      if (!alive.contains(n)) failed.insert(n);
    }
    auto store = store_without_nodes(pentagon, data, failed);
    const auto decoded = pentagon.decode(store, kBlockSize);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(*decoded, data);
  }
}

TEST(Pentagon, AnyThreeNodeFailureIsFatal) {
  PolygonCode pentagon(5);
  for (const auto& failed : node_subsets(5, 3)) {
    EXPECT_FALSE(pentagon.is_recoverable(failed));
  }
}

TEST(Heptagon, AnyTwoNodeFailureRecoverableAnyThreeFatal) {
  PolygonCode heptagon(7);
  for (const auto& failed : node_subsets(7, 2)) {
    EXPECT_TRUE(heptagon.is_recoverable(failed));
  }
  for (const auto& failed : node_subsets(7, 3)) {
    EXPECT_FALSE(heptagon.is_recoverable(failed));
  }
}

TEST(HeptagonLocal, ExactlyTheExpectedFourNodePatternsAreFatal) {
  // 4-node patterns: fatal iff (a) 4 nodes in one heptagon, or (b) 3 nodes
  // in one heptagon plus the global node. Everything else survives.
  LocalPolygonCode code(7);
  for (const auto& failed : node_subsets(15, 4)) {
    int in_first = 0, in_second = 0;
    bool global = false;
    for (NodeIndex n : failed) {
      if (n < 7) ++in_first;
      else if (n < 14) ++in_second;
      else global = true;
    }
    const bool expect_fatal =
        in_first == 4 || in_second == 4 ||
        ((in_first == 3 || in_second == 3) && global);
    EXPECT_EQ(!code.is_recoverable(failed), expect_fatal)
        << "first=" << in_first << " second=" << in_second
        << " global=" << global;
  }
}

TEST(RaidMirror, FourNodePatternsFatalIffTwoCompletePairs) {
  RaidMirrorCode code(9);
  int fatal_count = 0;
  for (const auto& failed : node_subsets(20, 4)) {
    int complete_pairs = 0;
    for (std::size_t s = 0; s < 10; ++s) {
      const auto [a, b] = code.mirror_nodes(s);
      if (failed.contains(a) && failed.contains(b)) ++complete_pairs;
    }
    EXPECT_EQ(!code.is_recoverable(failed), complete_pairs >= 2);
    if (complete_pairs >= 2) ++fatal_count;
  }
  // C(10,2) = 45 ways to choose the two dead pairs.
  EXPECT_EQ(fatal_count, 45);
}

TEST(Replication, ToleranceBoundaries) {
  ReplicationCode two(2);
  EXPECT_TRUE(two.is_recoverable({0}));
  EXPECT_FALSE(two.is_recoverable({0, 1}));
  ReplicationCode three(3);
  EXPECT_TRUE(three.is_recoverable({0, 2}));
  EXPECT_FALSE(three.is_recoverable({0, 1, 2}));
}

TEST(Rs, MdsPropertyExhaustiveForSmallCode) {
  RsCode code(4, 2);
  for (const auto& failed : node_subsets(6, 2)) {
    EXPECT_TRUE(code.is_recoverable(failed));
  }
  for (const auto& failed : node_subsets(6, 3)) {
    EXPECT_FALSE(code.is_recoverable(failed));
  }
}

TEST(ChunkData, PadsAndSplits) {
  const Buffer input = random_buffer(100, 11);
  const auto blocks = chunk_data(input, 3, 40);
  ASSERT_EQ(blocks.size(), 3u);
  for (const auto& b : blocks) EXPECT_EQ(b.size(), 40u);
  // Content preserved, tail zero-padded.
  EXPECT_TRUE(std::equal(input.begin(), input.begin() + 40, blocks[0].begin()));
  EXPECT_TRUE(std::equal(input.begin() + 80, input.end(), blocks[2].begin()));
  EXPECT_EQ(blocks[2][20], 0);
  EXPECT_EQ(blocks[2][39], 0);
}

TEST(ChunkData, OversizeInputRejected) {
  EXPECT_THROW(chunk_data(Buffer(100), 2, 40), ContractViolation);
}

TEST(Registry, RejectsUnknownSpecs) {
  EXPECT_FALSE(make_code("nonagon").is_ok());
  EXPECT_FALSE(make_code("raidm-x").is_ok());
  EXPECT_FALSE(make_code("rs-10").is_ok());
  EXPECT_FALSE(make_code("-rep").is_ok());
  EXPECT_FALSE(make_code("polygon-2").is_ok());
}

TEST(Registry, PaperSpecListAllConstructible) {
  for (const auto& spec : paper_code_specs()) {
    EXPECT_TRUE(make_code(spec).is_ok()) << spec;
  }
}

TEST(Registry, NamesRoundTrip) {
  EXPECT_EQ(make_code("pentagon").value()->params().name, "pentagon");
  EXPECT_EQ(make_code("raidm-9").value()->params().name, "(10,9) RAID+m");
  EXPECT_EQ(make_code("rs-10-4").value()->params().name, "RS(10,4)");
  EXPECT_EQ(make_code("clay-6-4").value()->params().name, "Clay(6,4)");
  EXPECT_EQ(make_code("pgy-10-4").value()->params().name, "PgyRS(10,4)");
  EXPECT_EQ(make_code("heptagon-local").value()->params().name,
            "heptagon-local");
}

}  // namespace
}  // namespace dblrep::ec
