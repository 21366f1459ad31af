#include "ec/piggyback.h"

#include <utility>
#include <vector>

#include "ec/subchunk.h"
#include "gf/gf256.h"
#include "gf/matrix.h"

namespace dblrep::ec {

namespace {

constexpr std::size_t kK = 10;
constexpr std::size_t kM = 4;
constexpr std::size_t kN = kK + kM;
constexpr std::size_t kAlpha = 2;
constexpr std::size_t kDataUnits = kK * kAlpha;    // 20
constexpr std::size_t kTotalUnits = kN * kAlpha;   // 28

// Piggyback groups: parity j >= 1 carries pgy_j over the a-units of S_j.
std::size_t group_of(std::size_t data_node) {
  if (data_node < 4) return 1;
  if (data_node < 7) return 2;
  return 3;
}
std::size_t group_size(std::size_t j) { return j == 1 ? 4 : 3; }

// Unit indexing: data unit 2i is a_i, 2i+1 is b_i; node 10+j stores
// slot 2(10+j) = p_j(a) and slot 2(10+j)+1 = q_j = p_j(b) + pgy_j(a).
std::size_t a_slot(std::size_t i) { return 2 * i; }
std::size_t b_slot(std::size_t i) { return 2 * i + 1; }
std::size_t q_slot(std::size_t j) { return 2 * (kK + j) + 1; }

StripeLayout make_layout() {
  std::vector<NodeIndex> slot_nodes(kTotalUnits);
  std::vector<std::size_t> slot_symbols(kTotalUnits);
  for (std::size_t s = 0; s < kTotalUnits; ++s) {
    slot_nodes[s] = static_cast<NodeIndex>(s / kAlpha);
    slot_symbols[s] = s;
  }
  return {kN, kTotalUnits, std::move(slot_nodes), std::move(slot_symbols)};
}

gf::Matrix make_generator() {
  // Same Cauchy points as RsCode(10, 4).
  std::vector<gf::Elem> xs(kM), ys(kK);
  for (std::size_t j = 0; j < kM; ++j) xs[j] = static_cast<gf::Elem>(j);
  for (std::size_t i = 0; i < kK; ++i) ys[i] = static_cast<gf::Elem>(kM + i);
  const gf::Matrix cauchy = gf::Matrix::cauchy(xs, ys);

  gf::Matrix g(kTotalUnits, kDataUnits);
  for (std::size_t u = 0; u < kDataUnits; ++u) g.set(u, u, 1);
  for (std::size_t j = 0; j < kM; ++j) {
    for (std::size_t i = 0; i < kK; ++i) {
      g.set(2 * (kK + j), a_slot(i), cauchy.at(j, i));      // p_j(a)
      g.set(q_slot(j), b_slot(i), cauchy.at(j, i));         // p_j(b)
      if (j >= 1 && group_of(i) == j) {                     // + pgy_j(a)
        g.set(q_slot(j), a_slot(i), cauchy.at(j, i));
      }
    }
  }
  return g;
}

/// Piggyback repair read set for data node i: the nine other b-units plus
/// the clean parity q_0 rebuild b_i; q_{group} plus the group's other
/// a-units (with the b-units reused and b_i local) peel out a_i.
std::pair<std::vector<std::size_t>, std::vector<std::size_t>> repair_slots(
    std::size_t i) {
  const std::size_t j = group_of(i);
  std::vector<std::size_t> lost = {b_slot(i), a_slot(i)};  // b first: a uses it
  std::vector<std::size_t> reads;
  for (std::size_t r = 0; r < kK; ++r) {
    if (r != i) reads.push_back(b_slot(r));
  }
  reads.push_back(q_slot(0));
  reads.push_back(q_slot(j));
  for (std::size_t r = 0; r < kK; ++r) {
    if (r != i && group_of(r) == j) reads.push_back(a_slot(r));
  }
  return {std::move(lost), std::move(reads)};
}

std::size_t surviving_rank(const gf::Matrix& generator,
                           const StripeLayout& layout,
                           const std::vector<bool>& node_failed) {
  RowSpace space(kDataUnits);
  for (std::size_t s = 0; s < layout.num_slots(); ++s) {
    if (node_failed[static_cast<std::size_t>(layout.node_of_slot(s))]) continue;
    space.add(generator.row(layout.symbol_of_slot(s)));
  }
  return space.rank();
}

/// Numeric construction-time verification (once per process): the
/// piggyback structure keeps the code MDS over every 4-node failure, and
/// every data-node repair plan solves at exactly 10 + |S_j| units.
void verify(const gf::Matrix& generator, const StripeLayout& layout) {
  for (std::size_t a = 0; a < kN; ++a) {
    for (std::size_t b = a + 1; b < kN; ++b) {
      for (std::size_t c = b + 1; c < kN; ++c) {
        for (std::size_t d = c + 1; d < kN; ++d) {
          std::vector<bool> failed(kN, false);
          failed[a] = failed[b] = failed[c] = failed[d] = true;
          DBLREP_CHECK_EQ(surviving_rank(generator, layout, failed),
                          kDataUnits);
        }
      }
    }
  }
  {
    std::vector<bool> failed(kN, false);
    for (std::size_t j = 0; j <= kM; ++j) failed[j] = true;
    DBLREP_CHECK_LT(surviving_rank(generator, layout, failed), kDataUnits);
  }
  for (std::size_t i = 0; i < kK; ++i) {
    const auto [lost, reads] = repair_slots(i);
    auto plan = plan_from_unit_reads(generator, layout,
                                     static_cast<NodeIndex>(i), lost, reads);
    DBLREP_CHECK(plan.is_ok());
    DBLREP_CHECK_EQ(plan->network_units(), kK + group_size(group_of(i)));
  }
}

const gf::Matrix& pgy_generator() {
  static const gf::Matrix generator = [] {
    gf::Matrix g = make_generator();
    verify(g, make_layout());
    return g;
  }();
  return generator;
}

CodeParams make_params() {
  CodeParams params;
  params.name = "PgyRS(10,4)";
  params.data_blocks = kK;
  params.stored_blocks = kTotalUnits;
  params.num_symbols = kTotalUnits;
  params.num_nodes = kN;
  params.fault_tolerance = static_cast<int>(kM);  // MDS, verified above
  params.sub_chunks = kAlpha;
  return params;
}

}  // namespace

PiggybackCode::PiggybackCode()
    : CodeScheme(make_params(), make_layout(), pgy_generator()) {}

Result<RepairPlan> PiggybackCode::plan_node_repair(NodeIndex failed) const {
  DBLREP_CHECK_GE(failed, 0);
  DBLREP_CHECK_LT(static_cast<std::size_t>(failed), kN);
  if (static_cast<std::size_t>(failed) >= kK) {
    return CodeScheme::plan_node_repair(failed);
  }
  const auto [lost, reads] = repair_slots(static_cast<std::size_t>(failed));
  return plan_from_unit_reads(generator(), layout(), failed, lost, reads);
}

}  // namespace dblrep::ec
