#include "ec/clay.h"

#include <cstdlib>
#include <optional>
#include <utility>
#include <vector>

#include "ec/subchunk.h"
#include "gf/gf256.h"
#include "gf/matrix.h"

namespace dblrep::ec {

namespace {

constexpr std::size_t kQ = 2;
constexpr std::size_t kT = 3;
constexpr std::size_t kN = kQ * kT;         // 6 nodes
constexpr std::size_t kK = kN - kQ;         // 4 data nodes
constexpr std::size_t kAlpha = 1u << kT;    // q^t = 8 sub-chunks per block
constexpr std::size_t kDataUnits = kK * kAlpha;   // 32
constexpr std::size_t kTotalUnits = kN * kAlpha;  // 48
// Every helper ships beta = alpha / (d-k+1) = 4 units.
constexpr std::size_t kRepairUnits = (kN - 1) * (kAlpha / kQ);  // 20

std::size_t slot_of(std::size_t node, std::size_t z) {
  return node * kAlpha + z;
}
std::size_t x_of(std::size_t node) { return node % kQ; }
std::size_t y_of(std::size_t node) { return node / kQ; }
std::size_t digit(std::size_t z, std::size_t y) { return (z >> y) & 1u; }
std::size_t with_digit(std::size_t z, std::size_t y, std::size_t v) {
  return (z & ~(std::size_t{1} << y)) | (v << y);
}

StripeLayout make_layout() {
  std::vector<NodeIndex> slot_nodes(kTotalUnits);
  std::vector<std::size_t> slot_symbols(kTotalUnits);
  for (std::size_t s = 0; s < kTotalUnits; ++s) {
    slot_nodes[s] = static_cast<NodeIndex>(s / kAlpha);
    slot_symbols[s] = s;
  }
  return {kN, kTotalUnits, std::move(slot_nodes), std::move(slot_symbols)};
}

/// Uncoupled value of vertex (node, z) as a row over the 48 stored units.
/// A vertex is unpaired (C == U) when its layer digit matches its own x
/// coordinate; otherwise it is coupled with its column partner through
/// A = [[1, gamma], [gamma, 1]], so C = (U_self + gamma * U_partner) / det.
std::vector<gf::Elem> uncouple_row(std::size_t node, std::size_t z,
                                   gf::Elem gamma) {
  std::vector<gf::Elem> row(kTotalUnits, 0);
  const std::size_t x = x_of(node);
  const std::size_t y = y_of(node);
  if (digit(z, y) == x) {
    row[slot_of(node, z)] = 1;
    return row;
  }
  const std::size_t partner = y * kQ + digit(z, y);
  const std::size_t partner_z = with_digit(z, y, x);
  const gf::Elem det_inv = gf::inv(gf::add(1, gf::mul(gamma, gamma)));
  row[slot_of(node, z)] = det_inv;
  row[slot_of(partner, partner_z)] = gf::mul(gamma, det_inv);
  return row;
}

/// Solves the parity generator from the per-layer [6,4] Cauchy checks on
/// the uncoupled values. Data-node vertices couple only within the two
/// data columns and parity vertices only within the parity column, so the
/// checks split as P * p = D * d with p the 16 parity units and d the 32
/// data units; the generator's parity rows are P^-1 * D. Returns nullopt
/// when P is singular for this gamma.
std::optional<gf::Matrix> try_generator(gf::Elem gamma) {
  const std::size_t parity_units = kTotalUnits - kDataUnits;
  gf::Matrix p_mat(parity_units, parity_units);
  gf::Matrix d_mat(parity_units, kDataUnits);
  for (std::size_t z = 0; z < kAlpha; ++z) {
    for (std::size_t r = 0; r < kQ; ++r) {
      const std::size_t eq = z * kQ + r;
      const auto lhs = uncouple_row(kK + r, z, gamma);
      for (std::size_t c = 0; c < parity_units; ++c) {
        p_mat.set(eq, c, lhs[kDataUnits + c]);
      }
      for (std::size_t i = 0; i < kK; ++i) {
        // Same Cauchy convention as RsCode: xs = {0..m-1}, ys = {m..m+k-1}.
        const gf::Elem coef =
            gf::inv(gf::add(static_cast<gf::Elem>(r),
                            static_cast<gf::Elem>(kQ + i)));
        const auto data_row = uncouple_row(i, z, gamma);
        for (std::size_t c = 0; c < kDataUnits; ++c) {
          d_mat.set(eq, c, gf::add(d_mat.at(eq, c),
                                   gf::mul(coef, data_row[c])));
        }
      }
    }
  }
  auto p_inv = p_mat.inverse();
  if (!p_inv.is_ok()) return std::nullopt;
  const gf::Matrix g_par = p_inv->mul(d_mat);
  gf::Matrix g(kTotalUnits, kDataUnits);
  for (std::size_t u = 0; u < kDataUnits; ++u) g.set(u, u, 1);
  for (std::size_t c = 0; c < parity_units; ++c) {
    for (std::size_t u = 0; u < kDataUnits; ++u) {
      g.set(kDataUnits + c, u, g_par.at(c, u));
    }
  }
  return g;
}

/// The repair read set: the beta layers whose digit at the failed column
/// matches the failed node's x coordinate, from every live node.
std::pair<std::vector<std::size_t>, std::vector<std::size_t>> repair_slots(
    NodeIndex failed) {
  const std::size_t x0 = x_of(static_cast<std::size_t>(failed));
  const std::size_t y0 = y_of(static_cast<std::size_t>(failed));
  std::vector<std::size_t> lost;
  for (std::size_t z = 0; z < kAlpha; ++z) {
    lost.push_back(slot_of(static_cast<std::size_t>(failed), z));
  }
  std::vector<std::size_t> reads;
  for (std::size_t j = 0; j < kN; ++j) {
    if (static_cast<NodeIndex>(j) == failed) continue;
    for (std::size_t z = 0; z < kAlpha; ++z) {
      if (digit(z, y0) == x0) reads.push_back(slot_of(j, z));
    }
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

/// gamma is accepted only when the resulting code is verifiably MDS (all
/// 2-node failures recoverable, all 3-node failures fatal) and every
/// single-node repair plan solves from exactly the beta-per-helper reads.
bool verify(const gf::Matrix& generator, const StripeLayout& layout) {
  for (std::size_t a = 0; a < kN; ++a) {
    for (std::size_t b = a + 1; b < kN; ++b) {
      std::vector<bool> failed(kN, false);
      failed[a] = failed[b] = true;
      if (surviving_rank(generator, layout, failed) != kDataUnits) {
        return false;
      }
      for (std::size_t c = b + 1; c < kN; ++c) {
        failed[c] = true;
        if (surviving_rank(generator, layout, failed) == kDataUnits) {
          return false;
        }
        failed[c] = false;
      }
    }
  }
  for (std::size_t j = 0; j < kN; ++j) {
    const auto [lost, reads] = repair_slots(static_cast<NodeIndex>(j));
    auto plan = plan_from_unit_reads(generator, layout,
                                     static_cast<NodeIndex>(j), lost, reads);
    if (!plan.is_ok()) return false;
    if (plan->network_units() != kRepairUnits) return false;
  }
  return true;
}

/// Generator solved once per process: gamma = 2 satisfies every check in
/// practice, but the search keeps construction correct-by-verification
/// rather than by trusting the algebra.
const gf::Matrix& clay_generator() {
  static const gf::Matrix generator = [] {
    const StripeLayout layout = make_layout();
    for (unsigned candidate = 2; candidate < 256; ++candidate) {
      const auto gamma = static_cast<gf::Elem>(candidate);
      auto g = try_generator(gamma);
      if (!g) continue;
      if (!verify(*g, layout)) continue;
      return std::move(*g);
    }
    DBLREP_CHECK(false);  // no usable coupling coefficient in GF(2^8)
    std::abort();
  }();
  return generator;
}

CodeParams make_params() {
  CodeParams params;
  params.name = "Clay(6,4)";
  params.data_blocks = kK;
  params.stored_blocks = kTotalUnits;
  params.num_symbols = kTotalUnits;
  params.num_nodes = kN;
  params.fault_tolerance = static_cast<int>(kN - kK);  // MDS
  params.sub_chunks = kAlpha;
  return params;
}

}  // namespace

ClayCode::ClayCode()
    : CodeScheme(make_params(), make_layout(), clay_generator()) {}

Result<RepairPlan> ClayCode::plan_node_repair(NodeIndex failed) const {
  DBLREP_CHECK_GE(failed, 0);
  DBLREP_CHECK_LT(static_cast<std::size_t>(failed), kN);
  const auto [lost, reads] = repair_slots(failed);
  return plan_from_unit_reads(generator(), layout(), failed, lost, reads);
}

}  // namespace dblrep::ec
