// Piggybacked Reed-Solomon at the paper-comparable (n=14, k=10) point.
//
// The (k=10, m=4) RS geometry is the configuration the paper benchmarks
// cold storage against (Table 2's "RS(10,4)" column). True Clay at that
// point needs alpha = 256, so this scheme takes the Rashmi-Shah-Ramchandran
// piggybacking route instead: alpha = 2 sub-stripes a and b, both encoded
// with the same RS(10,4) Cauchy parities, with parity j >= 1 of the b
// sub-stripe carrying an extra "piggyback" -- a linear combination of a
// group S_j of a-units:
//
//   node 10+j stores  [ p_j(a),  p_j(b) + pgy_j(a) ]     (pgy_0 = 0)
//   S_1 = {0..3}, S_2 = {4..6}, S_3 = {7..9}
//
// Data-node repair then reads the failed node's b-unit via the clean
// parity p_0(b) (10 units), and its a-unit by peeling the piggyback:
// q_j minus the other a-units of S_j minus p_j(b) recomputed from the
// already-delivered b-units. Total 13-14 units = 6.5-7 blocks, versus 10
// blocks for rs-10-4 at the identical 1.4x storage overhead. Parity-node
// repair falls back to the generic whole-stripe path. The upper-triangular
// piggyback structure preserves the MDS property (tolerance 4).
#pragma once

#include "ec/code.h"

namespace dblrep::ec {

class PiggybackCode final : public CodeScheme {
 public:
  PiggybackCode();

  /// Piggyback repair for data nodes; generic for parity nodes.
  Result<RepairPlan> plan_node_repair(NodeIndex failed) const override;
};

}  // namespace dblrep::ec
