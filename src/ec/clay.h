// Clay (coupled-layer) MSR code at the (n=6, k=4) point.
//
// This is the other end of the repair-bandwidth frontier from the paper's
// pentagon/heptagon MBR designs: a minimum-storage regenerating code that
// hits the MSR cut-set bound through sub-packetization instead of
// replication. Parameters: q = 2, t = 3, n = q*t = 6, k = 4, d = n-1 = 5,
// sub-packetization alpha = q^t = 8, beta = alpha / (d-k+1) = 4.
//
// Construction (Vajha et al., "Clay codes"): each block is alpha
// sub-chunks; the stripe is a q x t x alpha grid of "vertices", one unit
// per (node, layer). Vertices are pairwise coupled within a column by an
// invertible 2x2 transfer matrix A = [[1, gamma], [gamma, 1]]; the
// *uncoupled* values satisfy an independent [6,4] Cauchy MDS check in
// every layer. The parity generator is solved numerically from those
// per-layer checks at first construction, and gamma is searched so that
// the coupling keeps the code MDS and every single-node repair solvable.
//
// Single-node repair reads beta = 4 of the 8 units from each of the 5
// helpers -- 20 unit-sized transfers = 2.5 blocks, versus 4 blocks for
// rs-4-2 at the same 1.5x storage overhead.
#pragma once

#include "ec/code.h"

namespace dblrep::ec {

class ClayCode final : public CodeScheme {
 public:
  ClayCode();

  /// MSR repair: beta units from each of the d = 5 helpers.
  Result<RepairPlan> plan_node_repair(NodeIndex failed) const override;
};

}  // namespace dblrep::ec
