// Repair plans: first-class, executable descriptions of recovery traffic.
//
// A RepairPlan says exactly which unit-sized payloads cross the network
// (whole blocks for α == 1 schemes, block/α sub-chunks for sub-packetized
// ones), so the same
// object drives (a) actual byte-level recovery in the ec/hdfs layers and
// (b) the repair-bandwidth numbers of the paper's Section 2.1/3.1 (pentagon
// two-node repair = 10 blocks; degraded read = 3 blocks vs RAID+m's 9).
//
// The partial-parity optimization the paper highlights is expressed
// naturally: an AggregateSend whose `terms` XOR/GF-combine several slots of
// the sending node still costs one block of network traffic.
//
// Plans can additionally be *layered* for rack topologies (Hu et al.'s
// repair layering): an AggregateSend may relay -- its payload combines
// earlier aggregates delivered to its own node (`from_aggregates`) with its
// local slot terms, so an intra-rack aggregator can GF-combine its rack's
// partial results and forward a single cross-rack block. ec/layering.h
// rewrites any plan into that form; the executor runs both forms.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "ec/layout.h"
#include "gf/gf256.h"

namespace dblrep::ec {

/// coeff * bytes(slot); the slot must reside on the node evaluating it.
struct PartialTerm {
  std::size_t slot = 0;
  gf::Elem coeff = 1;

  bool operator==(const PartialTerm&) const = default;
};

/// One block-sized payload crossing the network: computed at `from_node` as
/// the GF-linear combination of its local slots, delivered to `to_node`.
/// A plain replica copy is a single term with coefficient 1; a partial
/// parity combines several local slots before sending.
///
/// A *relay* send additionally folds in earlier aggregates (by index into
/// RepairPlan::aggregates, each scaled by a coefficient) that were delivered
/// to `from_node` -- the two-stage form an intra-rack aggregator uses to
/// forward one combined block instead of its rack's individual partials.
/// Referenced indices must be smaller than the relay's own index (plans are
/// DAGs evaluated in aggregate order).
struct AggregateSend {
  NodeIndex from_node = 0;
  NodeIndex to_node = 0;
  std::vector<PartialTerm> terms;
  std::vector<std::pair<std::size_t, gf::Elem>> from_aggregates;

  bool is_plain_copy() const {
    return terms.size() == 1 && terms[0].coeff == 1 && from_aggregates.empty();
  }

  bool is_relay() const { return !from_aggregates.empty(); }

  bool operator==(const AggregateSend&) const = default;
};

/// Rebuilds `symbol` into `dest_slot` by combining received aggregates
/// (by index into RepairPlan::aggregates) and slots local to the
/// destination node. Reconstructions execute in order, and later steps may
/// reference slots rebuilt by earlier ones (the pentagon two-node repair
/// rebuilds the shared block on the first replacement, then copies it to
/// the second).
struct Reconstruction {
  std::size_t symbol = 0;
  /// kClientSlot means "deliver to a reading client" (degraded read); the
  /// result is not stored in the stripe.
  static constexpr std::size_t kClientSlot = static_cast<std::size_t>(-1);
  std::size_t dest_slot = kClientSlot;

  std::vector<std::pair<std::size_t, gf::Elem>> from_aggregates;
  std::vector<PartialTerm> local_terms;

  bool operator==(const Reconstruction&) const = default;
};

struct RepairPlan {
  std::vector<AggregateSend> aggregates;
  std::vector<Reconstruction> reconstructions;

  /// Network cost in units: each aggregate ships one unit-sized payload
  /// (a full block for α == 1 schemes, a block_size/α sub-chunk for
  /// sub-packetized ones). For α == 1 this is exactly the block count the
  /// paper reports; mixed-α comparisons must go through network_bytes().
  std::size_t network_units() const { return aggregates.size(); }

  /// Network cost in bytes for a stripe of `block_size`-byte blocks under
  /// `sub_chunks`-way sub-packetization. block_size must be divisible by
  /// sub_chunks.
  std::size_t network_bytes(std::size_t block_size,
                            std::size_t sub_chunks) const {
    return aggregates.size() * (block_size / sub_chunks);
  }

  /// Number of sends that are partial parities rather than plain copies.
  std::size_t partial_parity_sends() const;

  /// Number of two-stage relay sends (layered plans only).
  std::size_t relay_sends() const;

  /// The stored slots the plan reads, sorted: every term slot of its
  /// aggregates and reconstructions, minus the slots the plan rebuilds.
  /// Executing over a store of just these gives the full store's bytes.
  std::vector<std::size_t> source_slots() const;

  std::string to_string() const;
};

/// Byte store used when executing a plan: slot index -> block. Slots lost
/// to failures are simply absent. Entries share their bytes, so a store
/// gathered from DataNodes holds the nodes' own blocks, uncopied.
using SlotStore = std::unordered_map<std::size_t, SharedBlock>;

/// Executes `plan` against `store`, writing rebuilt blocks back into the
/// store (and returning the client-delivered blocks for degraded reads in
/// reconstruction order). Errors if the plan references unavailable slots,
/// violates node-locality of terms, or block sizes mismatch.
///
/// No aggregate payload is materialized: aggregates are what crosses the
/// wire, not what the CPU computes. Each rebuild expands into one row of GF
/// coefficients over stored slots -- its aggregates' terms, the relays
/// those fold and its local terms, coefficients multiplied along the chain
/// and terms on one slot added -- and is written once, by one fused,
/// SIMD-dispatched gf::matrix_apply pass over the row's nonzero terms, with
/// no zero fill. A row that is one slot with coefficient 1 (repair by
/// transfer) stores or delivers that slot's block itself, uncopied.
/// Rebuilds run in order against the current store, so one may read a slot
/// rebuilt earlier in the plan.
///
/// An executor holds no scratch: construct one where it is used, and share
/// it between threads freely (plans and layouts are immutable).
class PlanExecutor {
 public:
  explicit PlanExecutor(const StripeLayout& layout) : layout_(&layout) {}

  /// Runs the plan. On success, all non-client dest_slots exist in `store`.
  Result<std::vector<SharedBlock>> execute(const RepairPlan& plan,
                                           SlotStore& store) const;

 private:
  const StripeLayout* layout_;
};

}  // namespace dblrep::ec
