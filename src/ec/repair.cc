#include "ec/repair.h"

#include <functional>
#include <set>
#include <sstream>

namespace dblrep::ec {

std::size_t RepairPlan::partial_parity_sends() const {
  std::size_t count = 0;
  for (const auto& send : aggregates) {
    if (!send.is_plain_copy()) ++count;
  }
  return count;
}

std::size_t RepairPlan::relay_sends() const {
  std::size_t count = 0;
  for (const auto& send : aggregates) {
    if (send.is_relay()) ++count;
  }
  return count;
}

std::vector<std::size_t> RepairPlan::source_slots() const {
  std::set<std::size_t> slots;
  for (const auto& send : aggregates) {
    for (const auto& term : send.terms) slots.insert(term.slot);
  }
  for (const auto& rec : reconstructions) {
    for (const auto& term : rec.local_terms) slots.insert(term.slot);
  }
  for (const auto& rec : reconstructions) slots.erase(rec.dest_slot);
  return {slots.begin(), slots.end()};
}

std::string RepairPlan::to_string() const {
  std::ostringstream os;
  os << "plan: " << aggregates.size() << " network units ("
     << partial_parity_sends() << " partial parities)\n";
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    const auto& send = aggregates[i];
    os << "  A" << i << ": N" << send.from_node << " -> N" << send.to_node
       << "  [";
    bool first = true;
    for (const auto& term : send.terms) {
      if (!first) os << " + ";
      first = false;
      if (term.coeff != 1) os << static_cast<int>(term.coeff) << "*";
      os << "slot" << term.slot;
    }
    for (const auto& [agg, coeff] : send.from_aggregates) {
      if (!first) os << " + ";
      first = false;
      if (coeff != 1) os << static_cast<int>(coeff) << "*";
      os << "A" << agg;
    }
    os << "]" << (send.is_relay() ? "  (relay)" : "") << "\n";
  }
  for (const auto& rec : reconstructions) {
    os << "  rebuild sym" << rec.symbol << " -> ";
    if (rec.dest_slot == Reconstruction::kClientSlot) {
      os << "client";
    } else {
      os << "slot" << rec.dest_slot;
    }
    os << " from {";
    for (std::size_t i = 0; i < rec.from_aggregates.size(); ++i) {
      if (i) os << ", ";
      os << "A" << rec.from_aggregates[i].first;
    }
    for (const auto& term : rec.local_terms) {
      os << ", local slot" << term.slot;
    }
    os << "}\n";
  }
  return os.str();
}

Result<std::vector<SharedBlock>> PlanExecutor::execute(const RepairPlan& plan,
                                                       SlotStore& store) {
  // Determine the block size from any available slot.
  std::size_t block_size = 0;
  for (const auto& [slot, bytes] : store) {
    (void)slot;
    block_size = bytes.size();
    break;
  }
  if (block_size == 0 && (!plan.aggregates.empty() || !plan.reconstructions.empty())) {
    return failed_precondition_error("plan execution with empty slot store");
  }

  arena_.reset();
  // Each aggregate's payload. A plain copy points at its source slot's
  // block, held in `copied` for the whole call (a later rebuild may replace
  // the store entry); every other aggregate is computed into the arena.
  std::vector<ByteSpan> aggregate_bytes(plan.aggregates.size());
  std::vector<SharedBlock> copied(plan.aggregates.size());
  std::vector<bool> aggregate_ready(plan.aggregates.size(), false);

  // The stored block a term reads, checked to be present, block-sized, and
  // on the node evaluating the term.
  auto term_block = [&](NodeIndex at_node,
                        std::size_t slot) -> Result<const SharedBlock*> {
    const auto it = store.find(slot);
    if (it == store.end()) {
      return unavailable_error("slot " + std::to_string(slot) +
                               " not available for repair");
    }
    if (it->second.size() != block_size) {
      return invalid_argument_error("block size mismatch in plan execution");
    }
    if (layout_->node_of_slot(slot) != at_node) {
      return failed_precondition_error("plan reads slot " +
                                       std::to_string(slot) +
                                       " from the wrong node");
    }
    return &it->second;
  };
  // Appends each term's bytes and coefficient to one fused pass's inputs.
  auto add_terms = [&](NodeIndex at_node, const std::vector<PartialTerm>& terms,
                       std::vector<ByteSpan>& sources,
                       std::vector<gf::Elem>& coeffs) -> Status {
    for (const auto& term : terms) {
      DBLREP_ASSIGN_OR_RETURN(const SharedBlock* block,
                              term_block(at_node, term.slot));
      sources.emplace_back(*block);
      coeffs.push_back(term.coeff);
    }
    return Status::ok();
  };

  // Aggregates may reference slots rebuilt by earlier reconstructions, so
  // evaluate them lazily, in reconstruction order. A relay send first
  // materializes the (strictly earlier) aggregates it folds in, then
  // combines them with its local slot terms in one fused pass.
  std::function<Status(std::size_t)> materialize_aggregate =
      [&](std::size_t index) -> Status {
    if (aggregate_ready[index]) return Status::ok();
    const auto& send = plan.aggregates[index];
    for (const auto& [src_index, coeff] : send.from_aggregates) {
      (void)coeff;
      if (src_index >= index) {
        return invalid_argument_error(
            "relay references aggregate " + std::to_string(src_index) +
            " at or after its own position " + std::to_string(index));
      }
      DBLREP_RETURN_IF_ERROR(materialize_aggregate(src_index));
      if (plan.aggregates[src_index].to_node != send.from_node) {
        return failed_precondition_error(
            "relay combines an aggregate delivered to another node");
      }
    }
    if (send.is_plain_copy()) {
      DBLREP_ASSIGN_OR_RETURN(const SharedBlock* block,
                              term_block(send.from_node, send.terms[0].slot));
      copied[index] = *block;
      aggregate_bytes[index] = copied[index];
      aggregate_ready[index] = true;
      return Status::ok();
    }
    // Gather after the recursion: the recursive calls reuse the same
    // term_sources_/term_coeffs_ scratch.
    term_sources_.clear();
    term_coeffs_.clear();
    DBLREP_RETURN_IF_ERROR(
        add_terms(send.from_node, send.terms, term_sources_, term_coeffs_));
    for (const auto& [src_index, coeff] : send.from_aggregates) {
      term_sources_.emplace_back(aggregate_bytes[src_index]);
      term_coeffs_.push_back(coeff);
    }
    // Uninitialized: matrix_apply fully overwrites (or zeroes) the output.
    const MutableByteSpan out = arena_.alloc_uninit(block_size);
    const MutableByteSpan outputs[] = {out};
    gf::matrix_apply(term_coeffs_, term_sources_, outputs);
    aggregate_bytes[index] = out;
    aggregate_ready[index] = true;
    return Status::ok();
  };

  std::vector<SharedBlock> client_reads;
  for (const auto& rec : plan.reconstructions) {
    // Materialize and validate the needed aggregates first, then combine
    // them and any destination-local terms in one fused pass.
    agg_sources_.clear();
    agg_coeffs_.clear();
    const NodeIndex dest = rec.dest_slot == Reconstruction::kClientSlot
                               ? kClientNode
                               : layout_->node_of_slot(rec.dest_slot);
    for (const auto& [agg_index, coeff] : rec.from_aggregates) {
      if (agg_index >= plan.aggregates.size()) {
        return invalid_argument_error("plan references unknown aggregate");
      }
      DBLREP_RETURN_IF_ERROR(materialize_aggregate(agg_index));
      if (plan.aggregates[agg_index].to_node != dest) {
        return failed_precondition_error(
            "aggregate delivered to a node other than the rebuild site");
      }
      agg_sources_.emplace_back(aggregate_bytes[agg_index]);
      agg_coeffs_.push_back(coeff);
    }
    if (!rec.local_terms.empty()) {
      if (rec.dest_slot == Reconstruction::kClientSlot) {
        return failed_precondition_error(
            "client-side reconstruction cannot read node-local slots");
      }
      DBLREP_RETURN_IF_ERROR(
          add_terms(dest, rec.local_terms, agg_sources_, agg_coeffs_));
    }
    SharedBlock rebuilt;
    if (rec.local_terms.empty() && rec.from_aggregates.size() == 1 &&
        rec.from_aggregates[0].second == 1 &&
        !copied[rec.from_aggregates[0].first].empty()) {
      // Repair by transfer: the rebuilt block is the copied block itself.
      rebuilt = copied[rec.from_aggregates[0].first];
    } else {
      // Written once, by the fused pass: no zero fill first.
      MutableByteSpan out;
      rebuilt = SharedBlock::uninitialized(block_size, out);
      const MutableByteSpan outputs[] = {out};
      gf::matrix_apply(agg_coeffs_, agg_sources_, outputs);
    }
    if (rec.dest_slot == Reconstruction::kClientSlot) {
      client_reads.push_back(std::move(rebuilt));
    } else {
      store[rec.dest_slot] = std::move(rebuilt);
    }
  }
  return client_reads;
}

}  // namespace dblrep::ec
