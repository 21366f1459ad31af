#include "ec/repair.h"

#include <algorithm>
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
                                                       SlotStore& store) const {
  // Determine the block size from any available slot.
  const std::size_t block_size =
      store.empty() ? 0 : store.begin()->second.size();
  if (block_size == 0 && (!plan.aggregates.empty() || !plan.reconstructions.empty())) {
    return failed_precondition_error("plan execution with empty slot store");
  }

  // The rebuild being evaluated, as GF coefficients over stored blocks.
  struct RowTerm {
    const SharedBlock* block;
    gf::Elem coeff;
  };
  std::vector<RowTerm> row;
  // Adds scale * terms to the row, each slot checked to be present,
  // block-sized, and on the node evaluating the terms.
  auto add_terms = [&](NodeIndex at_node, const std::vector<PartialTerm>& terms,
                       gf::Elem scale) -> Status {
    for (const auto& term : terms) {
      const auto it = store.find(term.slot);
      if (it == store.end()) {
        return unavailable_error("slot " + std::to_string(term.slot) +
                                 " not available for repair");
      }
      if (it->second.size() != block_size) {
        return invalid_argument_error("block size mismatch in plan execution");
      }
      if (layout_->node_of_slot(term.slot) != at_node) {
        return failed_precondition_error("plan reads slot " +
                                         std::to_string(term.slot) +
                                         " from the wrong node");
      }
      const gf::Elem coeff = gf::mul(scale, term.coeff);
      const auto same = std::ranges::find(row, &it->second, &RowTerm::block);
      if (same != row.end()) {
        same->coeff = gf::add(same->coeff, coeff);
      } else {
        row.push_back({&it->second, coeff});
      }
    }
    return Status::ok();
  };
  // Adds scale * aggregate `index`: its terms and, scaled along the chain,
  // the (strictly earlier) aggregates it relays.
  std::function<Status(std::size_t, gf::Elem)> add_aggregate =
      [&](std::size_t index, gf::Elem scale) -> Status {
    const auto& send = plan.aggregates[index];
    for (const auto& [src_index, coeff] : send.from_aggregates) {
      if (src_index >= index) {
        return invalid_argument_error(
            "relay references aggregate " + std::to_string(src_index) +
            " at or after its own position " + std::to_string(index));
      }
      DBLREP_RETURN_IF_ERROR(add_aggregate(src_index, gf::mul(scale, coeff)));
      if (plan.aggregates[src_index].to_node != send.from_node) {
        return failed_precondition_error(
            "relay combines an aggregate delivered to another node");
      }
    }
    return add_terms(send.from_node, send.terms, scale);
  };

  // Each rebuild reads the store as earlier rebuilds left it (pentagon's
  // two-node repair copies the shared block rebuilt on one replacement).
  std::vector<SharedBlock> client_reads;
  std::vector<ByteSpan> sources;
  std::vector<gf::Elem> coeffs;
  for (const auto& rec : plan.reconstructions) {
    const NodeIndex dest = rec.dest_slot == Reconstruction::kClientSlot
                               ? kClientNode
                               : layout_->node_of_slot(rec.dest_slot);
    row.clear();
    for (const auto& [agg_index, coeff] : rec.from_aggregates) {
      if (agg_index >= plan.aggregates.size()) {
        return invalid_argument_error("plan references unknown aggregate");
      }
      DBLREP_RETURN_IF_ERROR(add_aggregate(agg_index, coeff));
      if (plan.aggregates[agg_index].to_node != dest) {
        return failed_precondition_error(
            "aggregate delivered to a node other than the rebuild site");
      }
    }
    if (!rec.local_terms.empty()) {
      if (rec.dest_slot == Reconstruction::kClientSlot) {
        return failed_precondition_error(
            "client-side reconstruction cannot read node-local slots");
      }
      DBLREP_RETURN_IF_ERROR(add_terms(dest, rec.local_terms, 1));
    }
    std::erase_if(row, [](const RowTerm& t) { return t.coeff == 0; });
    SharedBlock rebuilt;
    if (row.size() == 1 && row[0].coeff == 1) {
      // Repair by transfer: the rebuilt block is the source block itself.
      rebuilt = *row[0].block;
    } else {
      // Written once, by one fused pass over the sources: no zero fill.
      sources.clear();
      coeffs.clear();
      for (const RowTerm& term : row) {
        sources.emplace_back(*term.block);
        coeffs.push_back(term.coeff);
      }
      MutableByteSpan out;
      rebuilt = SharedBlock::uninitialized(block_size, out);
      const MutableByteSpan outputs[] = {out};
      gf::matrix_apply(coeffs, sources, outputs);
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
