#include "ec/code.h"

#include <algorithm>
#include <map>

#include "ec/subchunk.h"

namespace dblrep::ec {

CodeScheme::CodeScheme(CodeParams params, StripeLayout layout,
                       gf::Matrix generator)
    : params_(std::move(params)),
      layout_(std::move(layout)),
      generator_(std::move(generator)) {
  DBLREP_CHECK_GE(params_.sub_chunks, 1u);
  const std::size_t units = params_.data_units();
  DBLREP_CHECK_EQ(generator_.rows(), params_.num_symbols);
  DBLREP_CHECK_EQ(generator_.cols(), units);
  DBLREP_CHECK_EQ(layout_.num_symbols(), params_.num_symbols);
  DBLREP_CHECK_EQ(layout_.num_nodes(), params_.num_nodes);
  DBLREP_CHECK_EQ(layout_.num_slots(), params_.stored_blocks);
  // Systematic prefix: symbol u == data unit u for u < k*alpha.
  for (std::size_t i = 0; i < units; ++i) {
    for (std::size_t j = 0; j < units; ++j) {
      DBLREP_CHECK_EQ(static_cast<int>(generator_.at(i, j)),
                      static_cast<int>(i == j ? 1 : 0));
    }
  }
  // The generator must have full column rank, otherwise the code cannot
  // even decode from a fault-free stripe.
  DBLREP_CHECK_EQ(generator_.rank(), units);
  parity_coeffs_.reserve((params_.num_symbols - units) * units);
  for (std::size_t j = units; j < params_.num_symbols; ++j) {
    const auto row = generator_.row(j);
    parity_coeffs_.insert(parity_coeffs_.end(), row.begin(), row.end());
  }
}

std::vector<Buffer> CodeScheme::encode_symbols(
    std::span<const Buffer> data) const {
  DBLREP_CHECK_EQ(data.size(), params_.data_blocks);
  const std::size_t block_size = data.empty() ? 0 : data[0].size();
  for (const auto& block : data) DBLREP_CHECK_EQ(block.size(), block_size);
  const std::size_t alpha = params_.sub_chunks;
  DBLREP_CHECK_EQ(block_size % alpha, 0u);
  const std::size_t unit_size = block_size / alpha;

  std::vector<Buffer> symbols;
  symbols.reserve(params_.num_symbols);
  std::vector<ByteSpan> data_views;
  data_views.reserve(params_.data_units());
  for (const auto& block : data) {
    for (std::size_t a = 0; a < alpha; ++a) {
      const ByteSpan unit = ByteSpan(block).subspan(a * unit_size, unit_size);
      data_views.push_back(unit);
      symbols.emplace_back(unit.begin(), unit.end());
    }
  }
  std::vector<MutableByteSpan> parity_views;
  while (symbols.size() < params_.num_symbols) {
    parity_views.emplace_back(symbols.emplace_back(unit_size));
  }
  gf::matrix_apply(parity_coeffs_, data_views, parity_views);
  return symbols;
}

std::vector<Buffer> CodeScheme::encode(std::span<const Buffer> data) const {
  const auto symbols = encode_symbols(data);
  std::vector<Buffer> slots(layout_.num_slots());
  for (std::size_t s = 0; s < layout_.num_slots(); ++s) {
    slots[s] = symbols[layout_.symbol_of_slot(s)];
  }
  return slots;
}

bool CodeScheme::spans_data(const std::vector<bool>& readable) const {
  const std::size_t units = params_.data_units();
  RowSpace space(units);
  for (std::size_t sym = 0; sym < params_.num_symbols && space.rank() < units;
       ++sym) {
    const auto& slots = layout_.slots_of_symbol(sym);
    if (std::any_of(slots.begin(), slots.end(),
                    [&](std::size_t slot) { return readable[slot]; })) {
      space.add(generator_.row(sym));
    }
  }
  return space.rank() == units;
}

bool CodeScheme::is_recoverable(const std::set<NodeIndex>& failed) const {
  std::vector<bool> readable(layout_.num_slots());
  for (std::size_t s = 0; s < readable.size(); ++s) {
    readable[s] = !failed.contains(layout_.node_of_slot(s));
  }
  return spans_data(readable);
}

Result<std::vector<Buffer>> CodeScheme::decode(const SlotStore& store,
                                               std::size_t block_size) const {
  const std::size_t k = params_.data_blocks;
  const std::size_t alpha = params_.sub_chunks;
  const std::size_t units = params_.data_units();
  if (block_size % alpha != 0) {
    return invalid_argument_error("decode: block size not divisible by alpha");
  }
  const std::size_t unit_size = block_size / alpha;

  // Locate one available slot per symbol (a symbol holds one unit).
  std::vector<std::optional<std::size_t>> symbol_slot(params_.num_symbols);
  for (const auto& [slot, bytes] : store) {
    if (slot >= layout_.num_slots()) {
      return invalid_argument_error("store contains unknown slot");
    }
    if (bytes.size() != unit_size) {
      return invalid_argument_error("decode: block size mismatch");
    }
    auto& entry = symbol_slot[layout_.symbol_of_slot(slot)];
    if (!entry) entry = slot;
  }

  // Fast path: every systematic unit is present -- reassemble blocks.
  bool all_systematic = true;
  for (std::size_t u = 0; u < units; ++u) {
    if (!symbol_slot[u]) {
      all_systematic = false;
      break;
    }
  }
  std::vector<Buffer> data(k);
  if (all_systematic) {
    for (std::size_t i = 0; i < k; ++i) {
      if (alpha == 1) {
        const SharedBlock& block = store.at(*symbol_slot[i]);
        data[i].assign(block.begin(), block.end());
        continue;
      }
      data[i].resize(block_size);
      for (std::size_t a = 0; a < alpha; ++a) {
        const auto& unit = store.at(*symbol_slot[i * alpha + a]);
        std::copy(unit.begin(), unit.end(),
                  data[i].begin() + static_cast<std::ptrdiff_t>(a * unit_size));
      }
    }
    return data;
  }

  // General path: greedy basis of surviving rows, then solve.
  RowSpace space(units);
  std::vector<std::size_t> basis_symbols;
  for (std::size_t sym = 0;
       sym < params_.num_symbols && basis_symbols.size() < units; ++sym) {
    if (!symbol_slot[sym]) continue;
    if (space.add(generator_.row(sym))) basis_symbols.push_back(sym);
  }
  if (basis_symbols.size() < units) {
    return data_loss_error("stripe not recoverable from surviving blocks");
  }
  auto inverse = generator_.select_rows(basis_symbols).inverse();
  if (!inverse.is_ok()) return inverse.status();

  // One fused pass: data units = inverse * basis-symbol units, written
  // straight into their sub-chunk positions inside the output blocks.
  std::vector<ByteSpan> sources;
  sources.reserve(units);
  for (std::size_t j = 0; j < units; ++j) {
    sources.emplace_back(store.at(*symbol_slot[basis_symbols[j]]));
  }
  for (std::size_t i = 0; i < k; ++i) data[i].resize(block_size);
  std::vector<gf::Elem> coeffs(units * units);
  std::vector<MutableByteSpan> outputs;
  outputs.reserve(units);
  for (std::size_t u = 0; u < units; ++u) {
    outputs.emplace_back(MutableByteSpan(data[u / alpha])
                             .subspan((u % alpha) * unit_size, unit_size));
    for (std::size_t j = 0; j < units; ++j) {
      coeffs[u * units + j] = inverse->at(u, j);
    }
  }
  gf::matrix_apply(coeffs, sources, outputs);
  return data;
}

Result<RepairPlan> CodeScheme::plan_node_repair(NodeIndex failed) const {
  return plan_multi_node_repair({failed});
}

Result<RepairPlan> CodeScheme::plan_multi_node_repair(
    const std::set<NodeIndex>& failed) const {
  std::set<std::size_t> lost;
  for (NodeIndex node : failed) {
    const auto& slots = layout_.slots_on_node(node);
    lost.insert(slots.begin(), slots.end());
  }
  return plan_slot_repair(lost, {});
}

Result<RepairPlan> CodeScheme::plan_slot_repair(
    const std::set<std::size_t>& lost, const std::set<NodeIndex>& down) const {
  DBLREP_CHECK(lost.empty() || *lost.rbegin() < layout_.num_slots());
  // Slots readable before the plan runs; `available` grows as rebuilds
  // land in plan order.
  std::vector<bool> readable(layout_.num_slots());
  for (std::size_t s = 0; s < readable.size(); ++s) {
    readable[s] = !lost.contains(s) && !down.contains(layout_.node_of_slot(s));
  }
  if (!spans_data(readable)) {
    return data_loss_error("failure pattern exceeds code tolerance");
  }

  RepairPlan plan;
  std::vector<bool> available = readable;
  auto live_slot_of = [&](std::size_t symbol) -> std::optional<std::size_t> {
    for (std::size_t slot : layout_.slots_of_symbol(symbol)) {
      if (available[slot]) return slot;
    }
    return std::nullopt;
  };

  // Pass 1, node by node: copy every lost slot on a live node whose symbol
  // still has a readable replica (repair-by-transfer). Record the rest.
  std::vector<std::pair<std::size_t, NodeIndex>> doubly_lost;  // (slot, node)
  for (NodeIndex node = 0; node < static_cast<NodeIndex>(params_.num_nodes);
       ++node) {
    for (std::size_t slot : layout_.slots_on_node(node)) {
      if (!lost.contains(slot) || down.contains(node)) continue;
      const std::size_t symbol = layout_.symbol_of_slot(slot);
      if (const auto src = live_slot_of(symbol)) {
        plan.aggregates.push_back(
            {layout_.node_of_slot(*src), node, {{*src, 1}}, {}});
        plan.reconstructions.push_back(
            {symbol, slot, {{plan.aggregates.size() - 1, 1}}, {}});
        available[slot] = true;
      } else {
        doubly_lost.emplace_back(slot, node);
      }
    }
  }

  // Pass 2: rebuild fully-lost symbols via a basis solve, folding per-node
  // contributions into partial parities. Process in slot order so that once
  // a symbol is rebuilt, later replicas of it become plain copies.
  for (const auto& [slot, node] : doubly_lost) {
    if (available[slot]) continue;  // rebuilt as replica of earlier step
    const std::size_t symbol = layout_.symbol_of_slot(slot);
    if (const auto src = live_slot_of(symbol)) {
      // A replica was rebuilt earlier in this plan.
      plan.aggregates.push_back(
          {layout_.node_of_slot(*src), node, {{*src, 1}}, {}});
      plan.reconstructions.push_back(
          {symbol, slot, {{plan.aggregates.size() - 1, 1}}, {}});
      available[slot] = true;
      continue;
    }

    // Greedy basis over available symbols. Preference order: slots already
    // on the destination node (zero network cost), then originally readable
    // slots (stable sources, and folding them per node yields the paper's
    // partial parities), then slots rebuilt earlier in this plan.
    std::vector<std::pair<std::size_t, std::size_t>> candidates;  // (sym, slot)
    {
      std::vector<bool> seen(params_.num_symbols, false);
      auto consider = [&](std::size_t s) {
        const std::size_t sym = layout_.symbol_of_slot(s);
        if (!available[s] || seen[sym]) return;
        seen[sym] = true;
        candidates.emplace_back(sym, s);
      };
      for (std::size_t s : layout_.slots_on_node(node)) consider(s);
      for (std::size_t s = 0; s < layout_.num_slots(); ++s) {
        if (readable[s]) consider(s);
      }
      for (std::size_t s = 0; s < layout_.num_slots(); ++s) consider(s);
    }
    RowSpace space(params_.data_units());
    std::vector<std::size_t> basis_symbols;
    std::vector<std::size_t> basis_slots;
    for (const auto& [sym, src_slot] : candidates) {
      if (space.rank() == params_.data_units()) break;
      if (space.add(generator_.row(sym))) {
        basis_symbols.push_back(sym);
        basis_slots.push_back(src_slot);
      }
    }
    // Express the lost symbol over the basis.
    auto coeffs = express_over_rows(generator_, basis_symbols, symbol);
    if (!coeffs.is_ok()) return coeffs.status();

    // Fold contributions per source node.
    std::map<NodeIndex, std::vector<PartialTerm>> per_node;
    std::vector<PartialTerm> local_terms;
    for (std::size_t j = 0; j < basis_symbols.size(); ++j) {
      const gf::Elem coeff = (*coeffs)[j];
      if (coeff == 0) continue;
      const NodeIndex src_node = layout_.node_of_slot(basis_slots[j]);
      if (src_node == node) {
        local_terms.push_back({basis_slots[j], coeff});
      } else {
        per_node[src_node].push_back({basis_slots[j], coeff});
      }
    }
    Reconstruction rec;
    rec.symbol = symbol;
    rec.dest_slot = slot;
    rec.local_terms = std::move(local_terms);
    for (auto& [src_node, terms] : per_node) {
      plan.aggregates.push_back({src_node, node, std::move(terms), {}});
      rec.from_aggregates.emplace_back(plan.aggregates.size() - 1, 1);
    }
    plan.reconstructions.push_back(std::move(rec));
    available[slot] = true;
  }
  return plan;
}

Result<RepairPlan> CodeScheme::plan_degraded_block(
    std::size_t block, const std::set<NodeIndex>& failed) const {
  DBLREP_CHECK_LT(block, params_.data_blocks);
  const std::size_t alpha = params_.sub_chunks;
  if (alpha == 1) return plan_degraded_read(block, failed);

  // Merge the per-unit degraded-read plans: client reconstructions stay in
  // unit order, aggregate indices shift by the units already merged.
  RepairPlan plan;
  for (std::size_t a = 0; a < alpha; ++a) {
    auto unit_plan = plan_degraded_read(block * alpha + a, failed);
    if (!unit_plan.is_ok()) return unit_plan.status();
    const std::size_t base = plan.aggregates.size();
    for (auto& send : unit_plan->aggregates) {
      for (auto& [index, coeff] : send.from_aggregates) index += base;
      plan.aggregates.push_back(std::move(send));
    }
    for (auto& rec : unit_plan->reconstructions) {
      for (auto& [index, coeff] : rec.from_aggregates) index += base;
      plan.reconstructions.push_back(std::move(rec));
    }
  }
  return plan;
}

Result<RepairPlan> CodeScheme::plan_degraded_read(
    std::size_t symbol, const std::set<NodeIndex>& failed) const {
  DBLREP_CHECK_LT(symbol, params_.num_symbols);
  RepairPlan plan;
  // If any replica survives, one plain copy suffices.
  for (std::size_t slot : layout_.slots_of_symbol(symbol)) {
    if (!failed.contains(layout_.node_of_slot(slot))) {
      plan.aggregates.push_back(
          {layout_.node_of_slot(slot), kClientNode, {{slot, 1}}, {}});
      plan.reconstructions.push_back(
          {symbol, Reconstruction::kClientSlot, {{0, 1}}, {}});
      return plan;
    }
  }

  // On-the-fly repair: express the symbol over a surviving basis (each
  // symbol offers its first slot on a live node) and fold per-node partial
  // parities (Section 3.1 of the paper).
  RowSpace space(params_.data_units());
  std::vector<std::size_t> basis_symbols;
  std::vector<std::size_t> basis_slots;
  for (std::size_t sym = 0;
       sym < params_.num_symbols && space.rank() < params_.data_units();
       ++sym) {
    for (std::size_t slot : layout_.slots_of_symbol(sym)) {
      if (failed.contains(layout_.node_of_slot(slot))) continue;
      if (space.add(generator_.row(sym))) {
        basis_symbols.push_back(sym);
        basis_slots.push_back(slot);
      }
      break;
    }
  }
  if (basis_symbols.size() < params_.data_units()) {
    return data_loss_error("degraded read: symbol unrecoverable");
  }
  auto coeffs = express_over_rows(generator_, basis_symbols, symbol);
  if (!coeffs.is_ok()) return coeffs.status();

  std::map<NodeIndex, std::vector<PartialTerm>> per_node;
  for (std::size_t j = 0; j < basis_symbols.size(); ++j) {
    const gf::Elem coeff = (*coeffs)[j];
    if (coeff == 0) continue;
    per_node[layout_.node_of_slot(basis_slots[j])].push_back(
        {basis_slots[j], coeff});
  }
  Reconstruction rec;
  rec.symbol = symbol;
  rec.dest_slot = Reconstruction::kClientSlot;
  for (auto& [src_node, terms] : per_node) {
    plan.aggregates.push_back({src_node, kClientNode, std::move(terms), {}});
    rec.from_aggregates.emplace_back(plan.aggregates.size() - 1, 1);
  }
  plan.reconstructions.push_back(std::move(rec));
  return plan;
}

Status CodeScheme::verify_codeword(const SlotStore& store,
                                   std::size_t block_size) const {
  // Replicas of a symbol must be byte-identical.
  for (std::size_t sym = 0; sym < params_.num_symbols; ++sym) {
    const SharedBlock* first = nullptr;
    for (std::size_t slot : layout_.slots_of_symbol(sym)) {
      const auto it = store.find(slot);
      if (it == store.end()) continue;
      if (!first) {
        first = &it->second;
      } else if (*first != it->second) {
        return corruption_error("replica mismatch for symbol " +
                                std::to_string(sym));
      }
    }
  }
  // Parities must be consistent with the decoded data.
  auto data = decode(store, block_size);
  if (!data.is_ok()) return data.status();
  const auto symbols = encode_symbols(*data);
  for (const auto& [slot, bytes] : store) {
    if (symbols[layout_.symbol_of_slot(slot)] != bytes) {
      return corruption_error("slot " + std::to_string(slot) +
                              " inconsistent with stripe data");
    }
  }
  return Status::ok();
}

std::vector<Buffer> chunk_data(ByteSpan data, std::size_t k,
                               std::size_t block_size) {
  DBLREP_CHECK_GT(k, 0u);
  DBLREP_CHECK_GT(block_size, 0u);
  DBLREP_CHECK_LE(data.size(), k * block_size);
  std::vector<Buffer> blocks(k);
  for (std::size_t i = 0; i < k; ++i) {
    blocks[i].assign(block_size, 0);
    const std::size_t begin = i * block_size;
    if (begin < data.size()) {
      const std::size_t len = std::min(block_size, data.size() - begin);
      std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(begin), len,
                  blocks[i].begin());
    }
  }
  return blocks;
}

}  // namespace dblrep::ec
