#include "ec/raid_mirror.h"

namespace dblrep::ec {

namespace {

CodeParams make_params(int k) {
  DBLREP_CHECK_GE(k, 2);
  CodeParams params;
  params.name = "(";
  params.name += std::to_string(k + 1);
  params.name += ",";
  params.name += std::to_string(k);
  params.name += ") RAID+m";
  params.data_blocks = static_cast<std::size_t>(k);
  params.num_symbols = static_cast<std::size_t>(k) + 1;
  params.stored_blocks = 2 * params.num_symbols;
  params.num_nodes = params.stored_blocks;
  // Any 3 node failures destroy at most one complete mirror pair (a pair
  // needs both of its 2 dedicated nodes down), and a single fully-lost
  // block is recoverable from the parity; losing two pairs takes 4 nodes.
  params.fault_tolerance = 3;
  return params;
}

StripeLayout make_layout(int k) {
  std::vector<NodeIndex> slot_nodes;
  std::vector<std::size_t> slot_symbols;
  for (int s = 0; s <= k; ++s) {
    slot_nodes.push_back(2 * s);
    slot_symbols.push_back(static_cast<std::size_t>(s));
    slot_nodes.push_back(2 * s + 1);
    slot_symbols.push_back(static_cast<std::size_t>(s));
  }
  return {static_cast<std::size_t>(2 * (k + 1)), static_cast<std::size_t>(k + 1),
          std::move(slot_nodes), std::move(slot_symbols)};
}

gf::Matrix make_generator(int k) {
  const auto ku = static_cast<std::size_t>(k);
  gf::Matrix g(ku + 1, ku);
  for (std::size_t i = 0; i < ku; ++i) g.set(i, i, 1);
  for (std::size_t i = 0; i < ku; ++i) g.set(ku, i, 1);  // XOR parity
  return g;
}

}  // namespace

RaidMirrorCode::RaidMirrorCode(int k)
    : CodeScheme(make_params(k), make_layout(k), make_generator(k)), k_(k) {}

std::pair<NodeIndex, NodeIndex> RaidMirrorCode::mirror_nodes(
    std::size_t symbol) const {
  DBLREP_CHECK_LT(symbol, num_symbols());
  const auto s = static_cast<NodeIndex>(symbol);
  return {2 * s, 2 * s + 1};
}

}  // namespace dblrep::ec
