#include "chaos/invariants.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "cluster/placement.h"
#include "ec/local_polygon.h"
#include "ec/registry.h"

namespace dblrep::chaos {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void mix_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
  }
}

void mix_bytes(std::uint64_t& h, ByteSpan bytes) {
  for (std::uint8_t b : bytes) h = (h ^ b) * kFnvPrime;
}

std::string stripe_label(const std::string& path, cluster::StripeId stripe) {
  return path + " stripe " + std::to_string(stripe);
}

/// Gathers the CRC-verified, reachable slots of a stripe (the same view
/// the read and repair paths plan against) plus the node-level failure
/// pattern: a code-local node is failed iff any of its slots is
/// unreadable.
ec::SlotStore gather_verified(const hdfs::MiniDfs& dfs,
                              cluster::StripeId stripe,
                              std::set<ec::NodeIndex>& failed) {
  const auto& info = dfs.catalog().stripe(stripe);
  const auto& layout = info.code->layout();
  ec::SlotStore store;
  for (std::size_t slot = 0; slot < layout.num_slots(); ++slot) {
    const cluster::NodeId node = dfs.catalog().node_of({stripe, slot});
    auto bytes = dfs.datanode(node).get({stripe, slot});
    if (bytes.is_ok()) store[slot] = std::move(*bytes);
  }
  for (std::size_t i = 0; i < info.group.size(); ++i) {
    for (std::size_t slot :
         layout.slots_on_node(static_cast<ec::NodeIndex>(i))) {
      if (!store.contains(slot)) {
        failed.insert(static_cast<ec::NodeIndex>(i));
        break;
      }
    }
  }
  return store;
}

}  // namespace

std::set<ec::NodeIndex> probe_failed_nodes(const hdfs::MiniDfs& dfs,
                                           cluster::StripeId stripe) {
  std::set<ec::NodeIndex> failed;
  (void)gather_verified(dfs, stripe, failed);
  return failed;
}

std::uint64_t storage_fingerprint(const hdfs::MiniDfs& dfs) {
  std::uint64_t h = kFnvOffset;
  const std::size_t num_nodes = dfs.topology().num_nodes;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    const auto& dn = dfs.datanode(static_cast<cluster::NodeId>(n));
    for (const auto& address : dn.stored_addresses()) {
      mix_u64(h, address.stripe);
      mix_u64(h, address.slot);
      const auto bytes = dn.peek(address);
      if (bytes.is_ok()) mix_bytes(h, *bytes);
    }
  }
  return h;
}

std::uint64_t cluster_fingerprint(const hdfs::MiniDfs& dfs) {
  std::uint64_t h = storage_fingerprint(dfs);
  const std::size_t num_nodes = dfs.topology().num_nodes;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    mix_u64(h, dfs.datanode(static_cast<cluster::NodeId>(n)).is_up() ? 1 : 0);
  }
  const auto& ledger = dfs.traffic();
  mix_u64(h, std::bit_cast<std::uint64_t>(ledger.total_bytes()));
  mix_u64(h, std::bit_cast<std::uint64_t>(ledger.intra_rack_bytes()));
  mix_u64(h, std::bit_cast<std::uint64_t>(ledger.cross_rack_bytes()));
  mix_u64(h, std::bit_cast<std::uint64_t>(ledger.client_bytes()));
  return h;
}

void check_durability(const hdfs::MiniDfs& dfs, const TruthMap& truth,
                      std::vector<std::string>& violations) {
  for (const auto& [path, file] : truth) {
    const auto info = dfs.stat(path);
    if (!info.is_ok()) {
      violations.push_back("durability: tracked file " + path +
                           " vanished from the namespace: " +
                           info.status().to_string());
      continue;
    }
    const auto code_result = dfs.code_for(path);
    if (!code_result.is_ok()) {
      violations.push_back("durability: code lookup for tracked file " +
                           path + " failed: " +
                           code_result.status().to_string());
      continue;
    }
    const ec::CodeScheme& code = **code_result;
    const std::size_t k = code.data_blocks();
    const std::size_t stripe_bytes = k * info->block_size;
    for (std::size_t si = 0; si < info->stripes.size(); ++si) {
      const cluster::StripeId stripe = info->stripes[si];
      std::set<ec::NodeIndex> node_failures;
      ec::SlotStore store = gather_verified(dfs, stripe, node_failures);
      const bool recoverable = code.is_recoverable(node_failures);
      auto decoded = code.decode(store, info->block_size);

      if (!decoded.is_ok()) {
        if (recoverable) {
          std::ostringstream os;
          os << "durability: " << stripe_label(path, stripe) << " has "
             << node_failures.size()
             << " failed nodes (within tolerance of "
             << code.params().fault_tolerance
             << ") but failed to decode: " << decoded.status().to_string();
          violations.push_back(os.str());
        }
        continue;  // beyond tolerance, a failed decode is the honest answer
      }

      // A successful decode must return the write-time bytes whether or
      // not the pattern was recoverable: wrong data is never acceptable.
      const std::size_t offset = si * stripe_bytes;
      bool match = true;
      for (std::size_t b = 0; b < k && match; ++b) {
        const std::size_t begin = offset + b * info->block_size;
        if (begin >= file.expected.size()) break;
        const std::size_t want =
            std::min(info->block_size, file.expected.size() - begin);
        match = std::memcmp((*decoded)[b].data(), file.expected.data() + begin,
                            want) == 0;
      }
      if (!match) {
        std::ostringstream os;
        os << "durability: " << stripe_label(path, stripe)
           << " decoded successfully but the bytes differ from the "
              "write-time contents ("
           << (recoverable ? "within" : "beyond") << " tolerance, "
           << node_failures.size() << " failed nodes)";
        violations.push_back(os.str());
      }

      // Slot-level ground truth: every readable slot -- parity and replica
      // slots included -- must equal the re-encoding of the write-time
      // data. This is what catches CRC-valid tampering of a slot the
      // decoder's systematic fast path never touches.
      const std::size_t begin = std::min(offset, file.expected.size());
      const std::size_t len =
          std::min(stripe_bytes, file.expected.size() - begin);
      const auto expected_blocks = ec::chunk_data(
          ByteSpan(file.expected.data() + begin, len), k, info->block_size);
      const auto expected_symbols = code.encode_symbols(expected_blocks);
      for (const auto& [slot, bytes] : store) {
        const std::size_t symbol = code.layout().symbol_of_slot(slot);
        if (bytes != expected_symbols[symbol]) {
          std::ostringstream os;
          os << "durability: " << stripe_label(path, stripe) << " slot "
             << slot << " (symbol " << symbol
             << ") differs from the write-time encoding";
          violations.push_back(os.str());
        }
      }
    }
  }
}

namespace {

/// Strict rack_aware promise: the group spans as many racks as it can and
/// no rack is loaded more than one block-group above another.
void check_rack_spread(const cluster::Topology& topology,
                       const std::vector<cluster::NodeId>& group,
                       const std::string& label,
                       std::vector<std::string>& violations) {
  std::map<int, std::size_t> hist;
  for (cluster::NodeId node : group) ++hist[topology.rack_of(node)];
  const std::size_t expected_racks =
      std::min(topology.num_racks, group.size());
  if (hist.size() != expected_racks) {
    violations.push_back("placement: " + label + " spans " +
                         std::to_string(hist.size()) + " racks, expected " +
                         std::to_string(expected_racks));
    return;
  }
  std::size_t lo = group.size(), hi = 0;
  for (const auto& [rack, count] : hist) {
    lo = std::min(lo, count);
    hi = std::max(hi, count);
  }
  if (hi - lo > 1) {
    violations.push_back("placement: " + label +
                         " rack load unbalanced (max " + std::to_string(hi) +
                         " vs min " + std::to_string(lo) + ")");
  }
}

/// Can group_per_rack honor the pinning constraint on a fully-live
/// cluster? Mirrors place_local_groups_per_rack's requirements: two racks
/// that can host a whole local each, plus a third distinct rack.
bool group_per_rack_feasible(const cluster::Topology& topology,
                             std::size_t local_size) {
  if (topology.num_racks < 3) return false;
  std::vector<std::size_t> rack_sizes(topology.num_racks, 0);
  for (std::size_t n = 0; n < topology.num_nodes; ++n) {
    ++rack_sizes[static_cast<std::size_t>(
        topology.rack_of(static_cast<cluster::NodeId>(n)))];
  }
  std::size_t big_racks = 0;
  for (std::size_t size : rack_sizes) {
    if (size >= local_size) ++big_racks;
  }
  return big_racks >= 2;
}

void check_group_pinning(const cluster::Topology& topology,
                         const ec::LocalPolygonCode& code,
                         const std::vector<cluster::NodeId>& group,
                         const std::string& label,
                         std::vector<std::string>& violations) {
  // Rack of each local group must be unique per local; the global parity
  // node must sit in yet another rack.
  std::map<int, std::set<int>> local_racks;  // local -> racks used
  for (std::size_t i = 0; i < group.size(); ++i) {
    const int local = code.local_of_node(static_cast<ec::NodeIndex>(i));
    if (local >= 0) {
      local_racks[local].insert(topology.rack_of(group[i]));
    }
  }
  std::set<int> used;
  for (const auto& [local, racks] : local_racks) {
    if (racks.size() != 1) {
      violations.push_back("placement: " + label + " local group " +
                           std::to_string(local) + " straddles " +
                           std::to_string(racks.size()) + " racks");
      return;
    }
    if (!used.insert(*racks.begin()).second) {
      violations.push_back("placement: " + label +
                           " two local groups share one rack");
      return;
    }
  }
  const int global_rack = topology.rack_of(
      group[static_cast<std::size_t>(code.global_node())]);
  if (used.contains(global_rack)) {
    violations.push_back("placement: " + label +
                         " global parity node shares a rack with a local "
                         "group");
  }
}

}  // namespace

void check_placement(const hdfs::MiniDfs& dfs, const TruthMap& truth,
                     std::vector<std::string>& violations) {
  const cluster::Topology& topology = dfs.topology();
  const cluster::PlacementPolicy policy = dfs.options().placement;

  for (const auto& [path, file] : truth) {
    const auto info = dfs.stat(path);
    if (!info.is_ok()) continue;  // durability checker reports this
    const auto code_result = dfs.code_for(path);
    if (!code_result.is_ok()) continue;  // durability checker reports this
    const ec::CodeScheme& code = **code_result;
    for (cluster::StripeId stripe : info->stripes) {
      const auto& group = dfs.catalog().stripe(stripe).group;
      const std::string label = stripe_label(path, stripe);

      if (group.size() != code.num_nodes()) {
        violations.push_back("placement: " + label + " group size " +
                             std::to_string(group.size()) + " != code length " +
                             std::to_string(code.num_nodes()));
        continue;
      }
      const std::set<cluster::NodeId> distinct(group.begin(), group.end());
      if (distinct.size() != group.size()) {
        violations.push_back("placement: " + label +
                             " places two code nodes on one cluster node");
        continue;
      }
      bool in_range = true;
      for (cluster::NodeId node : group) {
        if (node < 0 || static_cast<std::size_t>(node) >= topology.num_nodes) {
          in_range = false;
        }
      }
      if (!in_range) {
        violations.push_back("placement: " + label +
                             " references a node outside the topology");
        continue;
      }
      // Replicas of one symbol on distinct nodes -- the property that makes
      // "inherent double replication" tolerate any single failure.
      for (std::size_t symbol = 0; symbol < code.num_symbols(); ++symbol) {
        const auto replicas = dfs.catalog().replica_nodes(stripe, symbol);
        const std::set<cluster::NodeId> unique(replicas.begin(),
                                               replicas.end());
        if (unique.size() != replicas.size()) {
          violations.push_back("placement: " + label + " symbol " +
                               std::to_string(symbol) +
                               " has two replicas on one node");
        }
      }

      // Strict per-policy promises only hold for placements made against
      // the full cluster; under failures the policies degrade gracefully.
      if (!file.written_fully_live || topology.num_racks <= 1) continue;
      const auto* local = dynamic_cast<const ec::LocalPolygonCode*>(&code);
      if (policy == cluster::PlacementPolicy::kGroupPerRack &&
          local != nullptr &&
          group_per_rack_feasible(
              topology, static_cast<std::size_t>(local->n()))) {
        check_group_pinning(topology, *local, group, label, violations);
      } else if (policy == cluster::PlacementPolicy::kRackAware ||
                 policy == cluster::PlacementPolicy::kGroupPerRack) {
        check_rack_spread(topology, group, label, violations);
      }
    }
  }

  // Catalog <-> datanode consistency: every block an *up* node stores must
  // belong to a live stripe that maps that slot to this node. (An offline
  // node may hold blocks of a since-deleted stripe until it rejoins and is
  // garbage-collected -- that is the stale-replica window, not a bug.)
  for (std::size_t n = 0; n < topology.num_nodes; ++n) {
    const auto& dn = dfs.datanode(static_cast<cluster::NodeId>(n));
    if (!dn.is_up()) continue;
    for (const auto& address : dn.stored_addresses()) {
      if (!dfs.catalog().is_registered(address.stripe)) {
        violations.push_back(
            "catalog: node " + std::to_string(n) + " stores stripe " +
            std::to_string(address.stripe) + " slot " +
            std::to_string(address.slot) + " of an unregistered stripe");
        continue;
      }
      if (dfs.catalog().node_of(address) != static_cast<cluster::NodeId>(n)) {
        violations.push_back("catalog: node " + std::to_string(n) +
                             " stores stripe " +
                             std::to_string(address.stripe) + " slot " +
                             std::to_string(address.slot) +
                             " that the catalog maps elsewhere");
      }
    }
  }
}

void check_traffic_conservation(const hdfs::MiniDfs& dfs,
                                std::vector<std::string>& violations) {
  const auto& ledger = dfs.traffic();
  const double total = ledger.total_bytes();
  const double intra = ledger.route_bytes(net::Route::kIntraRack);
  const double cross = ledger.route_bytes(net::Route::kCrossRack);
  const double to_client = ledger.route_bytes(net::Route::kToClient);
  const double from_client = ledger.route_bytes(net::Route::kFromClient);

  const auto report = [&](const std::string& what) {
    std::ostringstream os;
    os << "traffic: " << what << " (total=" << total << " intra=" << intra
       << " cross=" << cross << " to_client=" << to_client
       << " from_client=" << from_client << ")";
    violations.push_back(os.str());
  };

  if (intra < 0 || cross < 0 || to_client < 0 || from_client < 0 ||
      total < 0) {
    report("negative bucket");
    return;
  }
  // Each route sum covers its bucket of every class, so the four together
  // are all the buckets. Whole byte counts well below 2^53: sums are
  // exact, equality is exact.
  if (intra + cross + to_client + from_client != total) {
    report("buckets do not sum to total");
  }
  double sent = 0, received = 0;
  for (std::size_t n = 0; n < dfs.topology().num_nodes; ++n) {
    sent += ledger.node_sent_bytes(static_cast<cluster::NodeId>(n));
    received += ledger.node_received_bytes(static_cast<cluster::NodeId>(n));
  }
  if (sent != intra + cross + to_client) {
    std::ostringstream os;
    os << "per-node sent sum " << sent << " != intra + cross + to-client "
       << intra + cross + to_client;
    report(os.str());
  }
  if (received != intra + cross + from_client) {
    std::ostringstream os;
    os << "per-node received sum " << received
       << " != intra + cross + from-client " << intra + cross + from_client;
    report(os.str());
  }
}

void check_catalog_recovery(const hdfs::MiniDfs& dfs,
                            std::vector<std::string>& violations) {
  const hdfs::NameNode& live = dfs.namenode();
  // Open writes are rolled back by recovery by design; the crash-point
  // fuzzer in recovery_test owns that regime.
  if (live.has_pending_writes()) return;

  // The scratch NameNode outlives this call only through its restore():
  // own the schemes it resolves so the catalog's raw pointers stay valid
  // for the fingerprint below.
  auto schemes = std::make_shared<
      std::map<std::string, std::unique_ptr<ec::CodeScheme>>>();
  hdfs::SchemeResolver resolver =
      [schemes](const std::string& spec) -> Result<const ec::CodeScheme*> {
    auto it = schemes->find(spec);
    if (it == schemes->end()) {
      auto code = ec::make_code(spec);
      if (!code.is_ok()) return code.status();
      it = schemes->emplace(spec, std::move(*code)).first;
    }
    return it->second.get();
  };

  hdfs::NameNode scratch(
      dfs.topology(), resolver,
      hdfs::NameNodeOptions{.shards = live.num_shards(),
                            .snapshot_every = 0});
  std::vector<Buffer> snapshots, journals;
  for (std::size_t s = 0; s < live.num_shards(); ++s) {
    snapshots.push_back(live.snapshot_bytes(s));
    journals.push_back(live.journal_bytes(s));
  }
  const auto report =
      scratch.restore(std::move(snapshots), std::move(journals));
  if (!report.is_ok()) {
    violations.push_back("catalog recovery: restore failed: " +
                         report.status().to_string());
    return;
  }
  if (scratch.fingerprint() != live.fingerprint()) {
    std::ostringstream os;
    os << "catalog recovery: rebuilt fingerprint "
       << scratch.fingerprint() << " != live fingerprint "
       << live.fingerprint() << " (replayed "
       << report->journal_records_replayed << " records over "
       << live.num_shards() << " shards)";
    violations.push_back(os.str());
  }
}

void check_network_conservation(const net::NetworkModel& model,
                                std::vector<std::string>& violations,
                                bool expect_drained) {
  const auto report = [&](const std::string& what) {
    violations.push_back("network: " + what);
  };

  // Global books: injected, delivered, and in-flight are independently
  // accumulated, so their balance is a real check. All values are sums of
  // whole byte counts far below 2^53 -- equality is exact.
  const double injected = model.injected_bytes();
  const double delivered = model.delivered_bytes();
  const double in_flight = model.in_flight_bytes();
  if (in_flight < 0) {
    std::ostringstream os;
    os << "negative in-flight bytes " << in_flight;
    report(os.str());
  }
  if (delivered + in_flight != injected) {
    std::ostringstream os;
    os << "bytes leak: injected " << injected << " != delivered " << delivered
       << " + in-flight " << in_flight;
    report(os.str());
  }
  if (model.transfers_delivered() > model.transfers_injected()) {
    std::ostringstream os;
    os << "delivered " << model.transfers_delivered()
       << " transfers but only " << model.transfers_injected()
       << " were injected";
    report(os.str());
  }
  double per_class = 0;
  for (std::size_t c = 0; c < net::kNumTransferClasses; ++c) {
    per_class +=
        model.delivered_class_bytes(static_cast<net::TransferClass>(c));
  }
  if (per_class != delivered) {
    std::ostringstream os;
    os << "per-class delivered sum " << per_class << " != delivered total "
       << delivered;
    report(os.str());
  }

  // Per-link books: every byte that entered a link either left it or is
  // still held there.
  for (std::size_t id = 0; id < model.num_links(); ++id) {
    const net::LinkStats& link = model.link(id);
    if (link.held_bytes < 0) {
      std::ostringstream os;
      os << "link " << link.name << " holds negative bytes "
         << link.held_bytes;
      report(os.str());
    }
    if (link.bytes_out + link.held_bytes != link.bytes_in) {
      std::ostringstream os;
      os << "link " << link.name << " leaks: in " << link.bytes_in
         << " != out " << link.bytes_out << " + held " << link.held_bytes;
      report(os.str());
    }
    if (expect_drained && (link.held_bytes != 0 || link.queue_depth != 0)) {
      std::ostringstream os;
      os << "link " << link.name << " not drained: held " << link.held_bytes
         << " depth " << link.queue_depth;
      report(os.str());
    }
  }
  if (expect_drained &&
      (in_flight != 0 || model.transfers_in_flight() != 0)) {
    std::ostringstream os;
    os << "queue drained but " << in_flight << " bytes / "
       << model.transfers_in_flight() << " transfers still in flight";
    report(os.str());
  }
}

void check_tier_hygiene(const hdfs::MiniDfs& dfs,
                        std::vector<std::string>& violations) {
  for (const std::string& path : dfs.list_files()) {
    if (path.ends_with(".raid-tmp")) {
      violations.push_back("tier: orphaned transition temp file " + path);
    }
  }
}

void check_all(const hdfs::MiniDfs& dfs, const TruthMap& truth,
               std::vector<std::string>& violations) {
  check_durability(dfs, truth, violations);
  check_placement(dfs, truth, violations);
  check_catalog_recovery(dfs, violations);
  check_tier_hygiene(dfs, violations);
  check_traffic_conservation(dfs, violations);
}

}  // namespace dblrep::chaos
