// Cluster-level block catalog: which stripe's slots live on which node.
//
// The catalog is the NameNode's structural view (no bytes): every stripe
// registered here carries its code scheme and a placement group mapping
// code-local node indices to cluster nodes. The HDFS layer stores the
// actual block payloads; the repair engine and the MapReduce simulator
// both consult the catalog for replica locations.
//
// Thread-safe: all methods synchronize on an internal shared mutex, and
// stripe records live in a node-based map so the references stripe() hands
// out stay valid across concurrent registrations. Unregistration is
// coordinated through repair leases: a repair pass pins its stripe with
// begin_repair() before touching it, and unregister_stripe() announces the
// deletion (so new repairs abort cleanly) and then drain-waits for live
// leases before tombstoning the record. A stripe() reference held without
// a lease is still invalidated by a concurrent unregister_stripe().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "cluster/topology.h"
#include "ec/code.h"

namespace dblrep::cluster {

using StripeId = std::size_t;

/// Globally unique block-slot address.
struct SlotAddress {
  StripeId stripe = 0;
  std::size_t slot = 0;  // code-local slot index

  auto operator<=>(const SlotAddress&) const = default;
};

struct StripeInfo {
  const ec::CodeScheme* code = nullptr;  // not owned
  std::vector<NodeId> group;             // code node i -> cluster node
  /// A stripe is sealed once all its blocks are durably stored. Repair and
  /// scrub skip unsealed stripes: their holes are writes in flight (or the
  /// debris of a failed write), not failures to recover.
  bool sealed = true;
};

class BlockCatalog {
 public:
  explicit BlockCatalog(const Topology& topology) : topology_(&topology) {}

  /// Registers a stripe placed on `group` (one cluster node per code node,
  /// all distinct) under a caller-assigned id: the sharded NameNode draws
  /// ids from one global counter, so a stripe's id does not depend on which
  /// shard's catalog records it. The id must not be in use -- live or
  /// tombstoned -- in this catalog. Pass sealed=false for a stripe whose
  /// bytes are still being written, then seal_stripe() when they land.
  Status register_stripe_at(StripeId id, const ec::CodeScheme& code,
                            std::vector<NodeId> group, bool sealed);

  /// Marks a stripe's bytes durable (visible to repair and scrub).
  Status seal_stripe(StripeId id);
  bool is_sealed(StripeId id) const;

  /// Removes a stripe (file deletion); its id becomes a tombstone and its
  /// slots disappear from every node's listing. Blocks until every repair
  /// lease on the stripe (begin_repair) has been released; repairs that
  /// arrive after the call has announced itself abort with ABORTED instead
  /// of racing the deletion.
  Status unregister_stripe(StripeId id);

  /// Pins a stripe against deletion for the duration of a repair pass.
  /// Returns NOT_FOUND if the stripe is unknown or already tombstoned, and
  /// ABORTED if a deletion has announced itself and is draining leases --
  /// repair callers treat both as "skip this stripe cleanly". On OK the
  /// caller must balance with end_repair(); leases nest (refcounted).
  Status begin_repair(StripeId id);
  void end_repair(StripeId id);

  /// Ids of live (non-tombstoned) stripes. num_stripes counts live only.
  bool is_registered(StripeId id) const;
  std::size_t num_stripes() const;
  const StripeInfo& stripe(StripeId id) const;

  /// Live stripe ids in ascending order (snapshot / fingerprint walks).
  std::vector<StripeId> live_stripe_ids() const;

  /// Cluster node hosting a slot.
  NodeId node_of(SlotAddress address) const;

  /// Cluster nodes holding replicas of (stripe, symbol), in slot order.
  std::vector<NodeId> replica_nodes(StripeId id, std::size_t symbol) const;

  /// Code-local failed set for a stripe, given cluster-level down nodes.
  std::set<ec::NodeIndex> failed_in_stripe(
      StripeId id, const std::set<NodeId>& down_nodes) const;

  /// Stripes that have at least one slot on `node`, ascending. Returns a
  /// snapshot by value: the per-node index mutates under concurrent
  /// registration.
  std::vector<StripeId> stripes_on_node(NodeId node) const;

 private:
  const StripeInfo& stripe_unlocked(StripeId id) const;
  NodeId node_of_unlocked(SlotAddress address) const;

  const Topology* topology_;
  mutable std::shared_mutex mu_;
  /// Live stripes and tombstones (code == nullptr); node-based map so
  /// references stay stable across registration, ids stable forever.
  std::map<StripeId, StripeInfo> stripes_;
  /// Per-node index: the live stripes with a slot on each node, by id.
  std::map<NodeId, std::set<StripeId>> node_stripes_;
  /// Repair-lease state lives under its own mutex: unregister_stripe must
  /// be able to drain-wait on leases *before* taking mu_, so a leased
  /// repair can keep reading catalog state (which needs mu_ shared) while
  /// the deleter waits.
  mutable std::mutex lease_mu_;
  std::condition_variable lease_cv_;
  std::map<StripeId, std::size_t> repair_leases_;
  std::set<StripeId> pending_delete_;
};

}  // namespace dblrep::cluster
