// The traffic ledger: one classed, directed account of every byte the
// MiniDfs data plane moves -- the network panels of Figs. 4/5 and the
// Section 3.1 repair counts -- plus the capture feed of the link-level
// network model (net/model.h).
//
// Every data-moving path in MiniDfs makes one TrafficLedger::record call,
// tagging the transfer with a class (client write upload, client read
// delivery, repair, scrub heal, retier) and a direction; the off-cluster
// client endpoint is kClientEndpoint. Each record lands in exactly one
// bucket, indexed by class x route (intra-rack, cross-rack, to-client,
// from-client), while the grand total and the per-node sent/received
// counters are accumulated independently. Conservation is therefore a
// checkable invariant rather than a definition, and the chaos harness
// asserts it after every event:
//
//   sum of buckets  == total
//   sum of sent     == intra + cross + to-client
//   sum of received == intra + cross + from-client
//
// Concurrency-safe: parallel repairs and client operations record from many
// threads, so the accumulators are atomic doubles updated with a relaxed
// CAS loop. Every recorded value is a whole number of bytes well below
// 2^53, so the sums are exact and independent of accumulation order --
// parallel and serial executions of the same work report bit-identical
// totals.
//
// Capture (off by default): when switched on, every record is also kept as
// a TransferRecord, which a harness (bench_repair_qos, dfsctl --net) drains
// and replays into a NetworkModel, where contention, queueing, and QoS
// pacing happen. Capture takes a lock; with capture off, record() is the
// atomic adds alone. Capture is thread-safe, but the *order* of records is
// only deterministic when the DFS runs on the inline pool -- the simulation
// harnesses that replay captures do exactly that.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "cluster/topology.h"

namespace dblrep::net {

/// The off-cluster client endpoint. It attaches at the spine: client bytes
/// enter/leave the cluster through a rack's ToR uplink and the spine, never
/// through another node's NIC.
inline constexpr cluster::NodeId kClientEndpoint = -1;

/// Traffic class of a transfer; repair-class traffic (kRepair, kScrub,
/// kRetier) is what the QosThrottler paces against the foreground classes.
enum class TransferClass {
  kClientWrite = 0,  // client -> node block upload
  kClientRead = 1,   // node -> client delivery (incl. degraded-read helpers)
  kRepair = 2,       // helper/aggregator/destination repair chain sends
  kScrub = 3,        // scrub-heal rewrites
  kRetier = 4,       // tier re-encode streams (TieringEngine / RaidNode)
};
inline constexpr std::size_t kNumTransferClasses = 5;

const char* to_string(TransferClass cls);

/// True for the background classes the QoS throttler paces.
inline bool is_repair_class(TransferClass cls) {
  return cls == TransferClass::kRepair || cls == TransferClass::kScrub ||
         cls == TransferClass::kRetier;
}

/// Which boundary a recorded transfer crossed.
enum class Route {
  kIntraRack = 0,   // node -> node, same rack
  kCrossRack = 1,   // node -> node, different racks
  kToClient = 2,    // node -> off-cluster client
  kFromClient = 3,  // off-cluster client -> node
};
inline constexpr std::size_t kNumRoutes = 4;

struct TransferRecord {
  cluster::NodeId from = kClientEndpoint;
  cluster::NodeId to = kClientEndpoint;
  double bytes = 0;
  TransferClass cls = TransferClass::kClientRead;
};

/// Flow boundaries: NetworkModel::start_flow dependency-chains the records
/// of ONE operation; chaining records of unrelated operations would
/// manufacture false dependencies (every reused node id becomes an edge)
/// and serialize a storm that is really parallel. MiniDfs therefore calls
/// mark() after each multi-send operation (one repaired stripe, one
/// degraded read), and drain_flows() hands the harness the capture
/// pre-split at those marks.
class TrafficLedger {
 public:
  explicit TrafficLedger(const cluster::Topology& topology);

  TrafficLedger(const TrafficLedger&) = delete;
  TrafficLedger& operator=(const TrafficLedger&) = delete;

  /// Records `bytes` of class `cls` moving from `from` to `to`; either end
  /// may be kClientEndpoint (not both). Self-transfers (local reads) are
  /// captured but not counted -- they never touch the network.
  void record(cluster::NodeId from, cluster::NodeId to, double bytes,
              TransferClass cls);

  /// Bytes of `cls` over every route.
  double class_bytes(TransferClass cls) const;
  /// Bytes of every class over `route`.
  double route_bytes(Route route) const;

  /// The independently accumulated grand total.
  double total_bytes() const { return total_.load(std::memory_order_relaxed); }
  /// Node-to-node bytes that stayed inside one rack.
  double intra_rack_bytes() const { return route_bytes(Route::kIntraRack); }
  double cross_rack_bytes() const { return route_bytes(Route::kCrossRack); }
  /// Bytes exchanged with off-cluster clients in either direction (write
  /// uploads, read/degraded-read deliveries). Neither intra- nor
  /// cross-rack: they leave the cluster regardless of topology.
  double client_bytes() const {
    return route_bytes(Route::kToClient) + route_bytes(Route::kFromClient);
  }
  double node_sent_bytes(cluster::NodeId node) const;
  double node_received_bytes(cluster::NodeId node) const;

  /// Zeroes every counter and discards captured records; the capture
  /// switch keeps its state.
  void reset();

  /// Switches capture on or off. Records already captured stay until
  /// drained.
  void set_capture(bool on) { capture_.store(on, std::memory_order_relaxed); }
  bool capturing() const { return capture_.load(std::memory_order_relaxed); }

  /// Ends the current flow: the records captured since the previous mark
  /// form one dependency-chained operation. No-op when that span is empty
  /// or capture is off.
  void mark();

  /// Returns all records captured since the last drain, in capture order.
  std::vector<TransferRecord> drain();

  /// Like drain(), but split at the mark() boundaries; records after the
  /// last mark form a final flow. Flows are never empty.
  std::vector<std::vector<TransferRecord>> drain_flows();

 private:
  /// Index of the (cls, route) bucket in buckets_: class-major.
  static std::size_t bucket_index(TransferClass cls, Route route) {
    return static_cast<std::size_t>(cls) * kNumRoutes +
           static_cast<std::size_t>(route);
  }

  const cluster::Topology topology_;
  std::atomic<double> total_{0.0};
  std::array<std::atomic<double>, kNumTransferClasses * kNumRoutes> buckets_{};
  std::vector<std::atomic<double>> sent_;
  std::vector<std::atomic<double>> received_;

  std::atomic<bool> capture_{false};
  std::mutex capture_mu_;
  std::vector<TransferRecord> records_;  // guarded by capture_mu_
  std::vector<std::size_t> marks_;  // indices into records_, increasing
};

}  // namespace dblrep::net
