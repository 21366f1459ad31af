#include "net/transfer.h"

#include <utility>

#include "common/check.h"

namespace dblrep::net {

namespace {

/// Relaxed CAS-loop accumulation (portable across libstdc++ versions
/// without fetch_add(double)). Relaxed is enough: readers only consume the
/// totals after the recording threads have been joined (or between
/// operations), and the counters carry no other data the stores would need
/// to publish.
void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

double load(const std::atomic<double>& value) {
  return value.load(std::memory_order_relaxed);
}

}  // namespace

const char* to_string(TransferClass cls) {
  switch (cls) {
    case TransferClass::kClientWrite:
      return "client_write";
    case TransferClass::kClientRead:
      return "client_read";
    case TransferClass::kRepair:
      return "repair";
    case TransferClass::kScrub:
      return "scrub";
    case TransferClass::kRetier:
      return "retier";
  }
  return "unknown";
}

TrafficLedger::TrafficLedger(const cluster::Topology& topology)
    : topology_(topology),
      sent_(topology.num_nodes),
      received_(topology.num_nodes) {}

void TrafficLedger::record(cluster::NodeId from, cluster::NodeId to,
                           double bytes, TransferClass cls) {
  DBLREP_CHECK_GE(bytes, 0.0);
  DBLREP_DCHECK(from != kClientEndpoint || to != kClientEndpoint);
  if (capturing()) {
    std::lock_guard<std::mutex> lock(capture_mu_);
    records_.push_back({from, to, bytes, cls});
  }
  if (from == to) return;
  atomic_add(total_, bytes);
  if (from == kClientEndpoint) {
    atomic_add(buckets_[bucket_index(cls, Route::kFromClient)], bytes);
    atomic_add(received_[static_cast<std::size_t>(to)], bytes);
    return;
  }
  atomic_add(sent_[static_cast<std::size_t>(from)], bytes);
  if (to == kClientEndpoint) {
    atomic_add(buckets_[bucket_index(cls, Route::kToClient)], bytes);
    return;
  }
  const Route route = topology_.same_rack(from, to) ? Route::kIntraRack
                                                    : Route::kCrossRack;
  atomic_add(buckets_[bucket_index(cls, route)], bytes);
  atomic_add(received_[static_cast<std::size_t>(to)], bytes);
}

double TrafficLedger::class_bytes(TransferClass cls) const {
  double sum = 0;
  for (std::size_t r = 0; r < kNumRoutes; ++r) {
    sum += load(buckets_[bucket_index(cls, static_cast<Route>(r))]);
  }
  return sum;
}

double TrafficLedger::route_bytes(Route route) const {
  double sum = 0;
  for (std::size_t c = 0; c < kNumTransferClasses; ++c) {
    sum += load(buckets_[bucket_index(static_cast<TransferClass>(c), route)]);
  }
  return sum;
}

double TrafficLedger::node_sent_bytes(cluster::NodeId node) const {
  DBLREP_CHECK_GE(node, 0);
  DBLREP_CHECK_LT(static_cast<std::size_t>(node), sent_.size());
  return load(sent_[static_cast<std::size_t>(node)]);
}

double TrafficLedger::node_received_bytes(cluster::NodeId node) const {
  DBLREP_CHECK_GE(node, 0);
  DBLREP_CHECK_LT(static_cast<std::size_t>(node), received_.size());
  return load(received_[static_cast<std::size_t>(node)]);
}

void TrafficLedger::reset() {
  total_.store(0.0, std::memory_order_relaxed);
  for (auto& v : buckets_) v.store(0.0, std::memory_order_relaxed);
  for (auto& v : sent_) v.store(0.0, std::memory_order_relaxed);
  for (auto& v : received_) v.store(0.0, std::memory_order_relaxed);
  (void)drain();
}

void TrafficLedger::mark() {
  if (!capturing()) return;
  std::lock_guard<std::mutex> lock(capture_mu_);
  if (marks_.empty() ? records_.empty() : marks_.back() == records_.size()) {
    return;  // nothing captured since the previous boundary
  }
  marks_.push_back(records_.size());
}

std::vector<TransferRecord> TrafficLedger::drain() {
  std::lock_guard<std::mutex> lock(capture_mu_);
  marks_.clear();
  return std::exchange(records_, {});
}

std::vector<std::vector<TransferRecord>> TrafficLedger::drain_flows() {
  std::lock_guard<std::mutex> lock(capture_mu_);
  std::vector<std::vector<TransferRecord>> flows;
  std::size_t begin = 0;
  marks_.push_back(records_.size());
  for (const std::size_t end : marks_) {
    if (end > begin) {
      flows.emplace_back(records_.begin() + static_cast<std::ptrdiff_t>(begin),
                         records_.begin() + static_cast<std::ptrdiff_t>(end));
    }
    begin = end;
  }
  marks_.clear();
  records_.clear();
  return flows;
}

}  // namespace dblrep::net
