#include "net/model.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace dblrep::net {

/// One transfer moving through its route. Heap-allocated and shared by the
/// per-hop events so the record outlives every scheduled callback.
struct ActiveTransfer {
  TransferRecord record;
  std::vector<std::size_t> route;
  NetworkModel::DeliveryCallback done;
};

NetworkModel::NetworkModel(sim::EventQueue& queue,
                           const cluster::Topology& topology,
                           const NetworkConfig& config)
    : queue_(&queue), topology_(topology), config_(config) {
  if (config_.throttle_repair) throttler_.emplace(config_.qos);
  nic_up_.reserve(topology_.num_nodes);
  nic_down_.reserve(topology_.num_nodes);
  for (std::size_t n = 0; n < topology_.num_nodes; ++n) {
    nic_up_.push_back(add_link("nic_up[" + std::to_string(n) + "]",
                               config_.nic));
    nic_down_.push_back(add_link("nic_down[" + std::to_string(n) + "]",
                                 config_.nic));
  }
  for (std::size_t r = 0; r < topology_.num_racks; ++r) {
    tor_up_.push_back(add_link("tor_up[" + std::to_string(r) + "]",
                               config_.tor));
    tor_down_.push_back(add_link("tor_down[" + std::to_string(r) + "]",
                                 config_.tor));
  }
  spine_ = add_link("spine", config_.spine);
}

std::size_t NetworkModel::add_link(std::string name,
                                   const LinkConfig& config) {
  DBLREP_CHECK_GT(config.bandwidth, 0.0);
  DBLREP_CHECK_GE(config.latency, 0.0);
  LinkState link;
  link.stats.name = std::move(name);
  link.stats.bandwidth = config.bandwidth;
  link.latency = config.latency;
  const std::size_t id = links_.size();
  links_.push_back(std::move(link));
  if (throttler_.has_value()) throttler_->add_link(id, config.bandwidth);
  return id;
}

std::vector<std::size_t> NetworkModel::route(cluster::NodeId from,
                                             cluster::NodeId to) const {
  const auto check_node = [&](cluster::NodeId node) {
    DBLREP_CHECK_GE(node, kClientEndpoint);
    DBLREP_CHECK_LT(node, static_cast<cluster::NodeId>(topology_.num_nodes));
  };
  check_node(from);
  check_node(to);
  if (from == to) return {};  // degenerate; delivered instantly

  if (from == kClientEndpoint) {
    // Client upload: enters at the spine, down through the target's rack.
    const std::size_t rack = static_cast<std::size_t>(topology_.rack_of(to));
    return {spine_, tor_down_[rack], nic_down_[static_cast<std::size_t>(to)]};
  }
  const std::size_t from_rack =
      static_cast<std::size_t>(topology_.rack_of(from));
  if (to == kClientEndpoint) {
    // Delivery to the off-cluster client: up and out through the spine.
    return {nic_up_[static_cast<std::size_t>(from)], tor_up_[from_rack],
            spine_};
  }
  const std::size_t to_rack = static_cast<std::size_t>(topology_.rack_of(to));
  if (from_rack == to_rack) {
    // The ToR switch itself is non-blocking: intra-rack transfers contend
    // only on the two NICs.
    return {nic_up_[static_cast<std::size_t>(from)],
            nic_down_[static_cast<std::size_t>(to)]};
  }
  return {nic_up_[static_cast<std::size_t>(from)], tor_up_[from_rack], spine_,
          tor_down_[to_rack], nic_down_[static_cast<std::size_t>(to)]};
}

void NetworkModel::start_transfer(const TransferRecord& t, sim::SimTime when,
                                  DeliveryCallback done) {
  DBLREP_CHECK_GE(t.bytes, 0.0);
  DBLREP_CHECK_GE(when, queue_->now());
  auto transfer = std::make_shared<ActiveTransfer>();
  transfer->record = t;
  transfer->route = route(t.from, t.to);
  transfer->done = std::move(done);

  // The transfer is in flight from injection on -- a repair transfer
  // waiting for tokens has entered the system even though no link holds
  // it yet.
  injected_bytes_ += t.bytes;
  in_flight_bytes_ += t.bytes;
  ++transfers_injected_;

  sim::SimTime enter = when;
  if (throttler_.has_value() && is_repair_class(t.cls) &&
      !transfer->route.empty()) {
    if (config_.qos.adaptive) {
      throttler_->observe_utilization(hottest_link_utilization(), when);
    }
    enter = throttler_->admit(transfer->route.front(), t.bytes, when);
  }
  if (transfer->route.empty()) {
    queue_->schedule_at(enter, [this, transfer] {
      deliver(transfer, queue_->now());
    });
    return;
  }
  queue_->schedule_at(enter, [this, transfer] { arrive(transfer, 0); });
}

void NetworkModel::arrive(const std::shared_ptr<ActiveTransfer>& transfer,
                          std::size_t hop) {
  const sim::SimTime now = queue_->now();
  LinkState& link = links_[transfer->route[hop]];
  const double bytes = transfer->record.bytes;

  link.stats.bytes_in += bytes;
  link.stats.held_bytes += bytes;
  ++link.stats.queue_depth;
  link.stats.max_queue_depth =
      std::max(link.stats.max_queue_depth, link.stats.queue_depth);
  ++link.stats.transfers;

  // FIFO store-and-forward: wait for the serializer, occupy it for the
  // transmission time, then propagate.
  const sim::SimTime start = std::max(now, link.busy_until);
  const double tx = bytes / link.stats.bandwidth;
  link.busy_until = start + tx;
  link.stats.busy_s += tx;
  link.window_busy_s += tx;
  link.stats.queue_delay_s.add(start - now);

  const sim::SimTime depart = start + tx + link.latency;
  const bool last_hop = hop + 1 == transfer->route.size();
  queue_->schedule_at(depart, [this, transfer, hop, last_hop, bytes] {
    LinkState& done_link = links_[transfer->route[hop]];
    done_link.stats.bytes_out += bytes;
    done_link.stats.held_bytes -= bytes;
    --done_link.stats.queue_depth;
    if (last_hop) {
      deliver(transfer, queue_->now());
    } else {
      arrive(transfer, hop + 1);
    }
  });
}

void NetworkModel::deliver(const std::shared_ptr<ActiveTransfer>& transfer,
                           sim::SimTime when) {
  const double bytes = transfer->record.bytes;
  delivered_bytes_ += bytes;
  in_flight_bytes_ -= bytes;
  delivered_class_bytes_[static_cast<std::size_t>(transfer->record.cls)] +=
      bytes;
  ++transfers_delivered_;
  if (transfer->done) transfer->done(when);
}

/// A dependency-chained operation in flight. Shared by the per-record
/// delivery callbacks; dropped when the last one fires.
struct FlowState {
  std::vector<TransferRecord> records;
  std::vector<std::size_t> pending;      // unmet dependency count
  std::vector<sim::SimTime> ready_time;  // max dep delivery time
  std::size_t remaining = 0;
  sim::SimTime last_delivery = 0.0;
  NetworkModel::DeliveryCallback done;
};

void NetworkModel::start_flow(std::vector<TransferRecord> records,
                              sim::SimTime when, DeliveryCallback done) {
  if (records.empty()) {
    queue_->schedule_at(when, [done = std::move(done), this] {
      if (done) done(queue_->now());
    });
    return;
  }
  // Dependency rule: record j waits for every *earlier* record i whose
  // destination node is j's source (an aggregator or relay can only forward
  // after its inputs arrive). Capture order is topological --
  // MiniDfs::record_plan_sends records a plan's sends in aggregate order,
  // and a relay's inputs have smaller indices -- so "earlier" keeps the
  // graph acyclic even when unrelated records share node ids. The client
  // endpoint never gates anything: uploads don't wait for deliveries.
  auto flow = std::make_shared<FlowState>();
  flow->records = std::move(records);
  const std::size_t n = flow->records.size();
  flow->pending.assign(n, 0);
  flow->ready_time.assign(n, when);
  flow->remaining = n;
  flow->done = std::move(done);

  for (std::size_t j = 0; j < n; ++j) {
    const cluster::NodeId source = flow->records[j].from;
    if (source == kClientEndpoint) continue;
    for (std::size_t i = 0; i < j; ++i) {
      if (flow->records[i].to == source) ++flow->pending[j];
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (flow->pending[j] == 0) release_flow_record(flow, j);
  }
}

void NetworkModel::release_flow_record(const std::shared_ptr<FlowState>& flow,
                                       std::size_t j) {
  start_transfer(
      flow->records[j], flow->ready_time[j],
      [this, flow, j](sim::SimTime delivered) {
        flow->last_delivery = std::max(flow->last_delivery, delivered);
        const cluster::NodeId dest = flow->records[j].to;
        if (dest != kClientEndpoint) {
          for (std::size_t k = j + 1; k < flow->records.size(); ++k) {
            if (flow->records[k].from != dest) continue;
            flow->ready_time[k] = std::max(flow->ready_time[k], delivered);
            DBLREP_CHECK_GT(flow->pending[k], 0u);
            if (--flow->pending[k] == 0) release_flow_record(flow, k);
          }
        }
        if (--flow->remaining == 0 && flow->done) {
          flow->done(flow->last_delivery);
        }
      });
}

double NetworkModel::hottest_link_utilization() {
  const sim::SimTime now = queue_->now();
  const double dt = now - util_window_start_;
  double hottest = 0.0;
  for (auto& link : links_) {
    if (dt > 0.0) {
      hottest = std::max(hottest, std::min(1.0, link.window_busy_s / dt));
    }
    link.window_busy_s = 0.0;
  }
  util_window_start_ = now;
  return hottest;
}

}  // namespace dblrep::net
