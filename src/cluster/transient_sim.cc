#include "cluster/transient_sim.h"

#include "sim/event_queue.h"

namespace dblrep::cluster {

/// Bytes one node holds: a repair rebuilds all of them.
constexpr double kNodeDataBytes = 1.0e12;

double repair_traffic_multiplier(const ec::CodeScheme& code) {
  const auto plan = code.plan_node_repair(0);
  DBLREP_CHECK_MSG(plan.is_ok(), "single-node repair must always be plannable");
  const double rebuilt =
      static_cast<double>(code.layout().slots_on_node(0).size());
  // Units transferred per unit rebuilt: both scale by the sub-chunk count,
  // so the ratio is a byte ratio for sub-packetized schemes too.
  return static_cast<double>(plan->network_units()) / rebuilt;
}

TransientSimReport simulate_transient_failures(
    const ec::CodeScheme& code, const TransientSimConfig& config) {
  DBLREP_CHECK_GT(config.num_nodes, 0u);
  Rng rng(config.seed);
  sim::EventQueue queue;
  TransientSimReport report;

  const double multiplier = repair_traffic_multiplier(code);
  const double repair_bytes_per_node = kNodeDataBytes * multiplier;

  struct NodeState {
    bool down = false;
    std::uint64_t outage_id = 0;  // guards stale timeout events
  };
  std::vector<NodeState> nodes(config.num_nodes);

  // Per-node outage arrival processes. Each callback schedules the node's
  // next outage, the outage end, and the repair-timeout check.
  std::function<void(std::size_t)> schedule_next_outage =
      [&](std::size_t node) {
        const double gap = rng.exponential(config.outage_rate_per_hour);
        queue.schedule_after(gap, [&, node] {
          if (queue.now() > config.horizon_hours) return;
          if (nodes[node].down) {
            schedule_next_outage(node);  // already down; try again later
            return;
          }
          ++report.outages;
          nodes[node].down = true;
          const std::uint64_t outage = ++nodes[node].outage_id;
          const double duration = rng.exponential(1.0 / config.mean_outage_hours);
          report.node_down_hours += duration;
          queue.schedule_after(duration, [&, node] {
            nodes[node].down = false;
            schedule_next_outage(node);
          });
          // Timeout check: if the node is still in *this* outage when the
          // grace period expires, the NameNode starts re-replication.
          queue.schedule_after(config.repair_timeout_hours, [&, node, outage] {
            if (nodes[node].down && nodes[node].outage_id == outage) {
              ++report.repairs_triggered;
              report.repair_network_bytes += repair_bytes_per_node;
            }
          });
        });
      };
  for (std::size_t node = 0; node < config.num_nodes; ++node) {
    schedule_next_outage(node);
  }

  queue.run(config.horizon_hours);
  return report;
}

}  // namespace dblrep::cluster
