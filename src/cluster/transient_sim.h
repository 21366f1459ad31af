// Transient-failure repair-traffic simulation.
//
// Section 1 of the paper motivates codes with inherent replication partly
// by repair economics: transient node failures "are the norm" in large
// systems (Ford et al.), and HDFS only re-replicates a node's blocks after
// a timeout. A code's repair-traffic multiplier -- how many blocks cross
// the network per block rebuilt -- then directly scales the bandwidth bill:
// repair-by-transfer polygon codes and mirrored schemes pay 1x, while a
// Reed-Solomon code pays k x (the "XORing elephants" problem).
//
// This discrete-event simulation (built on sim::EventQueue) models a
// cluster over a configurable horizon: nodes suffer transient outages of
// random duration; outages that outlive the repair timeout trigger a full
// node rebuild whose traffic is computed from the code's actual repair
// plans. Reported metrics: repair events, repair bytes, and node-down
// hours (degraded-read exposure).
#pragma once

#include <cstdint>

#include "cluster/topology.h"
#include "common/rng.h"
#include "ec/code.h"

namespace dblrep::cluster {

struct TransientSimConfig {
  std::size_t num_nodes = 25;
  double horizon_hours = 24.0 * 365;   // one simulated year
  double outage_rate_per_hour = 1.0 / (24.0 * 30);  // ~1 outage/node/month
  double mean_outage_hours = 0.25;     // most outages are minutes
  double repair_timeout_hours = 0.25;  // HDFS-style grace period
  std::uint64_t seed = 1;
};

struct TransientSimReport {
  std::size_t outages = 0;
  std::size_t repairs_triggered = 0;   // outages that outlived the timeout
  double repair_network_bytes = 0;
  double node_down_hours = 0;          // integral of down-node count

  /// Fraction of outages that healed within the timeout (no repair cost).
  double masked_fraction() const {
    if (outages == 0) return 1.0;
    return 1.0 - static_cast<double>(repairs_triggered) /
                     static_cast<double>(outages);
  }
};

/// Average network blocks transferred per block rebuilt when one node of
/// `code` is repaired (1.0 for repair-by-transfer/replication/mirroring,
/// k for Reed-Solomon).
double repair_traffic_multiplier(const ec::CodeScheme& code);

/// Runs the simulation for one code.
TransientSimReport simulate_transient_failures(const ec::CodeScheme& code,
                                               const TransientSimConfig& config);

}  // namespace dblrep::cluster
