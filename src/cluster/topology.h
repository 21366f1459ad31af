// Physical cluster model: nodes, racks, and link/disk service rates.
//
// Mirrors the paper's two testbeds (Section 4): a single-rack private
// 10 Gbps LAN; set-up 1 has 25 dual-core data nodes with 128 MB blocks,
// set-up 2 has 9 four-core servers with 512 MB blocks. Rack awareness
// matters only for the heptagon-local code (its three groups map to three
// racks), so the topology supports multiple racks but defaults to one.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace dblrep::cluster {

using NodeId = int;

struct Topology {
  std::size_t num_nodes = 25;
  std::size_t num_racks = 1;

  /// Sustained sequential disk read rate per node (bytes/s). Commodity
  /// 2014-era SATA: ~100 MB/s.
  double disk_bytes_per_sec = 100e6;

  /// Per-node NIC line rate (bytes/s); 10 Gbps in both paper set-ups.
  double nic_bytes_per_sec = 1.25e9;

  /// Aggregate switch capacity (bytes/s) shared by all cross-node flows.
  double switch_bytes_per_sec = 4 * 1.25e9;

  /// Round-robin rack assignment.
  int rack_of(NodeId node) const {
    DBLREP_CHECK_GE(node, 0);
    DBLREP_CHECK_LT(static_cast<std::size_t>(node), num_nodes);
    return static_cast<int>(static_cast<std::size_t>(node) % num_racks);
  }

  bool same_rack(NodeId a, NodeId b) const { return rack_of(a) == rack_of(b); }
};

/// The paper's experimental set-up 1: 25 data nodes, 2 map + 1 reduce
/// slots, 128 MB blocks, dual-core IBM laptops on 10 Gbps Ethernet.
Topology setup1_topology();

/// Set-up 2: 9 data nodes, 4 map + 2 reduce slots, 512 MB blocks,
/// 4-core servers.
Topology setup2_topology();

}  // namespace dblrep::cluster
