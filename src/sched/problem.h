// The map-task-assignment problem of Section 3.2.
//
// The paper models map-task assignment as matching on a bipartite graph:
// tasks on the left (one per data block the job must process), nodes on the
// right (each with mu map slots). A task's edges go to the nodes that hold
// a replica of its block -- so the placement rule of the chosen code fully
// determines the graph (Fig. 2): with 2-rep the two endpoints are random;
// with a polygon code both replicas sit on the stripe's placement group and
// up to n-1 co-located tasks share each node.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/check.h"

namespace dblrep::sched {

/// Cluster-level node id (0-based).
using NodeId = int;

struct TaskInfo {
  /// Nodes holding a live replica of this task's block (distinct; may be
  /// empty when every holder is down -- the task then runs remote with a
  /// degraded read).
  std::vector<NodeId> locations;
  /// Stripe the block belongs to (for stripe-aware schedulers/metrics).
  std::size_t stripe = 0;
  /// Index of the data block within its stripe (needed by degraded-read
  /// planning in the MapReduce simulator). For a code with α units per
  /// block this is not a symbol: the block is units b·α ... b·α+α-1.
  std::size_t symbol = 0;
};

struct AssignmentProblem {
  std::size_t num_nodes = 0;
  int slots_per_node = 0;  // mu
  std::vector<TaskInfo> tasks;
  /// Optional per-node slot override (empty = uniform slots_per_node);
  /// used to model down nodes (0 slots) during failure injection.
  std::vector<int> node_slots;

  int capacity(NodeId node) const {
    DBLREP_CHECK_GE(node, 0);
    DBLREP_CHECK_LT(static_cast<std::size_t>(node), num_nodes);
    if (node_slots.empty()) return slots_per_node;
    DBLREP_CHECK_EQ(node_slots.size(), num_nodes);
    return node_slots[static_cast<std::size_t>(node)];
  }

  std::size_t total_slots() const {
    std::size_t total = 0;
    for (std::size_t n = 0; n < num_nodes; ++n) {
      total += static_cast<std::size_t>(capacity(static_cast<NodeId>(n)));
    }
    return total;
  }
  /// Offered load as defined in Section 3.2: tasks / (mu * nodes).
  double load() const {
    return static_cast<double>(tasks.size()) /
           static_cast<double>(total_slots());
  }
};

/// Task id of an assignment slot; kUnassigned marks tasks that could not be
/// placed (only possible above 100% load in a single wave).
inline constexpr NodeId kUnassignedNode = -1;

struct Assignment {
  /// task_node[i] = node running task i (kUnassignedNode if unplaced).
  std::vector<NodeId> task_node;
  /// is_local[i] = task i runs on a node holding its block.
  std::vector<bool> is_local;

  std::size_t local_count() const;
  std::size_t assigned_count() const;
  /// Fraction of *assigned* tasks that are data-local -- the y-axis of
  /// Fig. 3 and the locality panels of Figs. 4-5.
  double locality() const;
};

/// Validates slot capacities and location consistency; contract-checks on
/// violation (scheduler bugs must not silently skew experiment results).
void check_assignment(const AssignmentProblem& problem,
                      const Assignment& assignment);

}  // namespace dblrep::sched
