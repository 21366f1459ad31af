#include "sched/workload.h"

#include <algorithm>
#include <cmath>

namespace dblrep::sched {

Workload make_workload(const ec::CodeScheme& code, std::size_t num_nodes,
                       int slots_per_node, std::size_t num_tasks, Rng& rng) {
  DBLREP_CHECK_GE(num_nodes, code.num_nodes());
  DBLREP_CHECK_GT(slots_per_node, 0);
  Workload workload;
  workload.problem.num_nodes = num_nodes;
  workload.problem.slots_per_node = slots_per_node;

  const std::size_t k = code.data_blocks();
  const std::size_t alpha = code.sub_chunks();
  const ec::StripeLayout& layout = code.layout();
  while (workload.problem.tasks.size() < num_tasks) {
    // Sample this stripe's placement group.
    StripePlacement placement;
    for (auto index : rng.sample_without_replacement(num_nodes, code.num_nodes())) {
      placement.group.push_back(static_cast<NodeId>(index));
    }
    const std::size_t stripe_id = workload.stripes.size();
    workload.stripes.push_back(placement);

    // One map task per data block, until the job size is reached (the last
    // stripe may be partially read).
    for (std::size_t block = 0;
         block < k && workload.problem.tasks.size() < num_tasks; ++block) {
      TaskInfo task;
      task.stripe = stripe_id;
      task.symbol = block;
      // The block's holders: the nodes with a replica of every one of its
      // units (unit block·α + a is sub-chunk a of the block).
      for (std::size_t slot : layout.slots_of_symbol(block * alpha)) {
        const ec::NodeIndex local = layout.node_of_slot(slot);
        bool holds_block = true;
        for (std::size_t a = 1; a < alpha && holds_block; ++a) {
          const auto& unit_slots = layout.slots_of_symbol(block * alpha + a);
          holds_block = std::any_of(
              unit_slots.begin(), unit_slots.end(),
              [&](std::size_t s) { return layout.node_of_slot(s) == local; });
        }
        if (holds_block) {
          task.locations.push_back(
              placement.group[static_cast<std::size_t>(local)]);
        }
      }
      workload.problem.tasks.push_back(std::move(task));
    }
  }
  return workload;
}

std::size_t tasks_for_load(double load, std::size_t num_nodes,
                           int slots_per_node) {
  DBLREP_CHECK_GT(load, 0.0);
  const double slots =
      static_cast<double>(num_nodes) * static_cast<double>(slots_per_node);
  const auto tasks = static_cast<std::size_t>(std::llround(load * slots));
  return std::max<std::size_t>(tasks, 1);
}

}  // namespace dblrep::sched
