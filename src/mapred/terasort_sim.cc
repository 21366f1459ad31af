#include "mapred/terasort_sim.h"

#include <algorithm>
#include <limits>

#include "sched/workload.h"

namespace dblrep::mapred {

namespace {

/// One map task's input-read phase as a fluid flow: it draws on a source
/// disk (shared with that node's other readers) and, when crossing the
/// network, on the switch fabric (shared with all other remote flows).
struct ReadFlow {
  std::size_t task = 0;
  double start_time = 0;
  double remaining_bytes = 0;
  cluster::NodeId disk_node = 0;  // whose disk serves the bytes
  bool uses_net = false;
  bool active = false;
  bool done = false;
  double finish_time = 0;
};

/// Advances the fluid processor-sharing system until all flows finish.
/// Rates: disk share = disk_bps / readers(disk); network flows additionally
/// capped by nic and switch_bps / active_net_flows.
void run_fluid_reads(std::vector<ReadFlow>& flows,
                     const cluster::Topology& topology) {
  double now = 0;
  for (;;) {
    // Activate flows whose start time has arrived.
    std::size_t disk_readers_total = 0;
    std::vector<int> disk_readers(topology.num_nodes, 0);
    int net_flows = 0;
    double next_activation = std::numeric_limits<double>::infinity();
    bool any_pending = false;
    for (auto& flow : flows) {
      if (flow.done) continue;
      if (!flow.active) {
        if (flow.start_time <= now) {
          flow.active = true;
        } else {
          next_activation = std::min(next_activation, flow.start_time);
          any_pending = true;
          continue;
        }
      }
      ++disk_readers[static_cast<std::size_t>(flow.disk_node)];
      ++disk_readers_total;
      if (flow.uses_net) ++net_flows;
    }
    if (disk_readers_total == 0) {
      if (!any_pending) return;  // all done
      now = next_activation;
      continue;
    }
    // Per-flow rates under the current population.
    auto rate_of = [&](const ReadFlow& flow) {
      double rate = topology.disk_bytes_per_sec /
                    disk_readers[static_cast<std::size_t>(flow.disk_node)];
      if (flow.uses_net) {
        rate = std::min(rate, topology.nic_bytes_per_sec);
        rate = std::min(rate, topology.switch_bytes_per_sec / net_flows);
      }
      return rate;
    };
    // Next event: earliest flow completion or activation.
    double next_event = next_activation;
    for (const auto& flow : flows) {
      if (flow.done || !flow.active) continue;
      next_event =
          std::min(next_event, now + flow.remaining_bytes / rate_of(flow));
    }
    // Advance everyone to the event time.
    const double dt = next_event - now;
    for (auto& flow : flows) {
      if (flow.done || !flow.active) continue;
      flow.remaining_bytes -= dt * rate_of(flow);
      if (flow.remaining_bytes <= 1e-6) {
        flow.done = true;
        flow.finish_time = next_event;
      }
    }
    now = next_event;
  }
}

}  // namespace

JobMetrics run_terasort(const ec::CodeScheme& code, sched::Scheduler& scheduler,
                        const JobConfig& config) {
  DBLREP_CHECK_GT(config.trials, 0);
  Rng rng(config.seed);
  JobMetrics totals;

  const std::size_t num_nodes = config.topology.num_nodes;
  const std::size_t num_tasks =
      sched::tasks_for_load(config.load, num_nodes, config.map_slots);

  for (int trial = 0; trial < config.trials; ++trial) {
    Rng trial_rng = rng.fork();
    sched::Workload workload =
        sched::make_workload(code, num_nodes, config.map_slots, num_tasks,
                             trial_rng);

    // Apply failure injection: down nodes serve no replicas and run no
    // tasks. Remember the original replica holders for degraded reads.
    std::vector<std::vector<sched::NodeId>> all_locations;
    all_locations.reserve(workload.problem.tasks.size());
    for (auto& task : workload.problem.tasks) {
      all_locations.push_back(task.locations);
      if (!config.down_nodes.empty()) {
        std::erase_if(task.locations, [&](sched::NodeId n) {
          return config.down_nodes.contains(n);
        });
      }
    }
    if (!config.down_nodes.empty()) {
      workload.problem.node_slots.assign(num_nodes, config.map_slots);
      for (cluster::NodeId n : config.down_nodes) {
        workload.problem.node_slots[static_cast<std::size_t>(n)] = 0;
      }
    }

    // Classify tasks up front: directly servable, degraded (on-the-fly
    // repair, Section 3.1), or unrunnable (data loss).
    double input_traffic = config.overhead_traffic_bytes;
    double degraded = 0;
    double degraded_bytes = 0;
    double unrunnable = 0;
    struct TaskPlanInfo {
      bool runnable = true;
      bool is_degraded = false;
      double read_bytes = 0;
      cluster::NodeId remote_source = 0;  // disk serving a non-local read
    };
    std::vector<TaskPlanInfo> task_plan(workload.problem.tasks.size());
    for (std::size_t t = 0; t < workload.problem.tasks.size(); ++t) {
      auto& info = task_plan[t];
      info.read_bytes = config.block_bytes;
      const auto& task = workload.problem.tasks[t];
      if (!task.locations.empty()) {
        info.remote_source = task.locations[0];
        continue;
      }
      // Every replica holder is down: plan the on-the-fly repair.
      const auto& placement = workload.stripes[task.stripe];
      std::set<ec::NodeIndex> failed;
      for (std::size_t i = 0; i < placement.group.size(); ++i) {
        if (config.down_nodes.contains(placement.group[i])) {
          failed.insert(static_cast<ec::NodeIndex>(i));
        }
      }
      const auto plan = code.plan_degraded_block(task.symbol, failed);
      if (!plan.is_ok()) {
        info.runnable = false;  // data loss: the block is unrecoverable
        ++unrunnable;
        continue;
      }
      info.is_degraded = true;
      ++degraded;
      info.read_bytes = static_cast<double>(
          plan->network_bytes(config.block_bytes, code.sub_chunks()));
      // Approximation: charge the read against the first contributing
      // node's disk (the fan-in of partial parities is spread thinner).
      info.remote_source = placement.group[static_cast<std::size_t>(
          plan->aggregates[0].from_node)];
    }

    // Execute in waves: when failures shrink capacity below the task
    // count, leftover tasks run after the current wave drains (as Hadoop
    // does); each wave is an assignment plus a fluid read simulation.
    std::vector<std::size_t> pending;
    for (std::size_t t = 0; t < workload.problem.tasks.size(); ++t) {
      if (task_plan[t].runnable) pending.push_back(t);
    }
    double map_makespan = 0;
    std::size_t local_tasks = 0;
    std::size_t assigned_tasks = 0;
    while (!pending.empty()) {
      sched::AssignmentProblem wave_problem;
      wave_problem.num_nodes = workload.problem.num_nodes;
      wave_problem.slots_per_node = workload.problem.slots_per_node;
      wave_problem.node_slots = workload.problem.node_slots;
      for (std::size_t t : pending) {
        wave_problem.tasks.push_back(workload.problem.tasks[t]);
      }
      const sched::Assignment assignment =
          scheduler.assign(wave_problem, trial_rng);

      std::vector<ReadFlow> flows;
      std::vector<double> penalties;
      std::vector<int> launched_on(num_nodes, 0);
      std::vector<std::size_t> still_pending;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        const std::size_t t = pending[i];
        const sched::NodeId node = assignment.task_node[i];
        if (node == sched::kUnassignedNode) {
          still_pending.push_back(t);
          continue;
        }
        ++assigned_tasks;
        if (assignment.is_local[i]) ++local_tasks;
        ReadFlow flow;
        flow.task = t;
        flow.start_time = config.task_stagger_seconds *
                          launched_on[static_cast<std::size_t>(node)]++;
        flow.remaining_bytes = task_plan[t].read_bytes;
        if (assignment.is_local[i]) {
          flow.disk_node = node;
          flow.uses_net = false;
          penalties.push_back(0.0);
        } else {
          flow.disk_node = task_plan[t].remote_source;
          flow.uses_net = true;
          input_traffic += task_plan[t].read_bytes;
          if (task_plan[t].is_degraded) {
            degraded_bytes += task_plan[t].read_bytes;
          }
          penalties.push_back(config.remote_penalty_seconds);
        }
        flows.push_back(flow);
      }
      if (flows.empty()) {
        // No capacity at all (the whole cluster is down): the remaining
        // tasks can never run.
        unrunnable += static_cast<double>(still_pending.size());
        break;
      }
      run_fluid_reads(flows, config.topology);
      double wave_makespan = 0;
      for (std::size_t i = 0; i < flows.size(); ++i) {
        wave_makespan =
            std::max(wave_makespan, flows[i].finish_time +
                                        config.map_cpu_seconds + penalties[i]);
      }
      map_makespan += wave_makespan;
      pending = std::move(still_pending);
    }
    const double locality_fraction =
        assigned_tasks > 0
            ? static_cast<double>(local_tasks) / static_cast<double>(assigned_tasks)
            : 1.0;

    // Terasort shuffle: map output == input, spread across reducers on
    // every live node; the (1 - 1/live) fraction crosses the switch.
    const std::size_t live_nodes = num_nodes - config.down_nodes.size();
    const double input_bytes =
        static_cast<double>(num_tasks) * config.block_bytes;
    const double shuffle_bytes =
        live_nodes > 0
            ? input_bytes * (1.0 - 1.0 / static_cast<double>(live_nodes))
            : 0.0;
    const double shuffle_seconds =
        shuffle_bytes / config.topology.switch_bytes_per_sec;

    totals.job_seconds += config.startup_seconds + map_makespan +
                          shuffle_seconds + config.reduce_tail_seconds;
    totals.map_input_traffic_bytes += input_traffic;
    totals.shuffle_traffic_bytes += shuffle_bytes;
    totals.locality += locality_fraction;
    totals.degraded_read_tasks += degraded;
    totals.degraded_read_bytes += degraded_bytes;
    totals.unrunnable_tasks += unrunnable;
  }

  const double n = config.trials;
  totals.job_seconds /= n;
  totals.map_input_traffic_bytes /= n;
  totals.shuffle_traffic_bytes /= n;
  totals.locality /= n;
  totals.degraded_read_tasks /= n;
  totals.degraded_read_bytes /= n;
  totals.unrunnable_tasks /= n;
  return totals;
}

JobConfig setup1_config() {
  JobConfig config;
  config.topology = cluster::setup1_topology();
  config.map_slots = 2;
  config.reduce_slots = 1;
  config.block_bytes = 128e6;
  config.map_cpu_seconds = 45.0;   // dual-core laptops sorting 128 MB
  config.startup_seconds = 20.0;
  config.remote_penalty_seconds = 12.0;
  return config;
}

JobConfig setup2_config() {
  JobConfig config;
  config.topology = cluster::setup2_topology();
  config.map_slots = 4;
  config.reduce_slots = 2;
  config.block_bytes = 512e6;
  config.map_cpu_seconds = 60.0;   // 4-core servers sorting 512 MB
  config.startup_seconds = 20.0;
  // Server-class machines stream remote blocks with far less overhead
  // than the laptops of set-up 1.
  config.remote_penalty_seconds = 8.0;
  return config;
}

}  // namespace dblrep::mapred
