// Ablation study for the task-assignment design choices behind the Fig. 3
// schedulers (see docs/paper_map.md):
//  * delay-scheduler skip budget D (0 = no patience .. 2N sweeps);
//  * stripe-aware vs basic peeling (the paper's "modified" peeling);
//  * headroom left to the max-matching optimum.
//
// Usage: sched_ablation [--csv] [--trials=N]
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "ec/registry.h"
#include "report.h"
#include "sched/locality_sim.h"

namespace {

using namespace dblrep;

double locality_of(const std::string& spec, sched::Scheduler& scheduler,
                   int mu, double load, int trials) {
  const auto code = ec::make_code(spec).value();
  sched::LocalitySweepConfig config;
  config.slots_per_node = mu;
  config.loads = {load};
  config.trials = trials;
  return sched::run_locality_sweep(*code, scheduler, config)[0].mean_locality;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  int trials = 30;
  bench::Flags flags;
  flags.add("csv", &csv);
  flags.add("trials", &trials);
  if (!flags.parse(argc, argv)) return 2;
  if (trials <= 0) return flags.fail("--trials must be positive");

  std::cout << "Scheduler ablations (25 nodes, mu=4, 100% load, " << trials
            << " trials)\n\n";

  // Ablation 1: delay-scheduler skip budget.
  {
    TextTable table({"skip budget D", "pentagon", "heptagon"});
    for (int budget : {0, 5, 12, 25, 50}) {
      sched::DelayScheduler ds(budget);
      table.add_row({std::to_string(budget),
                     fmt_pct(locality_of("pentagon", ds, 4, 1.0, trials)),
                     fmt_pct(locality_of("heptagon", ds, 4, 1.0, trials))});
    }
    std::cout << "Delay scheduling: locality vs skip budget\n"
              << (csv ? table.to_csv() : table.to_string()) << "\n";
  }

  // Ablation 2: peeling variants vs bounds.
  {
    TextTable table({"Scheduler", "pentagon", "heptagon", "2-rep"});
    sched::DelayScheduler ds;
    sched::PeelingScheduler basic(false);
    sched::PeelingScheduler modified(true);
    sched::MaxMatchingScheduler mm;
    const struct {
      const char* name;
      sched::Scheduler* scheduler;
    } rows[] = {
        {"delay scheduler", &ds},
        {"peeling (basic)", &basic},
        {"peeling (stripe-aware)", &modified},
        {"max matching (bound)", &mm},
    };
    for (const auto& row : rows) {
      table.add_row(
          {row.name,
           fmt_pct(locality_of("pentagon", *row.scheduler, 4, 1.0, trials)),
           fmt_pct(locality_of("heptagon", *row.scheduler, 4, 1.0, trials)),
           fmt_pct(locality_of("2-rep", *row.scheduler, 4, 1.0, trials))});
    }
    std::cout << "Assignment algorithms at full load\n"
              << (csv ? table.to_csv() : table.to_string()) << "\n";
  }

  // Ablation 3: where the locality loss comes from -- slots per node.
  {
    TextTable table({"mu", "pentagon MM", "heptagon MM"});
    sched::MaxMatchingScheduler mm;
    for (int mu : {1, 2, 3, 4, 6, 8}) {
      table.add_row({std::to_string(mu),
                     fmt_pct(locality_of("pentagon", mm, mu, 1.0, trials)),
                     fmt_pct(locality_of("heptagon", mm, mu, 1.0, trials))});
    }
    std::cout << "Optimal locality vs map slots (the array-code "
                 "concentration effect)\n"
              << (csv ? table.to_csv() : table.to_string());
  }
  return 0;
}
