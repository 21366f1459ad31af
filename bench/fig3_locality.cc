// Reproduces Fig. 3: simulated map-task data locality (%) vs offered load
// for 2-rep / pentagon / heptagon under delay scheduling (DS) and
// max-matching (MM), on a 25-node system with mu = 2, 4, 8 map slots per
// node -- plus the fourth panel comparing the modified peeling algorithm
// against DS and MM at mu = 4.
//
// Usage: fig3_locality [--csv] [--trials=N]
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "ec/registry.h"
#include "report.h"
#include "sched/locality_sim.h"

using namespace dblrep;

int main(int argc, char** argv) {
  bool csv = false;
  int trials = 40;
  bench::Flags flags;
  flags.add("csv", &csv);
  flags.add("trials", &trials);
  if (!flags.parse(argc, argv)) return 2;
  if (trials <= 0) return flags.fail("--trials must be positive");

  const std::vector<std::string> codes = {"2-rep", "pentagon", "heptagon"};
  const std::vector<double> loads = {0.25, 0.50, 0.75, 1.00};

  std::cout << "Fig. 3: data locality (%) vs load, 25-node system, "
            << trials << " trials per point\n";

  // Panels 1-3: DS vs MM at mu = 2, 4, 8.
  for (int mu : {2, 4, 8}) {
    sched::LocalitySweepConfig config;
    config.slots_per_node = mu;
    config.loads = loads;
    config.trials = trials;

    TextTable table({"Load (%)", "2-rep DS", "2-rep MM", "pent DS", "pent MM",
                     "hept DS", "hept MM"});
    std::vector<std::vector<std::string>> columns;
    for (const auto& spec : codes) {
      const auto code = ec::make_code(spec).value();
      sched::DelayScheduler ds;
      sched::MaxMatchingScheduler mm;
      const auto ds_points = sched::run_locality_sweep(*code, ds, config);
      const auto mm_points = sched::run_locality_sweep(*code, mm, config);
      std::vector<std::string> ds_col, mm_col;
      for (std::size_t i = 0; i < loads.size(); ++i) {
        ds_col.push_back(fmt_pct(ds_points[i].mean_locality));
        mm_col.push_back(fmt_pct(mm_points[i].mean_locality));
      }
      columns.push_back(ds_col);
      columns.push_back(mm_col);
    }
    for (std::size_t i = 0; i < loads.size(); ++i) {
      table.add_row({fmt_double(loads[i] * 100, 0), columns[0][i],
                     columns[1][i], columns[2][i], columns[3][i],
                     columns[4][i], columns[5][i]});
    }
    std::cout << "\n-- mu = " << mu << " map slots per node --\n";
    std::cout << (csv ? table.to_csv() : table.to_string());
  }

  // Panel 4: peeling vs DS vs MM at mu = 4 for the coded schemes.
  {
    sched::LocalitySweepConfig config;
    config.slots_per_node = 4;
    config.loads = loads;
    config.trials = trials;
    TextTable table({"Load (%)", "pent DS", "pent peel", "pent MM", "hept DS",
                     "hept peel", "hept MM"});
    std::vector<std::vector<std::string>> columns;
    for (const std::string spec : {"pentagon", "heptagon"}) {
      const auto code = ec::make_code(spec).value();
      sched::DelayScheduler ds;
      sched::PeelingScheduler peel;
      sched::MaxMatchingScheduler mm;
      for (sched::Scheduler* s :
           std::vector<sched::Scheduler*>{&ds, &peel, &mm}) {
        const auto points = sched::run_locality_sweep(*code, *s, config);
        std::vector<std::string> col;
        for (const auto& p : points) col.push_back(fmt_pct(p.mean_locality));
        columns.push_back(col);
      }
    }
    for (std::size_t i = 0; i < loads.size(); ++i) {
      table.add_row({fmt_double(loads[i] * 100, 0), columns[0][i],
                     columns[1][i], columns[2][i], columns[3][i],
                     columns[4][i], columns[5][i]});
    }
    std::cout << "\n-- mu = 4, modified peeling algorithm panel --\n";
    std::cout << (csv ? table.to_csv() : table.to_string());
  }

  std::cout << "\nExpected shapes (paper): coded schemes lose locality at\n"
               "mu=2 (heptagon more than pentagon); the loss shrinks as mu\n"
               "grows (>90% at 100% load with mu=8); peeling sits between\n"
               "the delay scheduler and the max-matching benchmark.\n";
  return 0;
}
