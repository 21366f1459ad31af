// Reproduces Fig. 5: Terasort on set-up 2 (9 data nodes, 4 map + 2 reduce
// slots, 512 MB blocks): network traffic and data locality vs load for
// 3-rep / 2-rep / pentagon.
//
// Usage: fig5_setup2 [--csv] [--trials=N]
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "ec/registry.h"
#include "mapred/terasort_sim.h"
#include "report.h"

using namespace dblrep;

int main(int argc, char** argv) {
  bool csv = false;
  int trials = 10;
  bench::Flags flags;
  flags.add("csv", &csv);
  flags.add("trials", &trials);
  if (!flags.parse(argc, argv)) return 2;
  if (trials <= 0) return flags.fail("--trials must be positive");

  const std::vector<std::string> codes = {"3-rep", "2-rep", "pentagon"};
  const std::vector<double> loads = {0.25, 0.50, 0.75, 1.00};

  mapred::JobConfig config = mapred::setup2_config();
  config.trials = trials;

  TextTable traffic_table({"Load (%)", "3-rep", "2-rep", "pentagon"});
  TextTable locality_table({"Load (%)", "3-rep", "2-rep", "pentagon"});
  TextTable time_table({"Load (%)", "3-rep", "2-rep", "pentagon"});

  std::vector<std::vector<mapred::JobMetrics>> grid;
  for (const auto& spec : codes) {
    const auto code = ec::make_code(spec).value();
    std::vector<mapred::JobMetrics> row;
    for (double load : loads) {
      sched::DelayScheduler scheduler;
      config.load = load;
      row.push_back(mapred::run_terasort(*code, scheduler, config));
    }
    grid.push_back(row);
  }
  for (std::size_t i = 0; i < loads.size(); ++i) {
    std::vector<std::string> g{fmt_double(loads[i] * 100, 0)};
    std::vector<std::string> l{fmt_double(loads[i] * 100, 0)};
    std::vector<std::string> t{fmt_double(loads[i] * 100, 0)};
    for (std::size_t c = 0; c < codes.size(); ++c) {
      g.push_back(fmt_double(grid[c][i].map_input_traffic_bytes / 1e9, 2) +
                  " GB");
      l.push_back(fmt_pct(grid[c][i].locality));
      t.push_back(fmt_double(grid[c][i].job_seconds, 1) + " s");
    }
    traffic_table.add_row(g);
    locality_table.add_row(l);
    time_table.add_row(t);
  }

  std::cout << "Fig. 5: Terasort on set-up 2 (9 nodes, 4 map slots, 512 MB "
               "blocks), delay scheduling, "
            << trials << " trials per point\n";
  std::cout << "\nNetwork traffic (map-input bytes crossing the network):\n"
            << (csv ? traffic_table.to_csv() : traffic_table.to_string());
  std::cout << "\nData locality:\n"
            << (csv ? locality_table.to_csv() : locality_table.to_string());
  std::cout << "\nJob time (measured in the paper, not plotted):\n"
            << (csv ? time_table.to_csv() : time_table.to_string());
  std::cout << "\nExpected shapes (paper): with 4 map slots the pentagon's\n"
               "locality stays close to 2-rep through 75% load, so traffic\n"
               "and job time stay close too.\n";
  return 0;
}
