// Reproduces Fig. 4: Terasort on set-up 1 (25 data nodes, 2 map + 1 reduce
// slots, 128 MB blocks): job time, network traffic (GB) and data locality
// vs load for 3-rep / 2-rep / pentagon / heptagon, with Hadoop's delay
// scheduler for map-task assignment.
//
// Usage: fig4_setup1 [--csv] [--trials=N] [--degraded]
//   --degraded additionally runs the paper's future-work scenario (two
//   failed nodes; on-the-fly repairs with partial parities).
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"
#include "ec/registry.h"
#include "mapred/terasort_sim.h"
#include "report.h"

namespace {

using namespace dblrep;

void run_panel(const std::vector<std::string>& codes,
               const std::vector<double>& loads, mapred::JobConfig config,
               bool csv) {
  TextTable time_table({"Load (%)", "3-rep", "2-rep", "pentagon", "heptagon"});
  TextTable traffic_table(
      {"Load (%)", "3-rep", "2-rep", "pentagon", "heptagon"});
  TextTable locality_table(
      {"Load (%)", "3-rep", "2-rep", "pentagon", "heptagon"});

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
    std::vector<std::string> t{fmt_double(loads[i] * 100, 0)};
    std::vector<std::string> g{fmt_double(loads[i] * 100, 0)};
    std::vector<std::string> l{fmt_double(loads[i] * 100, 0)};
    for (std::size_t c = 0; c < codes.size(); ++c) {
      t.push_back(fmt_double(grid[c][i].job_seconds, 1) + " s");
      g.push_back(fmt_double(grid[c][i].map_input_traffic_bytes / 1e9, 2) +
                  " GB");
      l.push_back(fmt_pct(grid[c][i].locality));
    }
    time_table.add_row(t);
    traffic_table.add_row(g);
    locality_table.add_row(l);
  }
  std::cout << "\nJob time:\n"
            << (csv ? time_table.to_csv() : time_table.to_string());
  std::cout << "\nNetwork traffic (map-input bytes crossing the network):\n"
            << (csv ? traffic_table.to_csv() : traffic_table.to_string());
  std::cout << "\nData locality:\n"
            << (csv ? locality_table.to_csv() : locality_table.to_string());
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  int trials = 10;
  bool degraded = false;
  bench::Flags flags;
  flags.add("csv", &csv);
  flags.add("trials", &trials);
  flags.add("degraded", &degraded);
  if (!flags.parse(argc, argv)) return 2;
  if (trials <= 0) return flags.fail("--trials must be positive");

  const std::vector<std::string> codes = {"3-rep", "2-rep", "pentagon",
                                          "heptagon"};
  const std::vector<double> loads = {0.50, 0.75, 1.00};

  mapred::JobConfig config = mapred::setup1_config();
  config.trials = trials;

  std::cout << "Fig. 4: Terasort on set-up 1 (25 nodes, 2 map slots, 128 MB "
               "blocks), delay scheduling, "
            << trials << " trials per point\n";
  run_panel(codes, loads, config, csv);

  if (degraded) {
    std::cout << "\n== Degraded mode (nodes 3 and 7 down; Section 5 "
                 "future-work scenario) ==\n";
    config.down_nodes = {3, 7};
    run_panel(codes, loads, config, csv);
  }

  std::cout << "\nExpected shapes (paper): 2-rep tracks 3-rep at moderate\n"
               "load; pentagon/heptagon lose locality and pay traffic in\n"
               "proportion; job-time penalty is clear with only 2 map slots\n"
               "(values in the ~70-110 s band).\n";
  return 0;
}
