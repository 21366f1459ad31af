// Repair traffic under transient failures -- the Section 1 motivation for
// double-replication codes, quantified: one simulated year of a 25-node
// cluster where nodes suffer short outages and the NameNode re-replicates
// after a grace timeout. Repair-by-transfer codes pay 1x the lost data in
// network traffic; Reed-Solomon pays k x (the cited "XORing elephants"
// problem), which is why HDFS-RAID reserves RS for cold data.
//
// Usage: transient_repair [--csv]
#include <iostream>
#include <string>

#include "cluster/transient_sim.h"
#include "common/table.h"
#include "ec/registry.h"
#include "report.h"

int main(int argc, char** argv) {
  using namespace dblrep;
  bool csv = false;
  bench::Flags flags;
  flags.add("csv", &csv);
  if (!flags.parse(argc, argv)) return 2;

  cluster::TransientSimConfig config;
  std::cout << "One simulated year, " << config.num_nodes
            << " nodes, ~1 outage/node/month (mean "
            << config.mean_outage_hours * 60 << " min), repair timeout "
            << config.repair_timeout_hours * 60 << " min, 1 TB/node\n\n";

  TextTable table({"Code", "repair multiplier", "outages", "repairs",
                   "masked", "repair traffic"});
  for (const std::string spec :
       {"3-rep", "2-rep", "pentagon", "heptagon", "heptagon-local", "raidm-9",
        "rs-10-4"}) {
    const auto code = ec::make_code(spec).value();
    const auto report = cluster::simulate_transient_failures(*code, config);
    table.add_row({code->params().name,
                   fmt_double(cluster::repair_traffic_multiplier(*code), 2) + "x",
                   std::to_string(report.outages),
                   std::to_string(report.repairs_triggered),
                   fmt_pct(report.masked_fraction()),
                   format_bytes(report.repair_network_bytes)});
  }
  std::cout << (csv ? table.to_csv() : table.to_string());

  // Timeout ablation for the pentagon: a longer grace period masks more
  // transient outages at the cost of a longer degraded window.
  std::cout << "\nTimeout ablation (pentagon):\n";
  TextTable ablation({"timeout (min)", "repairs", "masked", "repair traffic",
                      "down-hours"});
  for (double minutes : {0.0, 5.0, 15.0, 30.0, 60.0}) {
    cluster::TransientSimConfig c = config;
    c.repair_timeout_hours = minutes / 60.0;
    const auto code = ec::make_code("pentagon").value();
    const auto report = cluster::simulate_transient_failures(*code, c);
    ablation.add_row({fmt_double(minutes, 0),
                      std::to_string(report.repairs_triggered),
                      fmt_pct(report.masked_fraction()),
                      format_bytes(report.repair_network_bytes),
                      fmt_double(report.node_down_hours, 1)});
  }
  std::cout << (csv ? ablation.to_csv() : ablation.to_string());
  return 0;
}
