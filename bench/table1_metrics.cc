// Reproduces Table 1: storage overhead, code length, and MTTDL (25-node
// system) for 3-rep, pentagon, heptagon, heptagon-local, (10,9) RAID+m and
// (12,11) RAID+m, side by side with the paper's published values.
//
// Usage: table1_metrics [--csv]
//
// Model: exact per-placement-group absorbing CTMC (node MTBF 10 years,
// node MTTR 1 hour, parallel repair, rank-oracle fatality), system MTTDL =
// group MTTDL / number of disjoint groups in 25 nodes. See
// docs/paper_map.md for calibration and the tier-3 discussion.
#include <iostream>
#include <string>

#include "common/table.h"
#include "ec/registry.h"
#include "reliability/markov.h"
#include "report.h"

namespace {

struct PaperRow {
  const char* spec;
  const char* paper_name;
  double paper_mttdl_years;
};

constexpr PaperRow kPaperRows[] = {
    {"3-rep", "3-rep", 1.20e9},
    {"pentagon", "pentagon", 1.05e8},
    {"heptagon", "heptagon", 2.68e7},
    {"heptagon-local", "heptagon-local", 8.34e9},
    {"raidm-9", "(10,9) RAID+m", 2.03e9},
    {"raidm-11", "(12,11) RAID+m", 6.50e8},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dblrep;
  bool csv = false;
  bench::Flags flags;
  flags.add("csv", &csv);
  if (!flags.parse(argc, argv)) return 2;

  rel::ReliabilityParams params;  // documented defaults
  TextTable table({"Code", "Storage Overhead", "Code Length",
                   "MTTDL (yrs, paper)", "MTTDL (yrs, ours)", "states"});
  for (const auto& row : kPaperRows) {
    const auto code = ec::make_code(row.spec).value();
    const rel::GroupMarkovModel model(*code, params);
    table.add_row({row.paper_name,
                   fmt_double(code->params().storage_overhead(), 2) + "x",
                   std::to_string(code->params().num_nodes),
                   fmt_sci(row.paper_mttdl_years),
                   fmt_sci(model.mttdl_system_years()),
                   std::to_string(model.num_states())});
  }

  std::cout << "Table 1: storage overhead, code length and MTTDL of the\n"
               "coding schemes (25-node system; node MTBF "
            << params.node_mtbf_hours / 8766.0 << " y, MTTR "
            << params.node_mttr_hours << " h)\n\n";
  if (csv) {
    std::cout << table.to_csv();
  } else {
    std::cout << table.to_string();
  }
  std::cout << "\nNotes:\n"
               "  * overhead and code length columns match the paper "
               "exactly (structural).\n"
               "  * MTTDL: tier-2 ordering (heptagon < pentagon < 3-rep) and\n"
               "    raidm-11 < raidm-9 reproduce the paper; the exact chain\n"
               "    credits parity recovery fully, so 3-failure-tolerant\n"
               "    codes land higher than the paper's model (see "
               "docs/paper_map.md).\n";
  return 0;
}
