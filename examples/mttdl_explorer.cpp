// Explore the reliability model: MTTDL of every paper code as node MTBF,
// repair speed, and the unrecoverable-read-error knob vary.
//
// Usage: mttdl_explorer [mtbf_years] [mttr_hours] [read_error_prob]
//   e.g. mttdl_explorer 10 1.5 0
//        mttdl_explorer 10 1.5 2e-6    (enable the URE ablation)
#include <cstdlib>
#include <iostream>

#include "common/table.h"
#include "ec/registry.h"
#include "reliability/markov.h"

int main(int argc, char** argv) {
  using namespace dblrep;

  rel::ReliabilityParams params;
  if (argc > 1) {
    params.node_mtbf_hours = std::atof(argv[1]) * rel::kHoursPerYear;
  }
  if (argc > 2) params.node_mttr_hours = std::atof(argv[2]);
  if (argc > 3) params.block_read_error_prob = std::atof(argv[3]);

  std::cout << "MTTDL exploration: MTBF = "
            << params.node_mtbf_hours / rel::kHoursPerYear << " y, MTTR = "
            << params.node_mttr_hours << " h, URE prob = "
            << params.block_read_error_prob << ", system = "
            << params.system_nodes << " nodes\n\n";

  TextTable table({"Code", "tolerance", "groups", "MTTDL group (h)",
                   "MTTDL system (yrs)"});
  for (const auto& spec : ec::paper_code_specs()) {
    const auto code = ec::make_code(spec).value();
    if (code->num_nodes() > params.system_nodes) continue;
    const rel::GroupMarkovModel model(*code, params);
    table.add_row({code->params().name,
                   std::to_string(code->params().fault_tolerance),
                   std::to_string(model.num_groups()),
                   fmt_sci(model.mttdl_group_hours()),
                   fmt_sci(model.mttdl_system_years())});
  }
  std::cout << table.to_string();

  std::cout << "\nCross-check (Monte Carlo at 1000x inflated failure rate, "
               "pentagon):\n";
  rel::ReliabilityParams hot = params;
  hot.node_mtbf_hours = params.node_mtbf_hours / 1000.0;
  const auto pentagon = ec::make_code("pentagon").value();
  const rel::GroupMarkovModel chain(*pentagon, hot);
  const double mc =
      rel::simulate_group_mttdl_hours(*pentagon, hot, 42, 2000);
  std::cout << "  chain: " << fmt_sci(chain.mttdl_group_hours())
            << " h,  monte-carlo: " << fmt_sci(mc) << " h\n";
  return 0;
}
