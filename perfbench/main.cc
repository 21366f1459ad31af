// perfbench --workload <ingest_scan|degraded_repair|terasort> --seed <n>
//           --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints human-readable metric lines, then one result JSON line. Exits 1 if
// any output check failed, 2 on a usage error.
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"
#include "trace.h"

int main(int argc, char** argv) {
  perfbench::Options o;
  if (argc % 2 != 1) {
    std::cerr << "perfbench: every flag takes one value\n";
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--out") {
      o.out_dir = value;
    } else {
      std::cerr << "perfbench: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (!(o.seconds > 0)) {
    std::cerr << "perfbench: --seconds must be positive\n";
    return 2;
  }
  perfbench::Report report;
  if (o.workload == "ingest_scan") {
    perfbench::run_ingest_scan(o, report);
  } else if (o.workload == "degraded_repair") {
    perfbench::run_degraded_repair(o, report);
  } else if (o.workload == "terasort") {
    perfbench::run_terasort(o, report);
  } else {
    std::cerr << "perfbench: unknown workload '" << o.workload << "'\n";
    return 2;
  }
  return report.finish();
}
