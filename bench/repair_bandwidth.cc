// Reproduces the repair-bandwidth claims of Sections 2.1 and 3.1:
//
//  * pentagon single-node repair = 4 blocks (pure repair-by-transfer);
//  * pentagon two-node repair = 10 blocks total via partial parities;
//  * degraded read of a doubly-lost block: pentagon 3 blocks vs
//    (10,9) RAID+m 9 blocks;
//  * the same numbers measured end-to-end on the mini-HDFS wire;
//  * heptagon-local: local repair stays inside the rack.
//
// The Section 2.1/3.1 counts of the plan table and the wire rows are gated
// exactly in BENCH_repair_bandwidth.json; a failed gate exits 1.
//
// Usage: repair_bandwidth [--csv]
#include <iostream>
#include <map>
#include <string>

#include "common/table.h"
#include "ec/local_polygon.h"
#include "ec/registry.h"
#include "hdfs/minidfs.h"
#include "report.h"

namespace {

using namespace dblrep;

/// Plan-level numbers for a code: single repair, double repair, degraded
/// read of a doubly-lost block.
struct PlanNumbers {
  std::size_t single_repair = 0;
  std::size_t double_repair = 0;
  std::size_t degraded_read = 0;
};

PlanNumbers plan_numbers(const ec::CodeScheme& code) {
  PlanNumbers out;
  // All schemes in this table are alpha == 1, so units == blocks.
  out.single_repair = code.plan_node_repair(0)->network_units();
  if (code.params().fault_tolerance >= 2 && code.num_nodes() >= 2) {
    out.double_repair = code.plan_multi_node_repair({0, 1})->network_units();
    // Find a symbol fully lost when nodes 0 and 1 fail.
    for (std::size_t sym = 0; sym < code.num_symbols(); ++sym) {
      bool fully_lost = true;
      for (std::size_t slot : code.layout().slots_of_symbol(sym)) {
        const auto node = code.layout().node_of_slot(slot);
        if (node != 0 && node != 1) {
          fully_lost = false;
          break;
        }
      }
      if (fully_lost) {
        out.degraded_read =
            code.plan_degraded_read(sym, {0, 1})->network_units();
        break;
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  bench::Flags flags;
  flags.add("csv", &csv);
  if (!flags.parse(argc, argv)) return 2;

  bench::Report report("repair_bandwidth");
  auto& json = report.json();
  json.begin_array("plans");
  std::map<std::string, PlanNumbers> plans;
  TextTable table({"Code", "1-node repair", "2-node repair",
                   "degraded read (2 lost)", "paper says"});
  const struct {
    const char* spec;
    const char* note;
  } rows[] = {
      {"pentagon", "10 blocks 2-node; 3-block degraded read"},
      {"heptagon", "(3(n-2)+1 = 16; n-2 = 5)"},
      {"raidm-9", "9-block degraded read"},
      {"raidm-11", "(k = 11)"},
      {"3-rep", "plain copies"},
      {"2-rep", "plain copies"},
      {"rs-10-4", "k-block repair, no replicas"},
  };
  for (const auto& row : rows) {
    const auto code = ec::make_code(row.spec).value();
    const auto n = plan_numbers(*code);
    plans[row.spec] = n;
    json.begin_object()
        .field("code", row.spec)
        .field("single_repair_blocks", n.single_repair)
        .field("double_repair_blocks", n.double_repair)
        .field("degraded_read_blocks", n.degraded_read)
        .end();
    table.add_row({code->params().name, std::to_string(n.single_repair),
                   n.double_repair ? std::to_string(n.double_repair) : "-",
                   n.degraded_read ? std::to_string(n.degraded_read) : "-",
                   row.note});
  }
  json.end();
  std::cout << "Repair bandwidth in blocks (Sections 2.1 and 3.1):\n\n"
            << (csv ? table.to_csv() : table.to_string());
  const auto gate_plan = [&](const std::string& spec, const char* what,
                             std::size_t PlanNumbers::*field,
                             std::size_t expected) {
    const std::size_t measured = plans.at(spec).*field;
    report.gate(spec + " plan " + what + " blocks",
                static_cast<double>(expected), static_cast<double>(measured),
                measured == expected);
  };
  gate_plan("pentagon", "1-node repair", &PlanNumbers::single_repair, 4);
  gate_plan("pentagon", "2-node repair", &PlanNumbers::double_repair, 10);
  gate_plan("pentagon", "degraded read", &PlanNumbers::degraded_read, 3);
  gate_plan("heptagon", "1-node repair", &PlanNumbers::single_repair, 6);
  gate_plan("heptagon", "2-node repair", &PlanNumbers::double_repair, 16);
  gate_plan("heptagon", "degraded read", &PlanNumbers::degraded_read, 5);
  gate_plan("raidm-9", "degraded read", &PlanNumbers::degraded_read, 9);

  // End-to-end on the mini-HDFS wire.
  std::cout << "\nEnd-to-end on the mini-DFS wire (64-byte blocks):\n\n";
  TextTable wire({"Scenario", "blocks moved", "expectation"});
  json.begin_array("wire");
  // One measured row: printed, written to the JSON, and gated exactly.
  const auto add_wire = [&](const std::string& scenario, double blocks,
                            double expected, const std::string& note) {
    wire.add_row({scenario, fmt_double(blocks, 0), note});
    json.begin_object()
        .field("scenario", scenario)
        .field("blocks", blocks)
        .field("expected", expected)
        .end();
    report.gate(scenario + " wire blocks", expected, blocks,
                blocks == expected);
  };
  {
    hdfs::MiniDfs dfs(cluster::Topology{}, 1);
    const Buffer data = random_buffer(64 * 9, 1);
    (void)dfs.write_file("/f", data, "pentagon", 64);
    const auto info = *dfs.stat("/f");
    const auto group = dfs.catalog().stripe(info.stripes[0]).group;
    (void)dfs.fail_node(group[0]);
    dfs.traffic().reset();
    (void)dfs.repair_node(group[0]);
    add_wire("pentagon 1-node repair", dfs.traffic().total_bytes() / 64, 4,
             "4 (repair-by-transfer)");
  }
  {
    hdfs::MiniDfs dfs(cluster::Topology{}, 2);
    const Buffer data = random_buffer(64 * 9, 2);
    (void)dfs.write_file("/f", data, "pentagon", 64);
    const auto info = *dfs.stat("/f");
    const auto group = dfs.catalog().stripe(info.stripes[0]).group;
    (void)dfs.fail_node(group[0]);
    (void)dfs.fail_node(group[1]);
    dfs.traffic().reset();
    (void)dfs.repair_all();
    add_wire("pentagon 2-node repair", dfs.traffic().total_bytes() / 64, 10,
             "10 (6 copies + 3 partial parities + 1)");
  }
  {
    hdfs::MiniDfs dfs(cluster::Topology{}, 3);
    const Buffer data = random_buffer(64 * 9, 3);
    (void)dfs.write_file("/f", data, "pentagon", 64);
    const auto info = *dfs.stat("/f");
    const auto& code = *dfs.code_for("/f").value();
    for (std::size_t slot : code.layout().slots_of_symbol(0)) {
      (void)dfs.fail_node(dfs.catalog().node_of({info.stripes[0], slot}));
    }
    dfs.traffic().reset();
    (void)dfs.read_block("/f", 0);
    add_wire("pentagon degraded read", dfs.traffic().total_bytes() / 64, 3,
             "3 partial parities");
  }
  {
    hdfs::MiniDfs dfs(cluster::Topology{}, 4);
    const Buffer data = random_buffer(64 * 9, 4);
    (void)dfs.write_file("/f", data, "raidm-9", 64);
    const auto info = *dfs.stat("/f");
    const auto& code = *dfs.code_for("/f").value();
    for (std::size_t slot : code.layout().slots_of_symbol(0)) {
      (void)dfs.fail_node(dfs.catalog().node_of({info.stripes[0], slot}));
    }
    dfs.traffic().reset();
    (void)dfs.read_block("/f", 0);
    add_wire("(10,9) RAID+m degraded read", dfs.traffic().total_bytes() / 64, 9,
             "9 (whole-stripe decode)");
  }
  json.end();
  std::cout << (csv ? wire.to_csv() : wire.to_string());

  // Heptagon-local rack locality of repairs.
  {
    ec::LocalPolygonCode hl(7);
    const auto plan = hl.plan_multi_node_repair({2, 4});
    std::size_t rack_local = 0;
    for (const auto& send : plan->aggregates) {
      if (hl.rack_of_node(send.from_node) == 0) ++rack_local;
    }
    std::cout << "\nheptagon-local 2-node repair inside one local: "
              << plan->network_units() << " blocks, " << rack_local
              << " of them sourced rack-locally (expected: all).\n";
  }
  return report.finish("BENCH_repair_bandwidth.json");
}
