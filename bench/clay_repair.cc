// Sub-packetized repair frontier: the repair bytes the Clay-style MSR
// scheme and the piggybacked RS scheme move for a single node failure,
// against the plain RS baseline at *equal storage overhead* -- the
// comparison the paper's Table 2 makes for codes without inherent
// replication. Emits BENCH_clay_repair.json.
//
// Gates (asserted at exit, mirroring the PR acceptance bar):
//  * clay-6-4 worst-case single-node repair bytes strictly below rs-4-2
//    (both 1.5x overhead): 20 sub-chunks = 2.5 blocks vs 4 blocks;
//  * pgy-10-4 worst-case *data*-node repair bytes strictly below rs-10-4
//    (both 1.4x overhead): at most 14 half-blocks = 7 blocks vs 10;
//  * exact accounting: the bytes the MiniDfs wire actually moves for a
//    node repair equal the plan's network_bytes() sum to the byte;
//  * beta * helpers exactness for clay: every one of the d = 5 helpers
//    ships exactly beta = 4 sub-chunks, for every failed node;
//  * baselines pinned: rs-4-2 repairs at 4 blocks, rs-10-4 at 10.
//
// Runs on the inline pool so every number is a deterministic function of
// the seed.
//
// Usage: clay_repair [--block-size=BYTES] [--stripes=N] [--json=PATH]
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/bytes.h"
#include "common/check.h"
#include "ec/registry.h"
#include "hdfs/minidfs.h"
#include "report.h"

namespace {

using namespace dblrep;

struct Sample {
  std::string scheme;
  std::size_t alpha = 1;
  double overhead = 0;
  // Plan-level single-node repair cost across all failed-node choices.
  std::size_t repair_units_min = 0;
  std::size_t repair_units_max = 0;
  double repair_bytes_min = 0;
  double repair_bytes_max = 0;
  std::size_t data_repair_units_max = 0;  // failed node in [0, k)
  // End-to-end node repair on the MiniDfs wire.
  double e2e_measured_bytes = 0;
  double e2e_planned_bytes = 0;
  bool e2e_exact = false;
  bool e2e_restored = false;
  bool stored_overhead_exact = false;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t block_size = 4096;
  std::size_t stripes = 4;
  std::string json_path = "BENCH_clay_repair.json";
  bench::Flags flags;
  flags.add("block-size", &block_size);
  flags.add("stripes", &stripes);
  flags.add("json", &json_path);
  if (!flags.parse(argc, argv)) return 2;
  if (block_size == 0 || stripes == 0) {
    return flags.fail("--block-size and --stripes must be nonzero");
  }

  constexpr std::uint64_t kSeed = 31;
  const std::vector<std::string> specs = {"clay-6-4", "rs-4-2", "pgy-10-4",
                                          "rs-10-4"};
  std::map<std::string, Sample> by_scheme;
  bench::Report report("clay_repair");

  for (const auto& spec : specs) {
    const auto code = ec::make_code(spec).value();
    const std::size_t alpha = code->sub_chunks();
    DBLREP_CHECK_EQ(block_size % alpha, 0u);

    Sample s;
    s.scheme = spec;
    s.alpha = alpha;
    s.overhead = code->params().storage_overhead();

    // ---- plan-level repair cost, every failed-node choice ---------------
    for (std::size_t j = 0; j < code->num_nodes(); ++j) {
      const auto plan = code->plan_node_repair(static_cast<ec::NodeIndex>(j));
      DBLREP_CHECK_MSG(plan.is_ok(), plan.status().to_string());
      const std::size_t units = plan->network_units();
      const double bytes =
          static_cast<double>(plan->network_bytes(block_size, alpha));
      if (j == 0 || units < s.repair_units_min) s.repair_units_min = units;
      if (units > s.repair_units_max) s.repair_units_max = units;
      if (j == 0 || bytes < s.repair_bytes_min) s.repair_bytes_min = bytes;
      if (bytes > s.repair_bytes_max) s.repair_bytes_max = bytes;
      if (j < code->data_blocks() && units > s.data_repair_units_max) {
        s.data_repair_units_max = units;
      }
      // beta * helpers exactness for the MSR point: each of the d = n - 1
      // helpers ships exactly beta = alpha / 2 sub-chunks.
      if (spec == "clay-6-4") {
        std::map<ec::NodeIndex, std::size_t> per_helper;
        for (const auto& send : plan->aggregates) ++per_helper[send.from_node];
        const std::size_t beta = alpha / 2;
        const std::string node = "clay-6-4 node " + std::to_string(j);
        report.gate(node + " repair helpers", code->num_nodes() - 1,
                    per_helper.size(),
                    per_helper.size() == code->num_nodes() - 1);
        // Some helper's count other than beta, or beta when all match.
        std::size_t worst = beta;
        for (const auto& [helper, count] : per_helper) {
          if (count != beta) worst = count;
        }
        report.gate(node + " sub-chunks per helper", beta, worst,
                    worst == beta);
      }
    }

    // ---- end-to-end: node repair on the MiniDfs wire --------------------
    {
      cluster::Topology topology;  // 25 nodes, 1 rack
      hdfs::MiniDfs dfs(topology, kSeed, nullptr);
      const std::size_t data_bytes =
          stripes * code->data_blocks() * block_size;
      const Buffer data = random_buffer(data_bytes, 7);
      DBLREP_CHECK(dfs.write_file("/f", data, spec, block_size).is_ok());

      // Stored bytes must land exactly at the advertised overhead.
      s.stored_overhead_exact =
          dfs.stored_bytes() ==
          static_cast<std::size_t>(s.overhead * static_cast<double>(data_bytes));

      const auto info = *dfs.stat("/f");
      const cluster::NodeId victim =
          dfs.catalog().stripe(info.stripes.front()).group[0];
      // Planned cost: sum, over every stripe with a slot on the victim, of
      // that stripe's single-node plan bytes for the code-local index the
      // victim holds.
      for (cluster::StripeId id : info.stripes) {
        const auto& group = dfs.catalog().stripe(id).group;
        for (std::size_t j = 0; j < group.size(); ++j) {
          if (group[j] != victim) continue;
          const auto plan =
              code->plan_node_repair(static_cast<ec::NodeIndex>(j));
          s.e2e_planned_bytes += static_cast<double>(
              plan->network_bytes(block_size, alpha));
          break;
        }
      }
      DBLREP_CHECK(dfs.fail_node(victim).is_ok());
      dfs.traffic().reset();
      DBLREP_CHECK(dfs.repair_node(victim).is_ok());
      s.e2e_measured_bytes = dfs.traffic().total_bytes();
      s.e2e_exact = s.e2e_measured_bytes == s.e2e_planned_bytes;
      const auto back = dfs.read_file("/f");
      s.e2e_restored = back.is_ok() && *back == data;
    }

    std::fprintf(stderr,
                 "%-9s alpha=%zu overhead=%.2f  repair units [%zu, %zu] "
                 "bytes [%.0f, %.0f]  e2e %.0f/%.0f exact=%d restored=%d\n",
                 spec.c_str(), s.alpha, s.overhead, s.repair_units_min,
                 s.repair_units_max, s.repair_bytes_min, s.repair_bytes_max,
                 s.e2e_measured_bytes, s.e2e_planned_bytes,
                 s.e2e_exact ? 1 : 0, s.e2e_restored ? 1 : 0);
    by_scheme[spec] = s;
  }

  // ---- acceptance gates --------------------------------------------------
  const Sample& clay = by_scheme.at("clay-6-4");
  const Sample& rs42 = by_scheme.at("rs-4-2");
  const Sample& pgy = by_scheme.at("pgy-10-4");
  const Sample& rs104 = by_scheme.at("rs-10-4");

  // Baselines pinned: plain RS repairs k whole blocks.
  for (const auto& [rs, k] : {std::pair{&rs42, std::size_t{4}},
                              std::pair{&rs104, std::size_t{10}}}) {
    report.gate(rs->scheme + " best repair units", k, rs->repair_units_min,
                rs->repair_units_min == k);
    report.gate(rs->scheme + " worst repair units", k, rs->repair_units_max,
                rs->repair_units_max == k);
  }
  // Equal storage overhead is what makes the comparison fair.
  report.gate("clay-6-4 overhead equals rs-4-2", rs42.overhead, clay.overhead,
              clay.overhead == rs42.overhead);
  report.gate("pgy-10-4 overhead equals rs-10-4", rs104.overhead,
              pgy.overhead, pgy.overhead == rs104.overhead);
  // The frontier: strictly fewer repair bytes at equal overhead.
  report.gate("clay-6-4 worst repair bytes below rs-4-2",
              rs42.repair_bytes_min, clay.repair_bytes_max,
              clay.repair_bytes_max < rs42.repair_bytes_min);
  const double pgy_data_worst =
      static_cast<double>(pgy.data_repair_units_max) *
      static_cast<double>(block_size / pgy.alpha);
  report.gate("pgy-10-4 worst data-node repair bytes below rs-10-4",
              rs104.repair_bytes_min, pgy_data_worst,
              pgy_data_worst < rs104.repair_bytes_min);
  // Exact byte accounting + data integrity + overhead, all schemes.
  for (const auto& spec : specs) {
    const Sample& s = by_scheme.at(spec);
    report.gate(spec + " e2e repair bytes equal the plans'",
                s.e2e_planned_bytes, s.e2e_measured_bytes, s.e2e_exact);
    report.gate(spec + " file intact after repair", s.e2e_restored);
    report.gate(spec + " stored bytes at advertised overhead",
                s.stored_overhead_exact);
  }

  auto& json = report.json();
  json.field("block_size", block_size).field("stripes", stripes);
  json.begin_array("results");
  for (const auto& spec : specs) {
    const Sample& s = by_scheme.at(spec);
    json.begin_object()
        .field("scheme", s.scheme)
        .field("alpha", s.alpha)
        .field("storage_overhead", s.overhead)
        .field("repair_units_min", s.repair_units_min)
        .field("repair_units_max", s.repair_units_max)
        .field("repair_bytes_min", s.repair_bytes_min)
        .field("repair_bytes_max", s.repair_bytes_max)
        .field("data_repair_units_max", s.data_repair_units_max)
        .field("e2e_measured_bytes", s.e2e_measured_bytes)
        .field("e2e_planned_bytes", s.e2e_planned_bytes)
        .field("e2e_exact", s.e2e_exact)
        .field("e2e_restored", s.e2e_restored)
        .field("stored_overhead_exact", s.stored_overhead_exact)
        .end();
  }
  json.end();
  return report.finish(json_path);
}
