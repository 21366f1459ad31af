// Rack-aware placement x two-stage repair layering: the cross-rack repair
// traffic each combination produces, swept over placement policy, scheme,
// and rack count, for both plain node repair and the mixed
// workload-under-repair scenario. Emits BENCH_rack_layering.json.
//
// The headline comparison (asserted at exit, mirroring the PR acceptance
// bar): at 3 racks, layered group_per_rack heptagon-local repair moves
// strictly fewer cross-rack bytes than rack-blind flat placement -- while
// layered and unlayered repairs of the same configuration leave every
// datanode byte-identical and move the same total number of bytes.
//
// Runs on the inline (serial) pool so every number is a deterministic
// function of the seed.
//
// Usage: rack_layering [--block-size=BYTES] [--stripes=N] [--racks=CSV]
//                      [--schemes=CSV] [--json=PATH] [--skip-mixed]
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cluster/placement.h"
#include "cluster/topology.h"
#include "common/bytes.h"
#include "common/check.h"
#include "ec/registry.h"
#include "hdfs/minidfs.h"
#include "hdfs/workload_driver.h"
#include "report.h"

namespace {

using namespace dblrep;

struct Sample {
  std::string scheme;
  std::string policy;
  std::size_t racks = 1;
  bool layered = false;
  // Node repair of one failed stripe-group member.
  double repair_total_bytes = 0;
  double repair_cross_rack_bytes = 0;
  double repair_intra_rack_bytes = 0;
  bool repair_bytes_identical = true;  // vs the unlayered twin run
  // Closed-loop clients + concurrent repair_all (2 failed nodes).
  double mixed_total_bytes = 0;
  double mixed_cross_rack_bytes = 0;
  double mixed_client_bytes = 0;
  std::size_t mixed_errors = 0;
};

/// FNV-1a over every stored block (address + bytes) of every node.
/// Deliberately excludes traffic totals: layering changes *where* bytes
/// flow, never what ends up stored.
std::uint64_t stored_fingerprint(hdfs::MiniDfs& dfs, std::size_t num_nodes) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  };
  for (std::size_t n = 0; n < num_nodes; ++n) {
    auto& dn = dfs.datanode(static_cast<cluster::NodeId>(n));
    for (const auto& address : dn.stored_addresses()) {
      mix(address.stripe);
      mix(address.slot);
      const auto bytes = dn.get(address);
      if (!bytes.is_ok()) continue;
      for (std::uint8_t b : *bytes) h = (h ^ b) * 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t block_size = 4096;
  std::size_t stripes = 4;
  std::vector<std::size_t> rack_counts = {1, 3, 9};
  std::vector<std::string> schemes = {"heptagon-local", "rs-10-4", "pentagon"};
  std::string json_path = "BENCH_rack_layering.json";
  bool skip_mixed = false;
  bench::Flags flags;
  flags.add("block-size", &block_size);
  flags.add("stripes", &stripes);
  flags.add("racks", &rack_counts);
  flags.add("schemes", &schemes);
  flags.add("json", &json_path);
  flags.add("skip-mixed", &skip_mixed);
  if (!flags.parse(argc, argv)) return 2;
  if (block_size == 0 || stripes == 0 || rack_counts.empty()) {
    return flags.fail("--block-size, --stripes, --racks must be set");
  }

  constexpr std::size_t kNumNodes = 27;  // divides evenly into 1/3/9 racks
  constexpr std::uint64_t kSeed = 17;

  std::vector<Sample> samples;
  // Fingerprint of the unlayered run, keyed by (scheme, policy, racks).
  std::map<std::string, std::uint64_t> unlayered_fingerprint;

  for (const std::size_t racks : rack_counts) {
    cluster::Topology topology;
    topology.num_nodes = kNumNodes;
    topology.num_racks = racks;
    std::fprintf(stderr, "== %zu rack(s) ==\n", racks);

    for (const auto& spec : schemes) {
      const auto code = ec::make_code(spec).value();
      const std::size_t data_bytes =
          stripes * code->data_blocks() * block_size;
      const Buffer data = random_buffer(data_bytes, 99);

      for (const auto policy : cluster::all_placement_policies()) {
        for (const bool layered : {false, true}) {
          hdfs::MiniDfsOptions options;
          options.placement = policy;
          options.layered_repair = layered;

          Sample sample;
          sample.scheme = spec;
          sample.policy = cluster::to_string(policy);
          sample.racks = racks;
          sample.layered = layered;

          // ---- node repair: fail one stripe-group member -------------
          {
            hdfs::MiniDfs dfs(topology, kSeed, nullptr, options);
            DBLREP_CHECK(
                dfs.write_file("/f", data, spec, block_size).is_ok());
            const auto group =
                dfs.catalog().stripe(dfs.stat("/f")->stripes.front()).group;
            DBLREP_CHECK(dfs.fail_node(group[2]).is_ok());
            dfs.traffic().reset();
            DBLREP_CHECK(dfs.repair_all().is_ok());
            sample.repair_total_bytes = dfs.traffic().total_bytes();
            sample.repair_cross_rack_bytes = dfs.traffic().cross_rack_bytes();
            sample.repair_intra_rack_bytes = dfs.traffic().intra_rack_bytes();

            // Layered and unlayered twins must repair to identical bytes.
            const std::string twin_key =
                spec + "|" + sample.policy + "|" + std::to_string(racks);
            const std::uint64_t fp = stored_fingerprint(dfs, kNumNodes);
            if (!layered) {
              unlayered_fingerprint[twin_key] = fp;
            } else {
              sample.repair_bytes_identical =
                  (fp == unlayered_fingerprint.at(twin_key));
            }
          }

          // ---- mixed: clients + concurrent repair of 2 failures ------
          if (!skip_mixed) {
            hdfs::MiniDfs dfs(topology, kSeed, nullptr, options);
            hdfs::WorkloadOptions wl;
            wl.code_spec = spec;
            wl.block_size = block_size;
            wl.stripes_per_file = 2;
            wl.preload_files = 4;
            wl.clients = 3;
            wl.ops_per_client = 30;
            wl.fail_nodes = 2;
            wl.repair_concurrently = true;
            wl.seed = 23;
            hdfs::WorkloadDriver driver(dfs, wl);
            auto report = driver.run();
            DBLREP_CHECK_MSG(report.is_ok(), report.status().to_string());
            DBLREP_CHECK_MSG(report->repair_status.is_ok(),
                             report->repair_status.to_string());
            sample.mixed_total_bytes = report->traffic_total_bytes;
            sample.mixed_cross_rack_bytes = report->traffic_cross_rack_bytes;
            sample.mixed_client_bytes = report->traffic_client_bytes;
            sample.mixed_errors = report->total_errors();
          }

          std::fprintf(
              stderr,
              "  %-15s %-14s layered=%d  repair %7.0f KB total, %7.0f KB "
              "cross-rack (identical=%d)  mixed cross %7.0f KB errors %zu\n",
              spec.c_str(), sample.policy.c_str(), layered ? 1 : 0,
              sample.repair_total_bytes / 1024,
              sample.repair_cross_rack_bytes / 1024,
              sample.repair_bytes_identical ? 1 : 0,
              sample.mixed_cross_rack_bytes / 1024, sample.mixed_errors);
          samples.push_back(sample);
        }
      }
    }
  }

  // ---- acceptance gates --------------------------------------------------
  bench::Report report("rack_layering");
  auto find_sample = [&](const std::string& scheme, const std::string& policy,
                         std::size_t racks, bool layered) -> const Sample* {
    for (const auto& s : samples) {
      if (s.scheme == scheme && s.policy == policy && s.racks == racks &&
          s.layered == layered) {
        return &s;
      }
    }
    return nullptr;
  };
  // Layered repair must store the unlayered bytes, move the same total and
  // never more cross-rack bytes.
  for (const auto& s : samples) {
    if (!s.layered) continue;
    const std::string name = s.scheme + "/" + s.policy + " at " +
                             std::to_string(s.racks) + " racks: layered ";
    report.gate(name + "repair bytes identical to unlayered",
                s.repair_bytes_identical);
    const Sample* twin = find_sample(s.scheme, s.policy, s.racks, false);
    if (twin == nullptr) continue;
    report.gate(name + "cross-rack bytes within unlayered",
                twin->repair_cross_rack_bytes, s.repair_cross_rack_bytes,
                s.repair_cross_rack_bytes <= twin->repair_cross_rack_bytes);
    report.gate(name + "total bytes equal unlayered", twin->repair_total_bytes,
                s.repair_total_bytes,
                s.repair_total_bytes == twin->repair_total_bytes);
  }
  // The headline: layered group_per_rack heptagon-local at 3 racks beats
  // flat placement on cross-rack repair bytes, strictly.
  const Sample* hero = find_sample("heptagon-local", "group_per_rack", 3, true);
  const Sample* flat = find_sample("heptagon-local", "flat", 3, false);
  if (hero != nullptr && flat != nullptr) {
    report.gate(
        "layered group_per_rack heptagon-local cross-rack bytes below flat",
        flat->repair_cross_rack_bytes, hero->repair_cross_rack_bytes,
        hero->repair_cross_rack_bytes < flat->repair_cross_rack_bytes);
  }

  auto& json = report.json();
  json.field("block_size", block_size)
      .field("stripes", stripes)
      .field("num_nodes", kNumNodes);
  json.begin_array("results");
  for (const auto& s : samples) {
    json.begin_object()
        .field("scheme", s.scheme)
        .field("policy", s.policy)
        .field("racks", s.racks)
        .field("layered", s.layered)
        .field("repair_total_bytes", s.repair_total_bytes)
        .field("repair_cross_rack_bytes", s.repair_cross_rack_bytes)
        .field("repair_intra_rack_bytes", s.repair_intra_rack_bytes)
        .field("repair_bytes_identical_to_unlayered", s.repair_bytes_identical)
        .field("mixed_total_bytes", s.mixed_total_bytes)
        .field("mixed_cross_rack_bytes", s.mixed_cross_rack_bytes)
        .field("mixed_client_bytes", s.mixed_client_bytes)
        .field("mixed_errors", s.mixed_errors)
        .end();
  }
  json.end();
  return report.finish(json_path);
}
