// Repair QoS on the link-level network model: what a repair storm does to
// foreground client-read tail latency, and what throttling buys back.
//
// For each scheme x layered on/off, the harness captures real transfer
// patterns from a MiniDfs (write preload -> client block reads -> fail one
// node -> repair_all), then replays the captured client reads into a
// net::NetworkModel four ways: alone (baseline), against the unthrottled
// repair storm, against the same storm paced by the QosThrottler, and
// against the throttler in load-adaptive mode. Per-read completion
// latencies come out of the simulation; the headline metric is
//
//     p99 degradation = p99(reads under storm) / p99(reads alone).
//
// Acceptance gates (asserted at exit, mirroring the PR bar):
//   * throttled repair holds p99 client-read degradation under --budget
//     for every scheme (layered runs), while the flat unthrottled storm
//     blows the budget for every scheme;
//   * the adaptive throttler finishes the storm no later than the fixed
//     throttler (it soaks up idle-link headroom);
//   * network conservation (chaos::check_network_conservation, drained
//     form) holds after every simulation run.
//
// Inline pool, fixed seeds, everything a deterministic function of the
// flags. Emits BENCH_repair_qos.json.
//
// Usage: repair_qos [--block-size=BYTES] [--files=N] [--stripes=N]
//                   [--reads=N] [--window-ms=MS] [--schemes=CSV]
//                   [--budget=X] [--json=PATH]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "common/bytes.h"
#include "common/check.h"
#include "common/rng.h"
#include "ec/registry.h"
#include "hdfs/minidfs.h"
#include "net/model.h"
#include "net/transfer.h"
#include "report.h"
#include "sim/event_queue.h"

namespace {

using namespace dblrep;

// 1 Gbps NICs with a 4x ToR and 8x spine: slow enough that a repair storm
// visibly queues, fast enough that runs stay instant. All results are
// ratios, so the absolute scale only sets the numbers' readability.
net::NetworkConfig fabric_config() {
  net::NetworkConfig config;
  config.nic = {1.25e8, 20e-6};
  config.tor = {5e8, 20e-6};
  config.spine = {1e9, 30e-6};
  return config;
}

// Repair budget: 10% of a NIC cluster-wide, 20% of any one entry link.
net::QosConfig repair_qos_config() {
  net::QosConfig qos;
  qos.cluster_rate = 1.25e7;
  qos.cluster_burst = 128 * 1024;
  qos.link_fraction = 0.2;
  qos.link_burst = 128 * 1024;
  return qos;
}

/// One captured workload: per-read transfer flows + the repair storm as
/// one flow per repaired stripe (TrafficLedger::mark boundaries) -- stripes
/// repair independently, so their flows all hit the fabric at t=0.
struct Capture {
  std::vector<std::vector<net::TransferRecord>> reads;
  std::vector<std::vector<net::TransferRecord>> storm;
  std::size_t storm_records = 0;
  double storm_bytes = 0;
};

struct SimOutcome {
  double p99_read_s = 0;
  double max_read_s = 0;
  double storm_makespan_s = 0;  // 0 when no storm was injected
  double repair_delivered_bytes = 0;
  bool conservation_ok = true;
  std::string violation;
};

struct Sample {
  std::string scheme;
  bool layered = false;
  std::size_t repair_records = 0;
  std::size_t repair_flows = 0;  // one per repaired stripe
  double storm_bytes = 0;
  SimOutcome baseline;
  SimOutcome unthrottled;
  SimOutcome throttled;
  SimOutcome adaptive;
};

double quantile(std::vector<double> xs, double q) {
  DBLREP_CHECK(!xs.empty());
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Replays `capture` into a fresh NetworkModel: the storm (if requested)
/// as one dependency-chained flow per repaired stripe, all at t=0, and the
/// client reads spread evenly over the window [0, window_s]. The schedule
/// is identical for every variant, so p99s compare like for like; the
/// window is sized (--window-ms) to overlap the unthrottled burst, which
/// is exactly the regime the throttler exists for.
SimOutcome simulate(const Capture& capture, const cluster::Topology& topology,
                    const net::NetworkConfig& config, bool inject_storm,
                    double window_s) {
  sim::EventQueue queue;
  net::NetworkModel model(queue, topology, config);
  SimOutcome outcome;

  std::vector<double> read_latency;
  read_latency.reserve(capture.reads.size());
  const double spacing =
      window_s / static_cast<double>(capture.reads.size());
  for (std::size_t i = 0; i < capture.reads.size(); ++i) {
    const sim::SimTime start = spacing * static_cast<double>(i);
    model.start_flow(capture.reads[i], start,
                     [&read_latency, start](sim::SimTime done) {
                       read_latency.push_back(done - start);
                     });
  }
  if (inject_storm) {
    for (const auto& flow : capture.storm) {
      model.start_flow(flow, 0.0, [&outcome](sim::SimTime done) {
        outcome.storm_makespan_s =
            std::max(outcome.storm_makespan_s, done);
      });
    }
  }
  queue.run();

  DBLREP_CHECK_EQ(read_latency.size(), capture.reads.size());
  outcome.p99_read_s = quantile(read_latency, 0.99);
  outcome.max_read_s = quantile(read_latency, 1.0);
  outcome.repair_delivered_bytes =
      model.delivered_class_bytes(net::TransferClass::kRepair) +
      model.delivered_class_bytes(net::TransferClass::kScrub);

  std::vector<std::string> violations;
  chaos::check_network_conservation(model, violations,
                                    /*expect_drained=*/true);
  if (!violations.empty()) {
    outcome.conservation_ok = false;
    outcome.violation = violations.front();
  }
  return outcome;
}

void outcome_json(bench::Json& json, const char* name, const SimOutcome& o) {
  json.begin_object(name)
      .field("p99_read_s", o.p99_read_s)
      .field("max_read_s", o.max_read_s)
      .field("storm_makespan_s", o.storm_makespan_s)
      .field("repair_delivered_bytes", o.repair_delivered_bytes)
      .field("conservation_ok", o.conservation_ok)
      .end();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t block_size = 256 * 1024;
  std::size_t files = 24;
  std::size_t stripes = 3;
  std::size_t reads = 150;
  double window_ms = 150.0;
  std::vector<std::string> schemes = {"heptagon-local", "pentagon", "rs-10-4"};
  double budget = 3.0;
  std::string json_path = "BENCH_repair_qos.json";
  bench::Flags flags;
  flags.add("block-size", &block_size);
  flags.add("files", &files);
  flags.add("stripes", &stripes);
  flags.add("reads", &reads);
  flags.add("window-ms", &window_ms);
  flags.add("schemes", &schemes);
  flags.add("budget", &budget);
  flags.add("json", &json_path);
  if (!flags.parse(argc, argv)) return 2;
  if (block_size == 0 || files == 0 || stripes == 0 || reads == 0 ||
      window_ms <= 0 || schemes.empty() || budget <= 1.0) {
    return flags.fail("need positive sizes and --budget > 1");
  }
  const double window_s = window_ms / 1e3;

  constexpr std::size_t kNumNodes = 27;
  constexpr std::size_t kNumRacks = 3;
  constexpr std::uint64_t kSeed = 17;

  cluster::Topology topology;
  topology.num_nodes = kNumNodes;
  topology.num_racks = kNumRacks;

  const net::NetworkConfig plain = fabric_config();
  net::NetworkConfig throttled_config = fabric_config();
  throttled_config.throttle_repair = true;
  throttled_config.qos = repair_qos_config();
  net::NetworkConfig adaptive_config = throttled_config;
  adaptive_config.qos.adaptive = true;
  adaptive_config.qos.adaptive_boost = 4.0;

  std::vector<Sample> samples;
  for (const auto& spec : schemes) {
    const auto code = ec::make_code(spec).value();
    const std::size_t file_bytes = stripes * code->data_blocks() * block_size;
    const Buffer data = random_buffer(file_bytes, 99);

    for (const bool layered : {false, true}) {
      // ---- capture: run the real data plane, log every transfer --------
      hdfs::MiniDfsOptions options;
      options.placement = cluster::PlacementPolicy::kGroupPerRack;
      options.layered_repair = layered;
      hdfs::MiniDfs dfs(topology, kSeed, /*pool=*/nullptr, options);
      net::TrafficLedger& ledger = dfs.traffic();
      ledger.set_capture(true);

      std::vector<std::string> paths;
      for (std::size_t f = 0; f < files; ++f) {
        paths.push_back("/qos/f" + std::to_string(f));
        DBLREP_CHECK(
            dfs.write_file(paths.back(), data, spec, block_size).is_ok());
      }
      (void)ledger.drain();  // preload uploads are not part of the replay

      // Client reads of random single blocks, captured one flow per op.
      // Captured pre-failure so every scheme's reads are plain replica /
      // systematic reads -- the foreground traffic the storm then hurts.
      Capture capture;
      Rng rng(kSeed + 1);
      const std::size_t blocks_per_file = file_bytes / block_size;
      for (std::size_t r = 0; r < reads; ++r) {
        const auto& path = paths[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(paths.size()) - 1))];
        const auto block = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(blocks_per_file) - 1));
        DBLREP_CHECK(dfs.read_block(path, block).is_ok());
        auto records = ledger.drain();
        DBLREP_CHECK(!records.empty());
        capture.reads.push_back(std::move(records));
      }

      // The storm: fail one member of the first file's first stripe group
      // and repair everything it held.
      const auto group = dfs.catalog().stripe(0).group;
      DBLREP_CHECK(dfs.fail_node(group[1]).is_ok());
      (void)ledger.drain();  // fail_node itself moves no bytes; stay clean
      DBLREP_CHECK(dfs.repair_all().is_ok());
      capture.storm = ledger.drain_flows();
      for (const auto& flow : capture.storm) {
        capture.storm_records += flow.size();
        for (const auto& t : flow) capture.storm_bytes += t.bytes;
      }
      DBLREP_CHECK(!capture.storm.empty());

      // ---- replay: one read schedule, four network variants ------------
      Sample sample;
      sample.scheme = spec;
      sample.layered = layered;
      sample.repair_records = capture.storm_records;
      sample.repair_flows = capture.storm.size();
      sample.storm_bytes = capture.storm_bytes;
      sample.baseline =
          simulate(capture, topology, plain, /*inject_storm=*/false, window_s);
      sample.unthrottled =
          simulate(capture, topology, plain, /*inject_storm=*/true, window_s);
      sample.throttled = simulate(capture, topology, throttled_config,
                                  /*inject_storm=*/true, window_s);
      sample.adaptive = simulate(capture, topology, adaptive_config,
                                 /*inject_storm=*/true, window_s);

      std::fprintf(
          stderr,
          "%-15s layered=%d  storm %3zu records / %zu flows %6.1f KB  "
          "p99 base "
          "%.3f ms | unthrottled %.3f ms (x%.1f) | throttled %.3f ms "
          "(x%.1f) | adaptive %.3f ms (x%.1f, makespan %.1f ms vs %.1f)\n",
          spec.c_str(), layered ? 1 : 0, sample.repair_records,
          sample.repair_flows, sample.storm_bytes / 1024,
          sample.baseline.p99_read_s * 1e3,
          sample.unthrottled.p99_read_s * 1e3,
          sample.unthrottled.p99_read_s / sample.baseline.p99_read_s,
          sample.throttled.p99_read_s * 1e3,
          sample.throttled.p99_read_s / sample.baseline.p99_read_s,
          sample.adaptive.p99_read_s * 1e3,
          sample.adaptive.p99_read_s / sample.baseline.p99_read_s,
          sample.adaptive.storm_makespan_s * 1e3,
          sample.throttled.storm_makespan_s * 1e3);
      samples.push_back(std::move(sample));
    }
  }

  // ---- acceptance gates ----------------------------------------------
  bench::Report report("repair_qos");
  for (const auto& s : samples) {
    const std::string name =
        s.scheme + " layered=" + std::to_string(s.layered ? 1 : 0) + ": ";
    for (const auto& [variant, o] :
         {std::pair{"baseline", &s.baseline},
          std::pair{"unthrottled", &s.unthrottled},
          std::pair{"throttled", &s.throttled},
          std::pair{"adaptive", &s.adaptive}}) {
      if (!o->conservation_ok) {
        std::fprintf(stderr, "%s%s: %s\n", name.c_str(), variant,
                     o->violation.c_str());
      }
      report.gate(name + variant + " network conservation",
                  o->conservation_ok);
    }
    // Throttled and unthrottled storms deliver the same repair bytes --
    // pacing delays, never drops.
    report.gate(name + "throttled storm bytes delivered", s.storm_bytes,
                s.throttled.repair_delivered_bytes,
                s.throttled.repair_delivered_bytes == s.storm_bytes);
    report.gate(name + "unthrottled storm bytes delivered", s.storm_bytes,
                s.unthrottled.repair_delivered_bytes,
                s.unthrottled.repair_delivered_bytes == s.storm_bytes);
    // The adaptive throttler exploits idle headroom: never slower than the
    // fixed budget, for every configuration.
    report.gate(name + "adaptive makespan within fixed throttler's",
                s.throttled.storm_makespan_s, s.adaptive.storm_makespan_s,
                s.adaptive.storm_makespan_s <= s.throttled.storm_makespan_s);
  }
  // The headline, per scheme: layered + throttled repair keeps p99 read
  // degradation under budget; the flat unthrottled storm blows it.
  for (const auto& spec : schemes) {
    const Sample* hero = nullptr;
    const Sample* villain = nullptr;
    for (const auto& s : samples) {
      if (s.scheme != spec) continue;
      if (s.layered) {
        hero = &s;
      } else {
        villain = &s;
      }
    }
    DBLREP_CHECK(hero != nullptr && villain != nullptr);
    const double hero_ratio =
        hero->throttled.p99_read_s / hero->baseline.p99_read_s;
    const double villain_ratio =
        villain->unthrottled.p99_read_s / villain->baseline.p99_read_s;
    report.gate(spec + " layered+throttled p99 degradation within budget",
                budget, hero_ratio, hero_ratio <= budget);
    report.gate(spec + " flat unthrottled p99 degradation over budget", budget,
                villain_ratio, villain_ratio > budget);
  }

  auto& json = report.json();
  json.field("block_size", block_size)
      .field("files", files)
      .field("stripes", stripes)
      .field("reads", reads)
      .field("window_ms", window_ms)
      .field("budget", budget)
      .field("num_nodes", kNumNodes)
      .field("num_racks", kNumRacks)
      .field("qos_cluster_rate", throttled_config.qos.cluster_rate);
  json.begin_array("results");
  for (const auto& s : samples) {
    json.begin_object()
        .field("scheme", s.scheme)
        .field("layered", s.layered)
        .field("repair_records", s.repair_records)
        .field("repair_flows", s.repair_flows)
        .field("storm_bytes", s.storm_bytes);
    outcome_json(json, "baseline", s.baseline);
    outcome_json(json, "unthrottled", s.unthrottled);
    outcome_json(json, "throttled", s.throttled);
    outcome_json(json, "adaptive", s.adaptive);
    json.end();
  }
  json.end();
  return report.finish(json_path);
}
