// Deterministic chaos sweep: schemes x fault mixes x seeds, every scenario
// a fully seeded fault-injection run with the cluster-wide invariant
// checkers on. Emits BENCH_chaos_sweep.json.
//
// This is the scaffolding the acceptance bar leans on: hundreds of seeded
// scenarios per CI run (thousands nightly) instead of the three hand-
// picked failure patterns the suite started with. Gated at exit:
//
//  * zero invariant violations across every scenario;
//  * replaying a sample seed per combination reproduces the identical
//    event trace and final cluster state, byte for byte;
//  * layered and unlayered repair stay byte-equivalent per scheme (same
//    totals, cross-rack never higher layered).
//
// Failing seeds are dumped (trace + greedily minimized event list) to
// --failures-dir for artifact upload; chaos_replay reproduces any of them
// from the seed alone.
//
// Runs on the inline pool: deterministic per seed.
//
// Usage: chaos_sweep [--seeds=N] [--schemes=CSV] [--mixes=CSV]
//                    [--horizon=SECONDS] [--check-every=N]
//                    [--replay-check=N] [--layering-check=N]
//                    [--failures-dir=PATH] [--json=PATH]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/harness.h"
#include "common/check.h"
#include "ec/registry.h"
#include "report.h"

namespace {

using namespace dblrep;

struct ComboStats {
  std::string scheme;
  std::string mix;
  std::size_t seeds = 0;
  std::size_t events = 0;
  std::size_t violations = 0;
  std::size_t repair_attempts = 0;
  std::size_t repair_successes = 0;
  std::size_t reads = 0;
  std::size_t read_errors = 0;
  std::size_t writes = 0;
  std::size_t write_errors = 0;
  RunningStat degraded_read_us;
  double traffic_total_bytes = 0;
  double traffic_cross_rack_bytes = 0;
};

/// Topology sized for the scheme: three racks, enough headroom that the
/// cluster can keep placing stripes under a handful of failures.
cluster::Topology topology_for(const ec::CodeScheme& code) {
  cluster::Topology topology;
  topology.num_racks = 3;
  const std::size_t want = code.num_nodes() + 6;
  topology.num_nodes = std::max<std::size_t>(21, ((want + 2) / 3) * 3);
  return topology;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t seeds = 5;
  std::vector<std::string> schemes = ec::paper_code_specs();
  schemes.push_back("rs-10-4");
  // Sub-packetized repair under chaos: the Clay MSR point and the
  // piggybacked equal-overhead point ride the same fault mixes.
  schemes.push_back("clay-6-4");
  schemes.push_back("pgy-10-4");
  std::vector<std::string> mix_names;
  for (const auto& mix : chaos::FaultMix::presets()) {
    mix_names.push_back(mix.name);
  }
  double horizon_s = 24.0;
  std::size_t check_every = 1;
  std::size_t replay_check = 1;    // seeds per combo re-run for determinism
  std::size_t layering_check = 1;  // seeds per scheme for layered twins
  std::string failures_dir;
  std::string json_path = "BENCH_chaos_sweep.json";

  bench::Flags flags;
  flags.add("seeds", &seeds);
  flags.add("schemes", &schemes);
  flags.add("mixes", &mix_names);
  flags.add("horizon", &horizon_s);
  flags.add("check-every", &check_every);
  flags.add("replay-check", &replay_check);
  flags.add("layering-check", &layering_check);
  flags.add("failures-dir", &failures_dir);
  flags.add("json", &json_path);
  if (!flags.parse(argc, argv)) return 2;
  if (seeds == 0 || schemes.empty() || mix_names.empty()) {
    return flags.fail("--seeds, --schemes, --mixes must be non-empty");
  }
  if (!failures_dir.empty()) {
    std::filesystem::create_directories(failures_dir);
  }

  std::vector<ComboStats> combos;
  std::size_t scenarios = 0;
  std::size_t total_violations = 0;
  std::size_t replay_divergences = 0;
  std::size_t layering_violations = 0;

  const auto dump_failure = [&](const chaos::ChaosHarness& harness,
                                const chaos::ChaosReport& report,
                                const std::string& scheme,
                                const std::string& mix) {
    if (failures_dir.empty()) return;
    std::ostringstream name;
    name << failures_dir << "/seed_" << report.seed << "_" << scheme << "_"
         << mix << ".txt";
    std::ofstream out(name.str());
    out << "scheme=" << scheme << " mix=" << mix << "\n"
        << report.trace_to_string();
    if (!report.minimized.empty()) {
      out << "minimized to " << report.minimized.size() << " events:\n";
      for (const auto& event : report.minimized) {
        out << "  " << event.to_string() << "\n";
      }
      // Sanity: the minimized schedule must still violate.
      const auto replay = harness.run_schedule(report.seed, report.minimized);
      out << "minimized replay violations: " << replay.violations.size()
          << "\n";
    }
  };

  for (const auto& spec : schemes) {
    const auto code = ec::make_code(spec);
    DBLREP_CHECK_MSG(code.is_ok(), code.status().to_string());

    for (const auto& mix_name : mix_names) {
      const auto mix = chaos::FaultMix::preset(mix_name);
      DBLREP_CHECK_MSG(mix.is_ok(), mix.status().to_string());

      chaos::ChaosConfig config;
      config.topology = topology_for(**code);
      config.code_spec = spec;
      config.mix = *mix;
      config.horizon_s = horizon_s;
      config.check_every = check_every;
      config.minimize_on_violation = true;
      const chaos::ChaosHarness harness(config);
      // Replay-identity re-runs skip minimization: a violating seed has
      // already been minimized once by `harness`; the twin run only needs
      // the trace.
      chaos::ChaosConfig replay_config = config;
      replay_config.minimize_on_violation = false;
      const chaos::ChaosHarness replay_harness(replay_config);

      ComboStats stats;
      stats.scheme = spec;
      stats.mix = mix_name;

      for (std::size_t s = 0; s < seeds; ++s) {
        // Distinct seeds per combo so no two scenarios share a schedule.
        const std::uint64_t seed =
            1 + s + 1000 * (combos.size() + 1);
        const chaos::ChaosReport report = harness.run_seed(seed);
        ++scenarios;
        ++stats.seeds;
        stats.events += report.trace.size();
        stats.violations += report.violations.size();
        stats.repair_attempts += report.repair_attempts;
        stats.repair_successes += report.repair_successes;
        stats.reads += report.reads;
        stats.read_errors += report.read_errors;
        stats.writes += report.writes;
        stats.write_errors += report.write_errors;
        stats.degraded_read_us.merge(report.degraded_read_us);
        stats.traffic_total_bytes += report.traffic_total_bytes;
        stats.traffic_cross_rack_bytes += report.traffic_cross_rack_bytes;

        if (!report.ok()) {
          total_violations += report.violations.size();
          std::fprintf(stderr, "VIOLATION scheme=%s mix=%s seed=%llu:\n",
                       spec.c_str(), mix_name.c_str(),
                       static_cast<unsigned long long>(seed));
          for (const auto& violation : report.violations) {
            std::fprintf(stderr, "  %s\n", violation.c_str());
          }
          dump_failure(harness, report, spec, mix_name);
        }

        // Replay determinism gate on the first seeds of each combo.
        if (s < replay_check) {
          const chaos::ChaosReport again = replay_harness.run_seed(seed);
          if (again.trace != report.trace ||
              again.final_fingerprint != report.final_fingerprint) {
            ++replay_divergences;
            std::fprintf(stderr,
                         "REPLAY DIVERGED scheme=%s mix=%s seed=%llu\n",
                         spec.c_str(), mix_name.c_str(),
                         static_cast<unsigned long long>(seed));
          }
        }
      }
      std::fprintf(
          stderr,
          "%-15s %-16s seeds=%zu events=%zu violations=%zu repairs=%zu/%zu "
          "degraded_reads=%zu\n",
          spec.c_str(), mix_name.c_str(), stats.seeds, stats.events,
          stats.violations, stats.repair_successes, stats.repair_attempts,
          stats.degraded_read_us.count());
      combos.push_back(stats);
    }

    // Layered-vs-unlayered equivalence twins, once per scheme.
    chaos::ChaosConfig config;
    config.topology = topology_for(**code);
    config.code_spec = spec;
    config.mix = chaos::FaultMix::mixed();
    config.horizon_s = horizon_s;
    config.check_every = check_every;
    for (std::size_t s = 0; s < layering_check; ++s) {
      const auto violations =
          chaos::check_layering_equivalence(config, 77 + s);
      for (const auto& violation : violations) {
        ++layering_violations;
        std::fprintf(stderr, "LAYERING scheme=%s seed=%llu: %s\n",
                     spec.c_str(), static_cast<unsigned long long>(77 + s),
                     violation.c_str());
      }
    }
  }

  bench::Report report("chaos_sweep");
  report.gate("invariant violations", 0, total_violations,
              total_violations == 0);
  report.gate("seed replay divergences", 0, replay_divergences,
              replay_divergences == 0);
  report.gate("layered repair equivalence violations", 0, layering_violations,
              layering_violations == 0);

  auto& json = report.json();
  json.field("scenarios", scenarios)
      .field("horizon_s", horizon_s)
      .field("total_violations", total_violations);
  json.begin_array("results");
  for (const ComboStats& s : combos) {
    const double rate =
        s.repair_attempts == 0
            ? 1.0
            : static_cast<double>(s.repair_successes) /
                  static_cast<double>(s.repair_attempts);
    const bool any = s.degraded_read_us.count() > 0;
    json.begin_object()
        .field("scheme", s.scheme)
        .field("mix", s.mix)
        .field("seeds", s.seeds)
        .field("events", s.events)
        .field("violations", s.violations)
        .field("repair_attempts", s.repair_attempts)
        .field("repair_success_rate", rate)
        .field("reads", s.reads)
        .field("read_errors", s.read_errors)
        .field("writes", s.writes)
        .field("write_errors", s.write_errors)
        .field("degraded_reads", s.degraded_read_us.count())
        .field("degraded_read_mean_us", any ? s.degraded_read_us.mean() : 0)
        .field("degraded_read_max_us", any ? s.degraded_read_us.max() : 0)
        .field("traffic_total_bytes", s.traffic_total_bytes)
        .field("traffic_cross_rack_bytes", s.traffic_cross_rack_bytes)
        .end();
  }
  json.end();
  std::fprintf(stderr, "%zu scenarios\n", scenarios);
  return report.finish(json_path);
}
