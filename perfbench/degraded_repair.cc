// degraded_repair: about 48 MiB stored (fits in the last-level cache) with
// two nodes of one pentagon group crash-failed. Each cycle runs
//   phase A: closed-loop clients, half degraded read_block calls on blocks
//            whose every replica is lost, half healthy 1-2 block preads;
//   phase B: repair_all alone, timed;
// then fails the same two nodes again. The phases never overlap, so which
// reads are degraded -- and therefore every byte count -- is independent of
// timing.
#include <iterator>
#include <map>
#include <set>

#include "bench.h"
#include "common/rng.h"
#include "hdfs/client.h"
#include "layers.h"

namespace perfbench {
namespace {

using dblrep::Buffer;
using dblrep::cluster::NodeId;
using dblrep::cluster::StripeId;

constexpr std::uint64_t kLayoutSeed = 1;
constexpr std::size_t kStoredTarget = 48u << 20;
constexpr std::size_t kOpsPerClient = 300;  // phase-A operations per cycle

struct LostBlock {
  const StoredFile* file = nullptr;
  std::size_t block = 0;
  double plan_bytes = 0;  // the degraded-read plan's network_bytes
};

struct Damage {
  NodeId a = 0, b = 0;
  std::vector<LostBlock> lost;
  std::set<std::pair<const StoredFile*, std::size_t>> lost_set;
  std::set<StripeId> damaged_stripes;
  /// Indices into `lost`, per code: degraded reads cycle over the codes so
  /// the mix does not depend on how many blocks each code happened to lose.
  std::map<std::string, std::vector<std::size_t>> by_code;
};

/// The blocks lost when nodes a and b are down, with each one's plan cost.
Damage damage_of(const Fixture& fx, NodeId a, NodeId b) {
  Damage d;
  d.a = a;
  d.b = b;
  const auto& nn = fx.dfs->namenode();
  for (const StoredFile& f : fx.files) {
    const auto info = nn.lookup(f.path);
    const std::size_t k = f.code->data_blocks();
    for (std::size_t blk = 0; blk < f.blocks(); ++blk) {
      const StripeId stripe = info->stripes[blk / k];
      bool lost = true;
      for (NodeId n : nn.replica_nodes(stripe, blk % k)) {
        if (n != a && n != b) lost = false;
      }
      const auto& group = nn.stripe(stripe).group;
      std::set<dblrep::ec::NodeIndex> failed;
      for (std::size_t i = 0; i < group.size(); ++i) {
        if (group[i] == a || group[i] == b) failed.insert(static_cast<dblrep::ec::NodeIndex>(i));
      }
      if (!failed.empty()) d.damaged_stripes.insert(stripe);
      if (!lost) continue;
      auto plan = f.code->plan_degraded_block(blk % k, failed);
      DBLREP_CHECK(plan.is_ok());
      d.by_code[f.spec].push_back(d.lost.size());
      d.lost.push_back({&f, blk, static_cast<double>(plan->network_bytes(kBlockSize, 1))});
      d.lost_set.insert({&f, blk});
    }
  }
  return d;
}

/// The pair of failed nodes: the one whose failure loses blocks of the most
/// codes (then the most blocks), searched in node order over the fixed
/// layout. It must lose at least one pentagon block.
Damage choose_damage(const Fixture& fx) {
  Damage best;
  std::size_t best_codes = 0;
  const auto n = static_cast<NodeId>(fx.topology.num_nodes);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      Damage d = damage_of(fx, a, b);
      if (d.by_code.size() > best_codes ||
          (d.by_code.size() == best_codes && d.lost.size() > best.lost.size())) {
        best_codes = d.by_code.size();
        best = std::move(d);
      }
    }
  }
  DBLREP_CHECK_MSG(best.by_code.contains("pentagon"), "no failure pair loses a pentagon block");
  return best;
}

struct PhaseA {
  Samples degraded_us, pread_us;
  std::map<std::string, Samples> degraded_by_code;
  double delivered = 0;
  double wire_expected = 0;
  double pread_bytes = 0, pread_busy_us = 0;

  void merge(const PhaseA& o) {
    degraded_us.merge(o.degraded_us);
    pread_us.merge(o.pread_us);
    for (const auto& [spec, samples] : o.degraded_by_code) degraded_by_code[spec].merge(samples);
    delivered += o.delivered;
    wire_expected += o.wire_expected;
    pread_bytes += o.pread_bytes;
    pread_busy_us += o.pread_busy_us;
  }
};

PhaseA run_phase_a(Fixture& fx, const Damage& damage, Report& report,
                   LayerCounters& counters, std::uint64_t seed, int cycle,
                   std::size_t clients) {
  std::vector<PhaseA> per_client(clients);
  run_clients(clients, [&](std::size_t c) {
    dblrep::Rng rng(mix64(seed * 104729 + static_cast<std::uint64_t>(cycle) * 977 + c));
    dblrep::hdfs::Client client(*fx.dfs);
    Buffer scratch;
    PhaseA& r = per_client[c];
    double replay_wire = 0;
    for (std::size_t op = 1; op <= kOpsPerClient; ++op) {
      if (op % 2 == 0) {
        auto code = damage.by_code.begin();
        std::advance(code, (op / 2) % damage.by_code.size());
        const LostBlock& l = damage.lost[code->second[rng.next_below(code->second.size())]];
        const auto t0 = Clock::now();
        auto got = [&] {
          trace::Scope root("op.degraded_read");
          return traced("hdfs.client.read_block",
                        [&] { return client.read_block(l.file->path, l.block); });
        }();
        const double us = micros_since(t0);
        report.op(got.is_ok() && got->size() == kBlockSize &&
                      payload_matches(l.file->key, l.block * kBlockSize, *got, scratch),
                  "degraded read " + l.file->path);
        r.degraded_us.add(us);
        r.degraded_by_code[l.file->spec].add(us);
        r.delivered += kBlockSize;
        r.wire_expected += l.plan_bytes;
        if (trace::enabled() && op % 4 == 0) {
          report.op(replay_degraded_read(fx, *l.file, l.block, counters, replay_wire, scratch),
                    "degraded replay " + l.file->path);
        }
      } else {
        // A healthy window: every block it covers keeps a live replica.
        const StoredFile* f = nullptr;
        std::size_t off = 0, len = 0, first = 0, last = 0;
        for (bool healthy = false; !healthy;) {
          f = &fx.files[rng.next_below(fx.files.size())];
          len = kBlockSize + rng.next_below(kBlockSize + 1);
          off = rng.next_below(f->length - len + 1);
          first = off / kBlockSize;
          last = (off + len - 1) / kBlockSize;
          healthy = true;
          for (std::size_t b = first; b <= last; ++b) {
            healthy = healthy && !damage.lost_set.contains({f, b});
          }
        }
        const auto t0 = Clock::now();
        auto got = [&] {
          trace::Scope root("op.pread");
          return traced("hdfs.client.pread", [&] { return client.pread(f->path, off, len); });
        }();
        const double us = micros_since(t0);
        report.op(got.is_ok() && got->size() == len && payload_matches(f->key, off, *got, scratch),
                  "pread " + f->path);
        r.pread_us.add(us);
        r.pread_busy_us += us;
        r.pread_bytes += static_cast<double>(len);
        r.delivered += static_cast<double>(len);
        r.wire_expected += static_cast<double>((last - first + 1) * kBlockSize);
        if (trace::enabled() && op % 4 == 1) {
          report.op(replay_pread(fx, *f, first, last, counters, scratch), "pread replay " + f->path);
        }
      }
      if (trace::enabled() && op % 16 == 0) {
        counters.add("exec.queue_wait_us", queue_wait_us(fx.dfs->pool()));
      }
    }
  });
  PhaseA total;
  for (const auto& r : per_client) total.merge(r);
  return total;
}

}  // namespace

void run_degraded_repair(const Options& o, Report& report) {
  const Threads threads = thread_split();
  dblrep::exec::ThreadPool pool(threads.workers);

  Samples setup_s;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < (o.trace ? 1 : 5); ++i) {
    fx.reset();
    const auto t0 = Clock::now();
    fx = build_fixture(kLayoutSeed, o.seed, pool, kStoredTarget, 2, 4);
    setup_s.add(seconds_since(t0));
  }
  auto& dfs = *fx->dfs;
  const std::size_t stored0 = dfs.stored_bytes();
  report_header(report, o, threads, stored0);
  report.check(stored0 == fx->expected_stored_bytes,
               "stored bytes equal each code's CodeParams overhead");
  dblrep::Rng rng(mix64(o.seed ^ 0xdead));
  const Damage damage = choose_damage(*fx);
  std::string lost_line = "failed_nodes = " + std::to_string(damage.a) + "," +
                          std::to_string(damage.b) + " damaged_stripes=" +
                          std::to_string(damage.damaged_stripes.size()) + " lost_blocks:";
  for (const auto& [spec, blocks] : damage.by_code) {
    lost_line += " " + spec + "=" + std::to_string(blocks.size());
  }
  report.note(lost_line);

  LayerCounters loop;
  PhaseA plain_a, traced_a;
  Samples repair_mb_s;
  double repair_wire = 0, rebuilt = 0;
  double phase_a_wire = 0;
  Wire traced_a_wire, traced_b_wire;  // link-class split of traced cycles
  std::size_t traced_ops = 0;
  dblrep::hdfs::DataNode scratch_dn(0);
  const auto start = Clock::now();
  for (int cycle = 0;; ++cycle) {
    const double elapsed = seconds_since(start);
    // A traced run keeps at least one untraced and one traced cycle.
    if (cycle > 0 && elapsed >= o.seconds && (!o.trace || traced_a.degraded_us.count() > 0)) {
      break;
    }
    if (o.trace && cycle > 0 && elapsed >= o.seconds / 2) trace::set_enabled(true);
    const bool tracing = trace::enabled();

    report.check(dfs.fail_node(damage.a).is_ok() && dfs.fail_node(damage.b).is_ok(),
                 "fail nodes");
    const double lost_bytes = static_cast<double>(stored0 - dfs.stored_bytes());

    const Wire a0 = Wire::of(dfs);
    const PhaseA a = run_phase_a(*fx, damage, report, loop, o.seed, cycle, threads.clients);
    const Wire a_split = Wire::of(dfs) - a0;
    const double a_wire = a_split.total();
    report.check(a_wire == a.wire_expected,
                 "phase-A wire bytes " + std::to_string(a_wire) +
                     " equal the plans' network_bytes " + std::to_string(a.wire_expected));
    (tracing ? traced_a : plain_a).merge(a);
    phase_a_wire += a_wire;
    if (tracing) {
      traced_a_wire += a_split;
      traced_ops += 2 * kOpsPerClient * threads.clients;
      report.check(replay_repair_pass(*fx, scratch_dn), "repair pass replay");
    }

    const Wire b0 = Wire::of(dfs);
    const auto t0 = Clock::now();
    const auto status = tracing ? traced_repair_all(dfs, loop) : dfs.repair_all();
    const double repair_s = seconds_since(t0);
    report.check(status.is_ok(), "repair_all: " + status.to_string());
    const Wire b_split = Wire::of(dfs) - b0;
    repair_wire += b_split.total();
    if (tracing) traced_b_wire += b_split;
    rebuilt += lost_bytes;
    if (!tracing) repair_mb_s.add(lost_bytes / repair_s / 1e6);
    report.check(dfs.scrub().is_ok(), "scrub after repair");
    report.check(dfs.stored_bytes() == stored0, "stored bytes back at the pre-failure value");
  }

  const double overhead =
      static_cast<double>(stored0) / static_cast<double>(fx->logical_bytes);
  if (!o.trace) {
    const PhaseA& a = plain_a;
    const double wire_amp = phase_a_wire / a.delivered;
    const std::string nd = "n=" + std::to_string(a.degraded_us.count());
    const std::string np = "n=" + std::to_string(a.pread_us.count());
    report.metric("setup_s", setup_s.quantile(0.5), "s");
    report.metric("op_p50_us", a.degraded_us.quantile(0.5), "us");
    report.metric("op_p99_us", a.degraded_us.tail_quantile(), "us");
    report.metric("work_mb_s", repair_mb_s.quantile(0.5), "MB/s");
    report.metric("read_wire_amplification", wire_amp, "B/B");
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    report.note("setup_s", setup_s.quantile(0.5), "s", "median of 5 set-ups");
    report.note("pread_p50_us", a.pread_us.quantile(0.5), "us", np);
    report.note("pread_p99_us", a.pread_us.tail_quantile(), "us",
                np + " q=" + std::to_string(a.pread_us.tail_q()));
    report.note("pread_mb_s", a.pread_bytes / (a.pread_busy_us / threads.clients),
                "MB/s delivered");
    report.note("degraded_read_p50_us", a.degraded_us.quantile(0.5), "us", nd);
    report.note("degraded_read_p99_us", a.degraded_us.tail_quantile(), "us",
                nd + " q=" + std::to_string(a.degraded_us.tail_q()));
    for (const auto& [spec, samples] : a.degraded_by_code) {
      report.note("degraded_read_p50_us." + spec, samples.quantile(0.5), "us",
                  "n=" + std::to_string(samples.count()) +
                      " p99=" + std::to_string(samples.tail_quantile()));
    }
    report.note("repair_mb_s", repair_mb_s.quantile(0.5), "MB rebuilt/s",
                "median of " + std::to_string(repair_mb_s.count()) + " repair_all passes");
    report.note("storage_overhead", overhead, "stored/logical");
    report.note("read_wire_amplification", wire_amp, "wire B/delivered B");
    report.note("repair_wire_amplification", repair_wire / rebuilt, "wire B/rebuilt B");
    report.note("peak_rss_mb", peak_rss_mib(), "MiB");
    return;
  }

  // Link-class bytes of both phases, per phase-A operation; each phase's
  // split is reported on its own line.
  Wire both = traced_a_wire;
  both += traced_b_wire;
  add_cluster_bytes(loop, both, static_cast<double>(traced_ops));
  auto split = [](const Wire& w) {
    return "client=" + std::to_string(w.client / 1e6) + " MB intra_rack=" +
           std::to_string(w.intra / 1e6) + " MB cross_rack=" + std::to_string(w.cross / 1e6) +
           " MB";
  };
  report.note("cluster_bytes phase_a: " + split(traced_a_wire) + "; phase_b: " +
              split(traced_b_wire));
  report.note("repair_wire_amplification", repair_wire / rebuilt, "wire B/rebuilt B");
  sched_probe(*fx, rng, 20, loop);
  loop.add("mapred.job_s_3rep", reference_job_s(o.seed));
  LayerCounters probe;
  run_layer_probe(o.seed, pool, report, probe);
  emit_layer_metrics(report, loop, probe,
                     traced_a.degraded_us.quantile(0.5) / plain_a.degraded_us.quantile(0.5), o);
}

}  // namespace perfbench
