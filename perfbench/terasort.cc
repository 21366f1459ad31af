// terasort: the paper's MapReduce result, which lives only in sched/ and
// mapred/. One pass evaluates mapred::run_terasort with DelayScheduler over
// the grid {3-rep, 2-rep, pentagon, heptagon} x load {0.5, 0.75, 1.0} x
// {healthy, two nodes down} on set-up 1 and set-up 2 (two-down cells only
// for codes that tolerate two failures), plus sched::run_locality_sweep for
// delay scheduling against max-matching. Every output is a deterministic
// function of the seed, so each pass must reproduce the first exactly.
#include <set>

#include "bench.h"
#include "common/rng.h"
#include "ec/registry.h"
#include "layers.h"
#include "sched/locality_sim.h"
#include "sched/workload.h"

namespace perfbench {
namespace {

using dblrep::mapred::JobMetrics;
using dblrep::sched::LocalityPoint;

constexpr int kTrials = 40;       // run_terasort trials per cell
constexpr int kSweepTrials = 50;  // placements per locality-sweep point
const std::vector<double> kLoads = {0.5, 0.75, 1.0};
const std::vector<std::string> kGridCodes = {"3-rep", "2-rep", "pentagon", "heptagon"};

struct Cell {
  int setup = 1;
  std::string spec;
  double load = 0;
  bool down = false;
  dblrep::mapred::JobConfig config;
  double input_bytes = 0;
};

struct Sweep {
  std::string spec;
  bool max_matching = false;
  dblrep::sched::LocalitySweepConfig config;
};

struct Grid {
  std::map<std::string, std::unique_ptr<dblrep::ec::CodeScheme>> codes;
  std::vector<Cell> cells;
  std::vector<Sweep> sweeps;
};

Grid build_grid(std::uint64_t seed) {
  Grid g;
  for (const auto& spec : kGridCodes) {
    auto code = dblrep::ec::make_code(spec);
    DBLREP_CHECK(code.is_ok());
    g.codes[spec] = std::move(code.value());
  }
  // Placements are random per trial, so which two nodes are down only
  // matters through sampling noise: the pair is fixed, the seed drives the
  // trials.
  const std::set<int> down_pair = {1, 2};
  for (int setup : {1, 2}) {
    for (const auto& spec : kGridCodes) {
      for (double load : kLoads) {
        for (bool down : {false, true}) {
          if (down && g.codes.at(spec)->params().fault_tolerance < 2) continue;
          Cell c;
          c.setup = setup;
          c.spec = spec;
          c.load = load;
          c.down = down;
          c.config = pinned_job_config(setup, load, down ? down_pair : std::set<int>{},
                                       mix64(seed * 1315423911u + g.cells.size()), kTrials);
          c.input_bytes = static_cast<double>(dblrep::sched::tasks_for_load(
                              load, c.config.topology.num_nodes, c.config.map_slots)) *
                          c.config.block_bytes;
          g.cells.push_back(std::move(c));
        }
      }
    }
  }
  for (const std::string spec : {"pentagon", "heptagon"}) {
    for (bool max_matching : {false, true}) {
      Sweep s;
      s.spec = spec;
      s.max_matching = max_matching;
      s.config.num_nodes = 25;
      s.config.slots_per_node = 2;
      s.config.loads = kLoads;
      s.config.trials = kSweepTrials;
      s.config.seed = mix64(seed + 2014);
      g.sweeps.push_back(std::move(s));
    }
  }
  return g;
}

struct Pass {
  std::vector<JobMetrics> jobs;
  std::vector<std::vector<LocalityPoint>> sweeps;
  Samples cell_us, sweep_us;
  double input_bytes = 0;

  /// Adds another pass's timings (the outputs stay this pass's).
  void merge_timings(const Pass& o) {
    cell_us.merge(o.cell_us);
    sweep_us.merge(o.sweep_us);
    input_bytes += o.input_bytes;
  }
};

Pass run_pass(const Grid& g, dblrep::Rng& rng, LayerCounters* counters) {
  Pass p;
  for (const Cell& c : g.cells) {
    dblrep::sched::DelayScheduler delay;
    const auto t0 = Clock::now();
    JobMetrics m = [&] {
      trace::Scope root("op.terasort");
      return traced("mapred.run_terasort", [&] {
        return dblrep::mapred::run_terasort(*g.codes.at(c.spec), delay, c.config);
      });
    }();
    p.cell_us.add(micros_since(t0));
    p.input_bytes += c.input_bytes;
    p.jobs.push_back(m);
  }
  for (const Sweep& s : g.sweeps) {
    dblrep::sched::DelayScheduler delay;
    dblrep::sched::MaxMatchingScheduler matching;
    dblrep::sched::Scheduler& scheduler = s.max_matching
                                              ? static_cast<dblrep::sched::Scheduler&>(matching)
                                              : delay;
    const auto t0 = Clock::now();
    auto points = [&] {
      trace::Scope root("op.locality_sweep");
      return traced("sched.run_locality_sweep", [&] {
        return dblrep::sched::run_locality_sweep(*g.codes.at(s.spec), scheduler, s.config);
      });
    }();
    p.sweep_us.add(micros_since(t0));
    if (counters != nullptr) {
      for (const auto& pt : points) {
        counters->add(s.max_matching ? "sched.max_local" : "sched.delay_local", pt.mean_locality);
        if (s.max_matching) counters->add("sched.rounds", 1);
      }
    }
    p.sweeps.push_back(std::move(points));
  }
  if (counters != nullptr) {
    // One delay-scheduler assignment over a fresh full-load pentagon job.
    const auto& code = *g.codes.at("pentagon");
    auto w = dblrep::sched::make_workload(code, 25, 2,
                                          dblrep::sched::tasks_for_load(1.0, 25, 2), rng);
    dblrep::sched::DelayScheduler delay;
    const auto t0 = Clock::now();
    traced("sched.assign", [&] { return delay.assign(w.problem, rng); });
    counters->add("sched.assign_us", micros_since(t0));
  }
  return p;
}

bool same_job(const JobMetrics& a, const JobMetrics& b) {
  return a.job_seconds == b.job_seconds && a.locality == b.locality &&
         a.map_input_traffic_bytes == b.map_input_traffic_bytes &&
         a.shuffle_traffic_bytes == b.shuffle_traffic_bytes &&
         a.degraded_read_tasks == b.degraded_read_tasks &&
         a.unrunnable_tasks == b.unrunnable_tasks;
}

/// Checks a repeated pass against the reference pass, output by output.
void check_pass(const Grid& g, const Pass& ref, const Pass& p, Report& report) {
  for (std::size_t i = 0; i < g.cells.size(); ++i) {
    report.op(same_job(ref.jobs[i], p.jobs[i]), "terasort cell reproduces its first pass");
  }
  for (std::size_t i = 0; i < g.sweeps.size(); ++i) {
    bool same = ref.sweeps[i].size() == p.sweeps[i].size();
    for (std::size_t j = 0; same && j < p.sweeps[i].size(); ++j) {
      same = ref.sweeps[i][j].mean_locality == p.sweeps[i][j].mean_locality;
    }
    report.op(same, "locality sweep reproduces its first pass");
  }
}

/// Checks that hold on the reference pass itself.
void check_reference(const Grid& g, const Pass& ref, Report& report) {
  for (std::size_t i = 0; i < g.cells.size(); ++i) {
    report.check(ref.jobs[i].unrunnable_tasks == 0,
                 "terasort " + g.cells[i].spec + " reports unrunnable_tasks == 0");
  }
  for (std::size_t i = 0; i < g.sweeps.size(); ++i) {
    for (const auto& point : ref.sweeps[i]) {
      report.check(point.mean_locality > 0 && point.mean_locality <= 1,
                   "locality of " + g.sweeps[i].spec + " is a fraction");
    }
  }
}

}  // namespace

void run_terasort(const Options& o, Report& report) {
  // Every core runs grid passes, so no core idles beside the timed one.
  const Threads threads = thread_split();
  const std::size_t clients = threads.nproc;
  auto client_rng = [&](std::size_t c, int round) {
    return dblrep::Rng(mix64(o.seed * 31 + c * 7 + static_cast<std::uint64_t>(round)));
  };

  // Set-up: build the grid, then every client runs one warm-up pass; the
  // passes must agree, and the first is the reference for the timed ones.
  Samples setup_s;
  Grid grid;
  std::vector<Pass> warm(clients);
  for (int i = 0; i < (o.trace ? 1 : 5); ++i) {
    const auto t0 = Clock::now();
    grid = build_grid(o.seed);
    run_clients(clients, [&](std::size_t c) {
      dblrep::Rng rng = client_rng(c, 0);
      warm[c] = run_pass(grid, rng, nullptr);
    });
    setup_s.add(seconds_since(t0));
  }
  const Pass ref = warm[0];
  report_header(report, o, Threads{threads.nproc, clients, 0}, 0);
  report.note("grid cells=" + std::to_string(grid.cells.size()) +
              " sweeps=" + std::to_string(grid.sweeps.size()) +
              " trials_per_cell=" + std::to_string(kTrials));
  check_reference(grid, ref, report);
  for (const Pass& p : warm) check_pass(grid, ref, p, report);

  double job_s = 0, locality = 0, paper_cells = 0, traffic = 0, input = 0;
  double job_3rep = 0;
  for (std::size_t i = 0; i < grid.cells.size(); ++i) {
    const Cell& c = grid.cells[i];
    const JobMetrics& m = ref.jobs[i];
    traffic += m.map_input_traffic_bytes;
    input += c.input_bytes;
    if (c.spec == "pentagon" || c.spec == "heptagon") {
      job_s += m.job_seconds;
      locality += m.locality;
      paper_cells += 1;
    }
    if (c.setup == 1 && c.spec == "3-rep" && c.load == 1.0 && !c.down) job_3rep = m.job_seconds;
  }
  const double wire_amp = traffic / input;

  // Timed passes on every client, each checked against the reference.
  auto run_for = [&](double seconds, int round, LayerCounters* counters) {
    std::vector<Pass> per_client(clients);
    const auto start = Clock::now();
    run_clients(clients, [&](std::size_t c) {
      dblrep::Rng rng = client_rng(c, round);
      do {
        const Pass p = run_pass(grid, rng, counters);
        check_pass(grid, ref, p, report);
        per_client[c].merge_timings(p);
      } while (seconds_since(start) < seconds);
    });
    Pass total;
    for (const Pass& p : per_client) total.merge_timings(p);
    return total;
  };

  if (!o.trace) {
    const Pass t = run_for(o.seconds, 1, nullptr);
    const std::string n = "n=" + std::to_string(t.cell_us.count());
    report.metric("setup_s", setup_s.quantile(0.5), "s");
    report.metric("op_p50_us", t.cell_us.quantile(0.5), "us");
    report.metric("op_p99_us", t.cell_us.tail_quantile(), "us");
    report.metric("work_mb_s", t.input_bytes / (t.cell_us.sum() / static_cast<double>(clients)),
                  "MB/s");
    report.metric("read_wire_amplification", wire_amp, "B/B");
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    report.note("setup_s", setup_s.quantile(0.5), "s", "median of 5 set-ups");
    report.note("terasort_cell_p50_us", t.cell_us.quantile(0.5), "us", n);
    report.note("terasort_cell_p99_us", t.cell_us.tail_quantile(), "us",
                n + " q=" + std::to_string(t.cell_us.tail_q()));
    report.note("locality_sweep_p50_us", t.sweep_us.quantile(0.5), "us",
                "n=" + std::to_string(t.sweep_us.count()));
    report.note("terasort_job_s", job_s / paper_cells, "modelled s",
                "mean over " + std::to_string(static_cast<int>(paper_cells)) +
                    " pentagon and heptagon cells");
    report.note("map_locality", locality / paper_cells, "local map-task fraction",
                "same cells");
    report.note("job_s_3rep", job_3rep, "modelled s", "set-up 1, load 1.0, healthy");
    report.note("read_wire_amplification", wire_amp, "modelled map-input wire B/input B");
    report.note("peak_rss_mb", peak_rss_mib(), "MiB");
    return;
  }

  LayerCounters loop;
  const Pass plain = run_for(o.seconds / 2, 1, nullptr);
  trace::set_enabled(true);
  const Pass traced_pass = run_for(o.seconds / 2, 2, &loop);
  loop.add("mapred.job_s_3rep", job_3rep);
  dblrep::exec::ThreadPool pool(threads.workers);
  LayerCounters probe;
  run_layer_probe(o.seed, pool, report, probe);
  emit_layer_metrics(report, loop, probe,
                     traced_pass.cell_us.quantile(0.5) / plain.cell_us.quantile(0.5), o);
}

}  // namespace perfbench
