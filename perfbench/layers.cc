#include "layers.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/bytes.h"
#include "ec/registry.h"
#include "ec/repair.h"
#include "ec/stripe_codec.h"
#include "gf/gf256.h"
#include "gf/kernel.h"
#include "hdfs/client.h"
#include "sched/schedulers.h"
#include "sched/workload.h"

namespace perfbench {

using dblrep::Buffer;
using dblrep::ByteSpan;
using dblrep::MutableByteSpan;
using dblrep::Status;
using dblrep::cluster::NodeId;
using dblrep::cluster::StripeId;
using dblrep::ec::CodeScheme;
using dblrep::ec::NodeIndex;
using dblrep::ec::SlotStore;
using dblrep::hdfs::MiniDfs;

// ------------------------------------------------------- LayerCounters

void LayerCounters::add(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[key].add(value);
}

std::optional<double> LayerCounters::sum(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(key);
  if (it == samples_.end() || it->second.count() == 0) return std::nullopt;
  return it->second.sum();
}

std::optional<double> LayerCounters::quantile(const std::string& key,
                                              double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(key);
  if (it == samples_.end() || it->second.count() == 0) return std::nullopt;
  return it->second.quantile(q);
}

// ------------------------------------------------------------- replays

namespace {

/// Per-thread codec scratch, reused across replays like the DFS's leased
/// runtimes (an executor or codec is not thread-safe).
dblrep::ec::PlanExecutor& executor_for(const CodeScheme& code) {
  thread_local std::map<const CodeScheme*,
                        std::unique_ptr<dblrep::ec::PlanExecutor>> cache;
  auto& slot = cache[&code];
  if (!slot) slot = std::make_unique<dblrep::ec::PlanExecutor>(code.layout());
  return *slot;
}

dblrep::ec::StripeCodec& codec_for(const CodeScheme& code) {
  thread_local std::map<const CodeScheme*,
                        std::unique_ptr<dblrep::ec::StripeCodec>> cache;
  auto& slot = cache[&code];
  if (!slot) slot = std::make_unique<dblrep::ec::StripeCodec>(code);
  return *slot;
}

/// Live, CRC-good slots of `stripe`, each read under a DataNode span.
SlotStore gather(MiniDfs& dfs, const CodeScheme& code, StripeId stripe) {
  SlotStore store;
  for (std::size_t slot = 0; slot < code.layout().num_slots(); ++slot) {
    auto& dn = dfs.datanode(dfs.namenode().node_of({stripe, slot}));
    if (!dn.is_up()) continue;
    auto got = traced("hdfs.datanode.get", [&] { return dn.get({stripe, slot}); });
    if (got.is_ok()) store[slot] = std::move(got.value());
  }
  return store;
}

/// Code-local nodes with at least one slot missing from `store`.
std::set<NodeIndex> holes(const CodeScheme& code, const SlotStore& store) {
  std::set<NodeIndex> failed;
  for (std::size_t i = 0; i < code.num_nodes(); ++i) {
    for (std::size_t slot : code.layout().slots_on_node(static_cast<NodeIndex>(i))) {
      if (!store.contains(slot)) {
        failed.insert(static_cast<NodeIndex>(i));
        break;
      }
    }
  }
  return failed;
}

}  // namespace

bool replay_pread(Fixture& fx, const StoredFile& file, std::size_t first,
                  std::size_t last, LayerCounters& counters, Buffer& scratch) {
  {
    trace::Scope root("replay.pread");
    MiniDfs& dfs = *fx.dfs;
    auto info = traced("hdfs.namenode.lookup",
                       [&] { return dfs.namenode().lookup(file.path); });
    if (!info.is_ok()) return false;
    const CodeScheme& code = *file.code;
    const std::size_t k = code.data_blocks();
    for (std::size_t b = first; b <= last; ++b) {
      const StripeId stripe = info->stripes[b / k];
      bool served = false;
      for (std::size_t slot : code.layout().slots_of_symbol(b % k)) {
        auto& dn = dfs.datanode(dfs.namenode().node_of({stripe, slot}));
        if (!dn.is_up()) continue;
        auto got = traced("hdfs.datanode.get", [&] { return dn.get({stripe, slot}); });
        if (!got.is_ok()) continue;
        if (!payload_matches(file.key, b * kBlockSize, *got, scratch)) return false;
        served = true;
        break;
      }
      if (!served) return false;
    }
  }
  // The checksum DataNode::get verifies, timed on its own (as a separate
  // operation, so it is not counted twice in the read's attribution) over
  // the block just compared.
  traced("common.crc32c", [&] { return dblrep::crc32c(scratch); });
  counters.add("crc.bytes", static_cast<double>(scratch.size()));
  return true;
}

bool replay_degraded_read(Fixture& fx, const StoredFile& file,
                          std::size_t block, LayerCounters& counters,
                          double& wire_bytes, Buffer& scratch) {
  trace::Scope root("replay.degraded_read");
  MiniDfs& dfs = *fx.dfs;
  auto info = traced("hdfs.namenode.lookup",
                     [&] { return dfs.namenode().lookup(file.path); });
  if (!info.is_ok()) return false;
  const CodeScheme& code = *file.code;
  const std::size_t k = code.data_blocks();
  const StripeId stripe = info->stripes[block / k];
  SlotStore store = gather(dfs, code, stripe);
  const auto failed = holes(code, store);
  auto plan = traced("ec.plan_degraded",
                     [&] { return code.plan_degraded_block(block % k, failed); });
  if (!plan.is_ok()) return false;
  auto delivered = traced("ec.execute_degraded", [&] {
    return executor_for(code).execute(*plan, store);
  });
  if (!delivered.is_ok() || delivered->size() != 1) return false;
  const double units = static_cast<double>(plan->network_units());
  counters.add("ec.degraded_units", units);
  counters.add("ec.degraded_reads", 1);
  wire_bytes += static_cast<double>(plan->network_bytes(kBlockSize, code.sub_chunks()));
  // The paper's count (Section 3.1): a doubly-lost pentagon block is
  // rebuilt from 3 blocks.
  if (file.spec == "pentagon" && units != 3) return false;
  return payload_matches(file.key, block * kBlockSize, delivered->front(), scratch);
}

bool replay_repair_pass(Fixture& fx, dblrep::hdfs::DataNode& scratch_dn) {
  trace::Scope root("replay.repair_pass");
  MiniDfs& dfs = *fx.dfs;
  const auto& nn = dfs.namenode();
  std::set<StripeId> repaired;
  bool ok = true;
  for (std::size_t n = 0; n < dfs.topology().num_nodes; ++n) {
    for (StripeId stripe : nn.stripes_on_node(static_cast<NodeId>(n))) {
      trace::Scope visit("hdfs.repair.visit");
      const CodeScheme& code = *nn.stripe(stripe).code;
      // The hole probe every visit pays, useful or not.
      SlotStore store = gather(dfs, code, stripe);
      const auto failed = holes(code, store);
      if (failed.empty() || !repaired.insert(stripe).second) continue;
      store = gather(dfs, code, stripe);  // the engine gathers again to execute
      auto plan = traced("ec.plan_repair",
                         [&] { return code.plan_multi_node_repair(failed); });
      if (!plan.is_ok()) return false;
      auto run = traced("ec.execute_repair",
                        [&] { return executor_for(code).execute(*plan, store); });
      if (!run.is_ok()) return false;
      for (const auto& rec : plan->reconstructions) {
        auto it = store.find(rec.dest_slot);
        if (it == store.end()) return false;
        const dblrep::cluster::SlotAddress addr{stripe, rec.dest_slot};
        const Status put = traced("hdfs.datanode.put",
                                  [&] { return scratch_dn.put(addr, ByteSpan(it->second)); });
        (void)scratch_dn.drop(addr);
        ok = ok && put.is_ok();
      }
      ok = ok && traced("replay.check", [&] {
                   return code.verify_codeword(store, kBlockSize);
                 }).is_ok();
    }
  }
  return ok;
}

bool replay_encode(Fixture& fx, const StoredFile& file,
                   std::size_t stripe_index, LayerCounters& counters,
                   dblrep::hdfs::DataNode& scratch_dn) {
  trace::Scope root("replay.encode");
  MiniDfs& dfs = *fx.dfs;
  const CodeScheme& code = *file.code;
  const std::size_t k = code.data_blocks();
  const std::size_t stripe_bytes = k * kBlockSize;
  Buffer data(stripe_bytes);
  fill_payload(file.key, stripe_index * stripe_bytes, data);
  auto info = dfs.namenode().lookup(file.path);
  if (!info.is_ok()) return false;
  const StripeId stripe = info->stripes[stripe_index];

  bool parity_ok = true;
  const Status encoded = traced("ec.encode_batch", [&] {
    return codec_for(code).encode_batch(
        data, kBlockSize,
        [&](std::size_t, std::span<const ByteSpan> symbols) -> Status {
          for (std::size_t sym = 0; sym < symbols.size(); ++sym) {
            const dblrep::cluster::SlotAddress addr{stripe, sym};
            DBLREP_RETURN_IF_ERROR(traced("hdfs.datanode.put", [&] {
              return scratch_dn.put(addr, symbols[sym]);
            }));
            (void)scratch_dn.drop(addr);
            if (sym < k) continue;
            // Parity must equal what the cluster stored for this stripe
            // (the check's own span keeps it out of the encode's self time).
            trace::Scope check("replay.check");
            const std::size_t slot = code.layout().slots_of_symbol(sym).front();
            auto& dn = dfs.datanode(dfs.namenode().node_of({stripe, slot}));
            auto stored = dn.get({stripe, slot});
            parity_ok = parity_ok && stored.is_ok() &&
                        std::equal(stored->begin(), stored->end(),
                                   symbols[sym].begin(), symbols[sym].end());
          }
          return Status::ok();
        });
  });
  if (!encoded.is_ok() || !parity_ok) return false;

  // The parity kernel on its own: matrix_apply over the cached coefficient
  // block, with the bytes it moved from this thread's slice-op counters.
  const std::size_t parity = code.num_symbols() - k;
  std::vector<ByteSpan> sources;
  for (std::size_t i = 0; i < k; ++i) {
    sources.emplace_back(data.data() + i * kBlockSize, kBlockSize);
  }
  std::vector<Buffer> out(parity, Buffer(kBlockSize));
  std::vector<MutableByteSpan> outputs(out.begin(), out.end());
  dblrep::gf::reset_slice_op_stats();
  {
    trace::Scope scope("gf.matrix_apply");
    dblrep::gf::matrix_apply(code.parity_coeffs(), sources, outputs);
  }
  counters.add("gf.src_bytes", static_cast<double>(k * kBlockSize));
  counters.add("gf.moved_bytes", static_cast<double>(
                                     dblrep::gf::slice_op_stats().total_bytes_moved()));
  return true;
}

Status traced_repair_all(MiniDfs& dfs, LayerCounters& counters) {
  const auto& nn = dfs.namenode();
  for (NodeId node : dfs.down_nodes()) {
    DBLREP_RETURN_IF_ERROR(dfs.restart_node(node));
  }
  Status first_error;
  double visits = 0, useful = 0;
  for (std::size_t n = 0; n < dfs.topology().num_nodes; ++n) {
    const NodeId node = static_cast<NodeId>(n);
    for (StripeId stripe : nn.stripes_on_node(node)) {
      visits += 1;
      const std::size_t slots = nn.stripe(stripe).code->layout().num_slots();
      for (std::size_t slot = 0; slot < slots; ++slot) {
        if (!dfs.datanode(nn.node_of({stripe, slot})).has({stripe, slot})) {
          useful += 1;
          break;
        }
      }
    }
    Status status =
        traced("hdfs.repair.repair_node", [&] { return dfs.repair_node(node); });
    if (!status.is_ok() && first_error.is_ok()) first_error = std::move(status);
  }
  counters.add("repair.visits", visits);
  counters.add("repair.useful", useful);
  counters.add("repair.passes", 1);
  return first_error;
}

void add_cluster_bytes(LayerCounters& counters, const Wire& wire, double ops) {
  counters.add("cluster.client_bytes", wire.client);
  counters.add("cluster.intra_bytes", wire.intra);
  counters.add("cluster.cross_bytes", wire.cross);
  counters.add("cluster.ops", ops);
}

double queue_wait_us(dblrep::exec::ThreadPool& pool) {
  const auto t0 = Clock::now();
  auto waited = dblrep::exec::spawn(pool, [t0] { return micros_since(t0); });
  return waited.get();
}

void sched_probe(const Fixture& fx, dblrep::Rng& rng, int rounds,
                 LayerCounters& counters) {
  const auto& nn = fx.dfs->namenode();
  const std::size_t nodes = fx.topology.num_nodes;
  for (int r = 0; r < rounds; ++r) {
    dblrep::sched::AssignmentProblem problem;
    problem.num_nodes = nodes;
    problem.slots_per_node = 2;
    const std::size_t tasks = dblrep::sched::tasks_for_load(1.0, nodes, 2);
    while (problem.tasks.size() < tasks) {
      const StoredFile& f = fx.files[rng.next_below(fx.files.size())];
      const std::size_t block = rng.next_below(f.blocks());
      const std::size_t k = f.code->data_blocks();
      auto info = nn.lookup(f.path);
      if (!info.is_ok()) continue;
      dblrep::sched::TaskInfo task;
      task.stripe = static_cast<std::size_t>(info->stripes[block / k]);
      task.symbol = block % k;
      for (NodeId node : nn.replica_nodes(info->stripes[block / k], block % k)) {
        if (fx.dfs->datanode(node).is_up()) task.locations.push_back(node);
      }
      problem.tasks.push_back(std::move(task));
    }
    dblrep::sched::DelayScheduler delay;
    const auto t0 = Clock::now();
    const auto assignment = traced("sched.assign", [&] { return delay.assign(problem, rng); });
    counters.add("sched.assign_us", micros_since(t0));
    counters.add("sched.delay_local", assignment.locality());
    dblrep::sched::MaxMatchingScheduler matching;
    const auto best = matching.assign(problem, rng);
    counters.add("sched.max_local", best.locality());
    // A maximum matching places at least as many tasks locally as any
    // other assignment of the same tasks.
    auto local_tasks = [](const dblrep::sched::Assignment& a) {
      return std::llround(a.locality() * static_cast<double>(a.assigned_count()));
    };
    counters.add("sched.bound_violations", local_tasks(best) < local_tasks(assignment) ? 1 : 0);
    counters.add("sched.rounds", 1);
  }
}

dblrep::mapred::JobConfig pinned_job_config(int setup, double load,
                                            std::set<int> down_nodes,
                                            std::uint64_t seed, int trials) {
  dblrep::mapred::JobConfig c;
  if (setup == 1) {
    c.topology = dblrep::cluster::setup1_topology();
    c.map_slots = 2;
    c.reduce_slots = 1;
    c.block_bytes = 128e6;
    c.map_cpu_seconds = 45.0;
    c.remote_penalty_seconds = 12.0;
  } else {
    c.topology = dblrep::cluster::setup2_topology();
    c.map_slots = 4;
    c.reduce_slots = 2;
    c.block_bytes = 512e6;
    c.map_cpu_seconds = 60.0;
    c.remote_penalty_seconds = 8.0;
  }
  c.startup_seconds = 20.0;
  c.reduce_tail_seconds = 15.0;
  c.task_stagger_seconds = 1.0;
  c.overhead_traffic_bytes = 100e6;
  c.load = load;
  c.down_nodes = std::move(down_nodes);
  c.trials = trials;
  c.seed = seed;
  return c;
}

double reference_job_s(std::uint64_t seed) {
  auto code = dblrep::ec::make_code("3-rep");
  DBLREP_CHECK(code.is_ok());
  dblrep::sched::DelayScheduler delay;
  return dblrep::mapred::run_terasort(**code, delay,
                                      pinned_job_config(1, 1.0, {}, seed, 1))
      .job_seconds;
}

// ---------------------------------------------------------- layer probe

namespace {
constexpr std::uint64_t kProbeLayoutSeed = 0x9b0be;
}  // namespace

void run_layer_probe(std::uint64_t seed, dblrep::exec::ThreadPool& pool,
                     Report& report, LayerCounters& counters) {
  trace::set_source(trace::Source::kProbe);
  auto fx = build_fixture(kProbeLayoutSeed, seed, pool, 6u << 20, 2, 3);
  MiniDfs& dfs = *fx->dfs;
  dblrep::hdfs::Client client(dfs);
  dblrep::hdfs::DataNode scratch_dn(0);
  dblrep::Rng rng(mix64(seed ^ 0x51ab));
  Buffer scratch;

  // Streamed writes: create, four 1 MiB appends, close, read back.
  const std::size_t journal0 = dfs.namenode().total_journal_records();
  Buffer chunk(1 << 20);
  for (std::size_t i = 0; i < kCodes.size(); ++i) {
    const std::string path = "/probe/stream" + std::to_string(i);
    const std::uint64_t key = mix64(seed + 77 + i);
    auto writer = traced("hdfs.namenode.create",
                         [&] { return client.create(path, kCodes[i], kBlockSize); });
    report.check(writer.is_ok(), "probe create " + path);
    if (!writer.is_ok()) continue;
    bool ok = true;
    for (std::size_t a = 0; a < 4; ++a) {
      fill_payload(key, a * chunk.size(), chunk);
      ok = traced("hdfs.client.append", [&] { return writer->append(chunk); }).is_ok() && ok;
    }
    ok = traced("hdfs.client.close", [&] { return writer->close(); }).is_ok() && ok;
    counters.add("client.zero_copy_bytes", static_cast<double>(writer->stats().zero_copy_bytes));
    counters.add("client.buffered_bytes", static_cast<double>(writer->stats().buffered_bytes));
    auto back = client.read(path);
    report.check(ok && back.is_ok() && back->size() == 4 * chunk.size() &&
                     payload_matches(key, 0, *back, scratch),
                 "probe streamed file " + path + " reads back equal");
  }
  counters.add("namenode.journal_records",
               static_cast<double>(dfs.namenode().total_journal_records() - journal0));
  counters.add("namenode.files", static_cast<double>(kCodes.size()));

  // Encode and healthy-read replays, plus real reads for the traffic mix.
  const Wire wire0 = Wire::of(dfs);
  std::size_t real_ops = 0;
  for (std::size_t i = 0; i < fx->files.size(); ++i) {
    const StoredFile& f = fx->files[i];
    report.check(replay_encode(*fx, f, 0, counters, scratch_dn), "probe encode " + f.path);
    for (int r = 0; r < 4; ++r) {
      const std::size_t b = rng.next_below(f.blocks() - 1);
      report.check(replay_pread(*fx, f, b, b + 1, counters, scratch), "probe pread " + f.path);
      auto got = client.pread(f.path, b * kBlockSize, 2 * kBlockSize);
      report.check(got.is_ok() && payload_matches(f.key, b * kBlockSize, *got, scratch),
                   "probe client pread " + f.path);
      ++real_ops;
      counters.add("exec.queue_wait_us", queue_wait_us(pool));
    }
  }

  // Two failures in one pentagon group: degraded reads, then repair.
  const std::size_t stored0 = dfs.stored_bytes();
  const auto& group = dfs.namenode().stripe(dfs.namenode().lookup(fx->files[0].path)->stripes[0]).group;
  const NodeId down_a = group[0], down_b = group[1];
  report.check(dfs.fail_node(down_a).is_ok() && dfs.fail_node(down_b).is_ok(), "probe fail nodes");
  double wire = 0;
  for (const StoredFile& f : fx->files) {
    auto info = dfs.namenode().lookup(f.path);
    const std::size_t k = f.code->data_blocks();
    for (std::size_t b = 0; b < f.blocks(); ++b) {
      const StripeId stripe = info->stripes[b / k];
      bool lost = true;
      for (NodeId n : dfs.namenode().replica_nodes(stripe, b % k)) {
        if (dfs.datanode(n).is_up()) lost = false;
      }
      if (!lost) continue;
      report.check(replay_degraded_read(*fx, f, b, counters, wire, scratch),
                   "probe degraded read " + f.path);
      auto got = client.read_block(f.path, b);
      report.check(got.is_ok() && payload_matches(f.key, b * kBlockSize, *got, scratch),
                   "probe client degraded read " + f.path);
      ++real_ops;
    }
  }
  report.check(replay_repair_pass(*fx, scratch_dn), "probe repair pass replay");
  report.check(traced_repair_all(dfs, counters).is_ok(), "probe repair pass");
  add_cluster_bytes(counters, Wire::of(dfs) - wire0, static_cast<double>(real_ops));
  report.check(dfs.scrub().is_ok() && dfs.stored_bytes() == stored0,
               "probe scrub and stored bytes after repair");

  sched_probe(*fx, rng, 20, counters);
  counters.add("mapred.job_s_3rep", reference_job_s(seed));
  trace::set_source(trace::Source::kLoop);
}

// ------------------------------------------------------------- emitter

namespace {

using StatsMap = std::map<std::string, trace::NameStats>;

std::optional<double> span_median(const StatsMap& stats, const std::string& name,
                                  bool self) {
  auto it = stats.find(name);
  if (it == stats.end() || it->second.duration_us.count() == 0) return std::nullopt;
  return self ? it->second.self_us.quantile(0.5) : it->second.duration_us.quantile(0.5);
}

std::optional<double> span_sum_us(const StatsMap& stats, const std::string& name) {
  auto it = stats.find(name);
  if (it == stats.end() || it->second.duration_us.count() == 0) return std::nullopt;
  return it->second.duration_us.sum();
}

std::optional<double> ratio(std::optional<double> a, std::optional<double> b) {
  if (!a || !b || *b == 0) return std::nullopt;
  return *a / *b;
}

}  // namespace

void emit_layer_metrics(Report& report, const LayerCounters& loop,
                        const LayerCounters& probe, double p50_ratio,
                        const Options& options) {
  const auto spans = trace::collect();
  const StatsMap loop_spans = trace::stats_by_name(spans, trace::Source::kLoop);
  const StatsMap probe_spans = trace::stats_by_name(spans, trace::Source::kProbe);

  using Getter = std::function<std::optional<double>(const StatsMap&, const LayerCounters&)>;
  struct Row {
    const char* name;
    const char* unit;
    Getter get;
  };
  auto span_us = [](const char* span, bool self = false) -> Getter {
    return [=](const StatsMap& s, const LayerCounters&) { return span_median(s, span, self); };
  };
  auto counter_ratio = [](const char* a, const char* b, double scale = 1.0) -> Getter {
    return [=](const StatsMap&, const LayerCounters& c) -> std::optional<double> {
      auto r = ratio(c.sum(a), c.sum(b));
      if (r) *r *= scale;
      return r;
    };
  };
  auto counter_q = [](const char* key, double q) -> Getter {
    return [=](const StatsMap&, const LayerCounters& c) { return c.quantile(key, q); };
  };
  auto throughput = [](const char* bytes, const char* span) -> Getter {
    return [=](const StatsMap& s, const LayerCounters& c) {
      return ratio(c.sum(bytes), span_sum_us(s, span));  // bytes/µs == MB/s
    };
  };

  const std::vector<Row> rows = {
      {"common.crc32c_mb_s", "MB/s", throughput("crc.bytes", "common.crc32c")},
      {"hdfs.datanode.get_us", "us", span_us("hdfs.datanode.get")},
      {"hdfs.datanode.put_us", "us", span_us("hdfs.datanode.put")},
      {"gf.parity_apply_mb_s", "MB/s", throughput("gf.src_bytes", "gf.matrix_apply")},
      {"gf.bytes_moved_per_byte", "B/B", counter_ratio("gf.moved_bytes", "gf.src_bytes")},
      {"ec.encode_us", "us", span_us("ec.encode_batch", /*self=*/true)},
      {"ec.plan_degraded_us", "us", span_us("ec.plan_degraded")},
      {"ec.execute_degraded_us", "us", span_us("ec.execute_degraded")},
      {"ec.degraded_units_per_block", "count",
       counter_ratio("ec.degraded_units", "ec.degraded_reads")},
      {"ec.plan_repair_us", "us", span_us("ec.plan_repair")},
      {"ec.execute_repair_us", "us", span_us("ec.execute_repair")},
      {"hdfs.repair.node_s", "s",
       [](const StatsMap& s, const LayerCounters&) -> std::optional<double> {
         auto it = s.find("hdfs.repair.repair_node");
         if (it == s.end() || it->second.duration_us.count() == 0) return std::nullopt;
         return it->second.duration_us.mean() / 1e6;
       }},
      {"hdfs.repair.stripe_visits", "count", counter_ratio("repair.visits", "repair.passes")},
      {"hdfs.repair.useful_visit_frac", "fraction",
       counter_ratio("repair.useful", "repair.visits")},
      {"hdfs.namenode.lookup_us", "us", span_us("hdfs.namenode.lookup")},
      {"hdfs.namenode.create_us", "us", span_us("hdfs.namenode.create")},
      {"hdfs.namenode.journal_records_per_file", "count",
       counter_ratio("namenode.journal_records", "namenode.files")},
      {"hdfs.client.append_us", "us", span_us("hdfs.client.append")},
      {"hdfs.client.close_us", "us", span_us("hdfs.client.close")},
      {"hdfs.client.zero_copy_frac", "fraction",
       [](const StatsMap&, const LayerCounters& c) -> std::optional<double> {
         auto z = c.sum("client.zero_copy_bytes");
         auto b = c.sum("client.buffered_bytes");
         if (!z || !b || *z + *b == 0) return std::nullopt;
         return *z / (*z + *b);
       }},
      {"exec.queue_wait_p50_us", "us", counter_q("exec.queue_wait_us", 0.5)},
      {"exec.queue_wait_p99_us", "us", counter_q("exec.queue_wait_us", 0.99)},
      {"cluster.client_bytes", "B/op", counter_ratio("cluster.client_bytes", "cluster.ops")},
      {"cluster.intra_rack_bytes", "B/op", counter_ratio("cluster.intra_bytes", "cluster.ops")},
      {"cluster.cross_rack_bytes", "B/op", counter_ratio("cluster.cross_bytes", "cluster.ops")},
      {"sched.delay_locality", "fraction", counter_ratio("sched.delay_local", "sched.rounds")},
      {"sched.max_match_locality", "fraction", counter_ratio("sched.max_local", "sched.rounds")},
      {"sched.assign_us", "us", counter_q("sched.assign_us", 0.5)},
      {"mapred.job_s_3rep", "s", counter_q("mapred.job_s_3rep", 0.5)},
  };
  for (const Row& row : rows) {
    auto value = row.get(loop_spans, loop);
    std::string source = "loop";
    if (!value) {
      value = row.get(probe_spans, probe);
      source = "probe";
    }
    if (!value) source = "none";
    report.metric(row.name, value.value_or(0.0), row.unit);
    report.note(row.name, value.value_or(0.0), row.unit, "from " + source);
  }
  for (const LayerCounters* c : {&loop, &probe}) {
    report.check(c->sum("sched.bound_violations").value_or(0) == 0,
                 "max-matching locality bounds delay scheduling on the same tasks");
  }
  report.metric("trace.p50_ratio", p50_ratio, "ratio");
  report.note("trace.p50_ratio", p50_ratio, "traced/untraced op p50",
              "tracing overhead");

  // Self time per layer for each replayed operation kind of the loop.
  std::vector<trace::Span> loop_only;
  for (const auto& s : spans) {
    if (s.source == trace::Source::kLoop) loop_only.push_back(s);
  }
  for (const char* root : {"replay.pread", "replay.degraded_read",
                           "replay.repair_pass", "replay.encode"}) {
    const auto shares = trace::layer_shares(loop_only, root);
    if (shares.empty()) continue;
    std::string line = std::string("attribution ") + root + ":";
    std::string top;
    double top_share = -1;
    for (const auto& [layer, share] : shares) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %s=%.3f", layer.c_str(), share);
      line += buf;
      if (layer != "replay" && share > top_share) {
        top_share = share;
        top = layer;
      }
    }
    report.note(line + "  largest=" + top);
  }
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".tsv";
  report.note("trace_file = " + path + " spans=" + std::to_string(spans.size()) +
              " dropped=" + std::to_string(trace::dropped()));
  report.check(trace::write_tsv(spans, path), "write trace file " + path);
}

}  // namespace perfbench
