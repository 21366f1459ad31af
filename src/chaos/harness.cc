#include "chaos/harness.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <sstream>

#include "ec/registry.h"
#include "exec/thread_pool.h"
#include "hdfs/client.h"
#include "hdfs/raidnode.h"
#include "hdfs/workload_driver.h"

namespace dblrep::chaos {

namespace {

using Clock = std::chrono::steady_clock;

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// SplitMix64 finalizer: derives independent sub-picks from an event's
/// single pick without consuming any run-time randomness.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string code_name(const Status& status) {
  return status_code_name(status.code());
}

/// Payload length for a seeded client write/append: 1..stripes_per_file
/// stripes, with a sub-block tail shaved off some picks to exercise
/// padding. Shared so write and append events draw identical size
/// distributions.
std::size_t seeded_payload_len(const ec::CodeScheme& code,
                               const ChaosConfig& config,
                               std::uint64_t pick) {
  const std::uint64_t sub = mix64(pick);
  const std::size_t stripes =
      1 + sub % std::max<std::size_t>(config.stripes_per_file, 1);
  const std::size_t full = stripes * code.data_blocks() * config.block_size;
  return full - mix64(sub) % config.block_size;
}

/// One in-flight scenario: the cluster under test plus the ground truth
/// and counters the checkers and the report read.
struct Run {
  const ChaosConfig& config;
  hdfs::MiniDfs dfs;
  hdfs::Client client{dfs};  // one client for all streaming events
  hdfs::RaidNode raid{dfs};  // tier transitions (kRetier-classed streams)
  TruthMap truth;
  ChaosReport report;
  std::set<std::string> seen_violations;  // dedup across checker passes
  std::size_t write_seq = 0;
  std::size_t append_seq = 0;
  std::size_t burst_seq = 0;

  Run(const ChaosConfig& cfg, std::uint64_t seed)
      : config(cfg),
        dfs(cfg.topology, seed ^ 0x853c49e6748fea9bULL,
            cfg.pool != nullptr ? cfg.pool : &exec::inline_pool(),
            cfg.dfs_options) {}

  std::uint64_t num_nodes() const { return config.topology.num_nodes; }

  std::vector<std::string> tracked_paths() const {
    std::vector<std::string> paths;
    paths.reserve(truth.size());
    for (const auto& [path, file] : truth) paths.push_back(path);
    return paths;
  }

  void record_truth(const std::string& path, Buffer expected) {
    FileTruth file;
    file.expected = std::move(expected);
    file.block_size = config.block_size;
    file.written_fully_live = dfs.down_nodes().empty();
    truth[path] = std::move(file);
  }

  void add_violation(std::size_t step, const ChaosEvent& event,
                     const std::string& text) {
    if (!seen_violations.insert(text).second) return;
    std::ostringstream os;
    os << "step " << step << " (" << event.to_string() << "): " << text;
    report.violations.push_back(os.str());
  }

  void run_checkers(std::size_t step, const ChaosEvent& event) {
    std::vector<std::string> found;
    check_all(dfs, truth, found);
    for (const std::string& text : found) add_violation(step, event, text);
  }

  std::string apply(std::size_t step, const ChaosEvent& event);
};

std::string Run::apply(std::size_t step, const ChaosEvent& event) {
  std::ostringstream os;
  const auto down = dfs.down_nodes();
  switch (event.kind) {
    case EventKind::kCrashNode: {
      const auto node = static_cast<cluster::NodeId>(event.pick % num_nodes());
      if (down.contains(node)) {
        os << "noop (node " << node << " already down)";
        break;
      }
      os << "crash node " << node << ": " << code_name(dfs.fail_node(node));
      break;
    }
    case EventKind::kOfflineNode: {
      const auto node = static_cast<cluster::NodeId>(event.pick % num_nodes());
      if (down.contains(node)) {
        os << "noop (node " << node << " already down)";
        break;
      }
      os << "offline node " << node << ": "
         << code_name(dfs.offline_node(node));
      break;
    }
    case EventKind::kRestartNode: {
      const auto node = static_cast<cluster::NodeId>(event.pick % num_nodes());
      if (!down.contains(node)) {
        os << "noop (node " << node << " already up)";
        break;
      }
      os << "restart node " << node << ": "
         << code_name(dfs.restart_node(node));
      break;
    }
    case EventKind::kRackOutage: {
      const int rack = static_cast<int>(
          event.pick % static_cast<std::uint64_t>(config.topology.num_racks));
      std::size_t taken = 0;
      for (std::uint64_t n = 0; n < num_nodes(); ++n) {
        const auto node = static_cast<cluster::NodeId>(n);
        if (config.topology.rack_of(node) != rack || down.contains(node)) {
          continue;
        }
        (void)dfs.offline_node(node);
        ++taken;
      }
      os << "rack " << rack << " outage (" << taken << " nodes offline)";
      break;
    }
    case EventKind::kRackRestore: {
      const int rack = static_cast<int>(
          event.pick % static_cast<std::uint64_t>(config.topology.num_racks));
      std::size_t restored = 0;
      for (const cluster::NodeId node : down) {
        if (config.topology.rack_of(node) != rack) continue;
        (void)dfs.restart_node(node);
        ++restored;
      }
      os << "rack " << rack << " restore (" << restored << " nodes back)";
      break;
    }
    case EventKind::kCorruptBlock:
    case EventKind::kTamperBlock: {
      // Deterministic victim selection: all blocks on live nodes, in node
      // and address order (DataNode stores are ordered maps).
      std::vector<std::pair<cluster::NodeId, cluster::SlotAddress>> candidates;
      for (std::uint64_t n = 0; n < num_nodes(); ++n) {
        const auto node = static_cast<cluster::NodeId>(n);
        const auto& dn = dfs.datanode(node);
        if (!dn.is_up()) continue;
        for (const auto& address : dn.stored_addresses()) {
          candidates.emplace_back(node, address);
        }
      }
      if (candidates.empty()) {
        os << "noop (no blocks to corrupt)";
        break;
      }
      const auto& [node, address] =
          candidates[event.pick % candidates.size()];
      auto& dn = dfs.datanode(node);
      const std::uint64_t sub = mix64(event.pick);
      if (event.kind == EventKind::kCorruptBlock) {
        const auto bytes = dn.peek(address);
        const std::size_t byte =
            bytes.is_ok() && !bytes->empty() ? sub % bytes->size() : 0;
        os << "corrupt node " << node << " stripe " << address.stripe
           << " slot " << address.slot << " byte " << byte << ": "
           << code_name(dn.corrupt(address, byte));
      } else {
        // CRC-valid rewrite: the silent-corruption case used to prove the
        // durability checker catches true violations.
        const auto bytes = dn.peek(address);
        const std::size_t size = bytes.is_ok() ? bytes->size() : 0;
        os << "tamper node " << node << " stripe " << address.stripe
           << " slot " << address.slot << ": "
           << code_name(dn.put(address, random_buffer(size, sub)));
      }
      break;
    }
    case EventKind::kClientRead: {
      const auto paths = tracked_paths();
      if (paths.empty()) {
        os << "noop (no files)";
        break;
      }
      const std::string& path = paths[event.pick % paths.size()];
      const FileTruth& file = truth.at(path);
      const std::size_t total_blocks =
          (file.expected.size() + file.block_size - 1) / file.block_size;
      if (total_blocks == 0) {
        os << "noop (empty file)";
        break;
      }
      const std::size_t block = mix64(event.pick) % total_blocks;
      ++report.reads;
      const auto start = Clock::now();
      const auto result = dfs.read_block(path, block);
      const double us = micros_since(start);
      (down.empty() ? report.read_us : report.degraded_read_us).add(us);
      os << "read " << path << " block " << block << ": "
         << code_name(result.status());
      if (result.is_ok()) {
        const std::size_t offset = block * file.block_size;
        const std::size_t want =
            std::min(file.block_size, file.expected.size() - offset);
        if (result->size() < want ||
            std::memcmp(result->data(), file.expected.data() + offset,
                        want) != 0) {
          add_violation(step, event,
                        "durability: read of " + path + " block " +
                            std::to_string(block) +
                            " returned wrong bytes");
        }
      } else {
        ++report.read_errors;
        // A read is allowed to fail only beyond the scheme's tolerance.
        const auto info = dfs.stat(path);
        const auto code = dfs.code_for(path);
        if (info.is_ok() && code.is_ok()) {
          const std::size_t k = (*code)->data_blocks();
          const cluster::StripeId stripe = info->stripes[block / k];
          if ((*code)->is_recoverable(probe_failed_nodes(dfs, stripe))) {
            add_violation(step, event,
                          "durability: read of " + path + " block " +
                              std::to_string(block) +
                              " failed within tolerance: " +
                              result.status().to_string());
          }
        }
      }
      break;
    }
    case EventKind::kClientWrite: {
      const std::string path = "/chaos/w" + std::to_string(write_seq++);
      const auto code = ec::make_code(config.code_spec);
      if (!code.is_ok()) {
        os << "write " << path << ": " << code_name(code.status());
        break;
      }
      const std::size_t len = seeded_payload_len(**code, config, event.pick);
      Buffer payload = random_buffer(len, event.pick);
      ++report.writes;
      const Status status =
          dfs.write_file(path, payload, config.code_spec, config.block_size);
      os << "write " << path << " (" << len << " B): " << code_name(status);
      if (status.is_ok()) {
        record_truth(path, std::move(payload));
      } else {
        ++report.write_errors;
      }
      break;
    }
    case EventKind::kClientPread: {
      const auto paths = tracked_paths();
      if (paths.empty()) {
        os << "noop (no files)";
        break;
      }
      const std::string& path = paths[event.pick % paths.size()];
      const FileTruth& file = truth.at(path);
      if (file.expected.empty()) {
        os << "noop (empty file)";
        break;
      }
      const std::uint64_t sub = mix64(event.pick);
      const std::size_t offset = sub % file.expected.size();
      const std::size_t len = 1 + mix64(sub) % (2 * file.block_size);
      const std::size_t want = std::min(len, file.expected.size() - offset);
      ++report.reads;
      const auto start = Clock::now();
      const auto result = client.pread(path, offset, len);
      const double us = micros_since(start);
      (down.empty() ? report.read_us : report.degraded_read_us).add(us);
      os << "pread " << path << " [" << offset << ", +" << len
         << "): " << code_name(result.status());
      if (result.is_ok()) {
        if (result->size() != want ||
            std::memcmp(result->data(), file.expected.data() + offset,
                        want) != 0) {
          add_violation(step, event,
                        "durability: pread of " + path + " [" +
                            std::to_string(offset) + ", +" +
                            std::to_string(len) +
                            ") returned wrong bytes");
        }
      } else {
        ++report.read_errors;
        // A range read may fail only if some covered stripe is beyond the
        // scheme's tolerance.
        const auto info = dfs.stat(path);
        const auto code = dfs.code_for(path);
        if (info.is_ok() && code.is_ok() && want > 0) {
          const std::size_t k = (*code)->data_blocks();
          const std::size_t first_stripe = (offset / file.block_size) / k;
          const std::size_t last_stripe =
              ((offset + want - 1) / file.block_size) / k;
          bool all_recoverable = true;
          for (std::size_t si = first_stripe;
               si <= last_stripe && si < info->stripes.size(); ++si) {
            if (!(*code)->is_recoverable(
                    probe_failed_nodes(dfs, info->stripes[si]))) {
              all_recoverable = false;
              break;
            }
          }
          if (all_recoverable) {
            add_violation(step, event,
                          "durability: pread of " + path +
                              " failed within tolerance: " +
                              result.status().to_string());
          }
        }
      }
      break;
    }
    case EventKind::kClientAppend: {
      const std::string path = "/chaos/a" + std::to_string(append_seq++);
      const auto code = ec::make_code(config.code_spec);
      if (!code.is_ok()) {
        os << "append " << path << ": " << code_name(code.status());
        break;
      }
      const std::size_t len = seeded_payload_len(**code, config, event.pick);
      Buffer payload = random_buffer(len, event.pick);
      ++report.writes;
      Status status;
      auto writer = client.create(path, config.code_spec, config.block_size);
      if (!writer.is_ok()) {
        status = writer.status();
      } else {
        // Stream in 1.5-block chunks so appends cross both block and
        // stripe boundaries through the handle's sub-stripe buffer.
        const std::size_t chunk =
            std::max<std::size_t>(1, (config.block_size * 3) / 2);
        for (std::size_t off = 0; off < len && status.is_ok();
             off += chunk) {
          status = writer->append(
              ByteSpan(payload).subspan(off, std::min(chunk, len - off)));
        }
        if (status.is_ok()) {
          status = writer->close();
        } else {
          (void)writer->abort();
        }
      }
      os << "append " << path << " (" << len << " B): " << code_name(status);
      if (status.is_ok()) {
        record_truth(path, std::move(payload));
      } else {
        ++report.write_errors;
      }
      break;
    }
    case EventKind::kDeleteFile: {
      const auto paths = tracked_paths();
      if (paths.empty()) {
        os << "noop (no files)";
        break;
      }
      const std::string& path = paths[event.pick % paths.size()];
      const Status status = dfs.delete_file(path);
      os << "delete " << path << ": " << code_name(status);
      if (status.is_ok()) {
        truth.erase(path);
      } else {
        add_violation(step, event,
                      "namespace: delete of tracked file " + path +
                          " failed: " + status.to_string());
      }
      break;
    }
    case EventKind::kWorkloadBurst: {
      const std::string prefix = "/chaos/b" + std::to_string(burst_seq++);
      hdfs::WorkloadOptions wl;
      wl.clients = 1;  // single client: the op sequence is seed-determined
      wl.ops_per_client = 6;
      wl.code_spec = config.code_spec;
      wl.block_size = config.block_size;
      wl.stripes_per_file = std::max<std::size_t>(config.stripes_per_file, 1);
      wl.preload_files = 1;
      wl.path_prefix = prefix;
      wl.fail_nodes = 0;
      wl.repair_concurrently = false;
      wl.seed = event.pick;
      const auto before = dfs.list_files();
      hdfs::WorkloadDriver driver(dfs, wl);
      const Status preload = driver.preload();
      if (!preload.is_ok()) {
        os << "burst " << prefix << " preload: " << code_name(preload);
        break;
      }
      const auto burst = driver.run();
      if (!burst.is_ok()) {
        os << "burst " << prefix << ": " << code_name(burst.status());
        break;
      }
      // Every file the burst created stores the driver's shared payload.
      const std::set<std::string> known(before.begin(), before.end());
      for (const std::string& path : dfs.list_files()) {
        if (!known.contains(path)) record_truth(path, driver.payload());
      }
      report.reads += burst->read.latency_us.count() +
                      burst->degraded.latency_us.count();
      report.read_errors += burst->read.errors + burst->degraded.errors;
      report.writes += burst->write.latency_us.count();
      report.write_errors += burst->write.errors;
      report.read_us.merge(burst->read.latency_us);
      report.degraded_read_us.merge(burst->degraded.latency_us);
      os << "burst " << prefix << ": ops=" << burst->total_ops()
         << " errors=" << burst->total_errors();
      break;
    }
    case EventKind::kRepairNode: {
      const auto node = static_cast<cluster::NodeId>(event.pick % num_nodes());
      ++report.repair_attempts;
      const Status status = dfs.repair_node(node);
      if (status.is_ok()) ++report.repair_successes;
      os << "repair node " << node << ": " << code_name(status);
      break;
    }
    case EventKind::kRepairAll: {
      ++report.repair_attempts;
      const Status status = dfs.repair_all();
      if (status.is_ok()) ++report.repair_successes;
      os << "repair all: " << code_name(status);
      break;
    }
    case EventKind::kScrubRepair: {
      const auto healed = dfs.scrub_repair();
      if (healed.is_ok()) {
        os << "scrub repair: healed " << *healed;
      } else {
        os << "scrub repair: " << code_name(healed.status());
      }
      break;
    }
    case EventKind::kNameNodeCrash: {
      // Odd picks checkpoint first, so both the replay-everything and the
      // snapshot-plus-tail recovery paths run under chaos. Events execute
      // serially (the harness is the serialization point), so no write is
      // open and recovery must land fingerprint-identical.
      const bool checkpoint = (event.pick & 1) != 0;
      if (checkpoint) dfs.snapshot_namenode();
      const std::uint64_t before = dfs.catalog_fingerprint();
      const auto recovered = dfs.crash_namenode();
      if (!recovered.is_ok()) {
        os << "namenode crash: " << code_name(recovered.status());
        add_violation(step, event,
                      "namenode recovery failed: " +
                          recovered.status().to_string());
        break;
      }
      const std::uint64_t after = dfs.catalog_fingerprint();
      os << "namenode crash" << (checkpoint ? " (snapshotted)" : "")
         << ": replayed " << recovered->journal_records_replayed
         << " records";
      if (before != after) {
        add_violation(step, event,
                      "namenode recovery changed the catalog fingerprint");
      }
      break;
    }
    case EventKind::kTierTransition: {
      // Re-encode one tracked file along the tier ladder through the same
      // kRetier-classed publish-then-delete swap the TieringEngine drives.
      // Odd sub-picks land a node crash mid-stream and read the file back
      // *during* the transition: the old layout must stay published (and
      // readable within tolerance) until the swap, the tentpole's
      // always-recoverable invariant.
      const auto paths = tracked_paths();
      if (paths.empty()) {
        os << "noop (no files)";
        break;
      }
      const std::string& path = paths[event.pick % paths.size()];
      const auto info = dfs.stat(path);
      if (!info.is_ok() || !info->sealed) {
        os << "noop (" << path << " not transitionable)";
        break;
      }
      static constexpr const char* kLadder[] = {"3-rep", "heptagon-local",
                                                "rs-10-4"};
      std::size_t target = mix64(event.pick) % 3;
      if (info->code_spec == kLadder[target]) target = (target + 1) % 3;
      const std::uint64_t sub = mix64(mix64(event.pick));
      const bool mid_crash = (sub & 1) != 0;
      const FileTruth& file = truth.at(path);
      const std::size_t total_blocks =
          (file.expected.size() + file.block_size - 1) / file.block_size;
      if (mid_crash) {
        const auto victim =
            static_cast<cluster::NodeId>((sub >> 1) % num_nodes());
        const std::size_t block =
            total_blocks == 0 ? 0 : mix64(sub) % total_blocks;
        raid.set_mid_stream_hook([&, victim, block, step] {
          if (!dfs.down_nodes().contains(victim)) {
            (void)dfs.fail_node(victim);
          }
          if (total_blocks == 0) return;
          ++report.reads;
          const auto start = Clock::now();
          const auto result = dfs.read_block(path, block);
          report.degraded_read_us.add(micros_since(start));
          if (result.is_ok()) {
            const std::size_t offset = block * file.block_size;
            const std::size_t want =
                std::min(file.block_size, file.expected.size() - offset);
            if (result->size() < want ||
                std::memcmp(result->data(), file.expected.data() + offset,
                            want) != 0) {
              add_violation(step, event,
                            "tier: mid-transition read of " + path +
                                " block " + std::to_string(block) +
                                " returned wrong bytes");
            }
          } else {
            ++report.read_errors;
            // Mid-transition, the old layout is still the published one;
            // a read may fail only beyond the scheme's tolerance.
            const auto mid_info = dfs.stat(path);
            const auto code = dfs.code_for(path);
            if (mid_info.is_ok() && code.is_ok()) {
              const std::size_t k = (*code)->data_blocks();
              const cluster::StripeId stripe = mid_info->stripes[block / k];
              if ((*code)->is_recoverable(probe_failed_nodes(dfs, stripe))) {
                add_violation(step, event,
                              "tier: mid-transition read of " + path +
                                  " block " + std::to_string(block) +
                                  " failed within tolerance: " +
                                  result.status().to_string());
              }
            }
          }
        });
      } else {
        raid.set_mid_stream_hook(nullptr);
      }
      const bool live_at_start = down.empty();
      const auto raided = raid.raid_file(path, kLadder[target]);
      raid.set_mid_stream_hook(nullptr);
      os << "tier " << path << " " << info->code_spec << " -> "
         << kLadder[target] << (mid_crash ? " (mid-crash)" : "")
         << ": " << code_name(raided.status());
      if (raided.is_ok()) {
        // The file now lives on a freshly placed layout; the strict
        // placement promises apply iff no node was down at any point of
        // the stream.
        truth.at(path).written_fully_live =
            live_at_start && dfs.down_nodes().empty();
      }
      break;
    }
  }
  return os.str();
}

}  // namespace

std::string ChaosReport::trace_to_string() const {
  std::ostringstream os;
  os << "seed=" << seed << " events=" << trace.size() << "\n";
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const EventOutcome& step = trace[i];
    os << "#" << i << " " << step.event.to_string() << " -> " << step.outcome
       << " [storage=" << step.storage_fingerprint
       << " state=" << step.fingerprint << "]\n";
  }
  for (const std::string& violation : violations) {
    os << "VIOLATION: " << violation << "\n";
  }
  return os.str();
}

ChaosReport ChaosHarness::run_schedule(
    std::uint64_t seed, const std::vector<ChaosEvent>& events) const {
  Run run(config_, seed);
  run.report.seed = seed;

  // Preload: the file population every scenario starts from. A preload
  // failure is a config error, reported as a violation so sweeps fail
  // loudly instead of green-lighting empty runs.
  const auto code = ec::make_code(config_.code_spec);
  if (!code.is_ok()) {
    run.report.violations.push_back("preload: " + code.status().to_string());
    return std::move(run.report);
  }
  const std::size_t file_bytes = std::max<std::size_t>(
      config_.stripes_per_file, 1) * (*code)->data_blocks() *
      config_.block_size;
  for (std::size_t f = 0; f < config_.preload_files; ++f) {
    const std::string path = "/chaos/preload/" + std::to_string(f);
    Buffer payload = random_buffer(file_bytes, seed ^ mix64(f + 1));
    const Status status = run.dfs.write_file(path, payload, config_.code_spec,
                                             config_.block_size);
    if (!status.is_ok()) {
      run.report.violations.push_back("preload " + path + ": " +
                                      status.to_string());
      return std::move(run.report);
    }
    run.record_truth(path, std::move(payload));
  }

  const std::size_t cadence = std::max<std::size_t>(config_.check_every, 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EventOutcome step;
    step.event = events[i];
    step.outcome = run.apply(i, events[i]);
    if ((i + 1) % cadence == 0 || i + 1 == events.size()) {
      run.run_checkers(i, events[i]);
    }
    step.storage_fingerprint = storage_fingerprint(run.dfs);
    step.fingerprint = cluster_fingerprint(run.dfs);
    run.report.trace.push_back(std::move(step));
  }
  if (events.empty()) {
    run.run_checkers(0, ChaosEvent{});
  }

  const auto& ledger = run.dfs.traffic();
  run.report.traffic_total_bytes = ledger.total_bytes();
  run.report.traffic_intra_rack_bytes = ledger.intra_rack_bytes();
  run.report.traffic_cross_rack_bytes = ledger.cross_rack_bytes();
  run.report.traffic_client_bytes = ledger.client_bytes();
  run.report.final_storage_fingerprint = storage_fingerprint(run.dfs);
  run.report.final_fingerprint = cluster_fingerprint(run.dfs);
  return std::move(run.report);
}

ChaosReport ChaosHarness::run_seed(std::uint64_t seed) const {
  ChaosReport report =
      run_schedule(seed, generate_schedule(config_, seed));
  if (!report.ok() && config_.minimize_on_violation) {
    std::vector<ChaosEvent> events;
    events.reserve(report.trace.size());
    for (const EventOutcome& step : report.trace) events.push_back(step.event);
    report.minimized = minimize(seed, std::move(events));
  }
  return report;
}

std::vector<ChaosEvent> ChaosHarness::minimize(
    std::uint64_t seed, std::vector<ChaosEvent> events) const {
  ChaosConfig config = config_;
  config.minimize_on_violation = false;
  const ChaosHarness probe(config);
  for (std::size_t i = events.size(); i-- > 0;) {
    std::vector<ChaosEvent> candidate = events;
    candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
    if (!probe.run_schedule(seed, candidate).ok()) {
      events = std::move(candidate);
    }
  }
  return events;
}

std::vector<std::string> check_layering_equivalence(const ChaosConfig& config,
                                                    std::uint64_t seed) {
  std::vector<std::string> violations;
  ChaosConfig plain = config;
  plain.dfs_options.layered_repair = false;
  plain.minimize_on_violation = false;
  ChaosConfig layered = plain;
  layered.dfs_options.layered_repair = true;

  const ChaosReport a = ChaosHarness(plain).run_seed(seed);
  const ChaosReport b = ChaosHarness(layered).run_seed(seed);

  if (a.trace.size() != b.trace.size()) {
    violations.push_back("layering: trace lengths differ (" +
                         std::to_string(a.trace.size()) + " vs " +
                         std::to_string(b.trace.size()) + ")");
    return violations;
  }
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    if (a.trace[i].storage_fingerprint != b.trace[i].storage_fingerprint) {
      violations.push_back(
          "layering: datanode bytes diverge after step " + std::to_string(i) +
          " (" + a.trace[i].event.to_string() + ")");
      return violations;
    }
    if (a.trace[i].outcome != b.trace[i].outcome) {
      violations.push_back("layering: outcomes diverge at step " +
                           std::to_string(i) + ": '" + a.trace[i].outcome +
                           "' vs '" + b.trace[i].outcome + "'");
      return violations;
    }
  }
  if (a.traffic_total_bytes != b.traffic_total_bytes) {
    violations.push_back(
        "layering: total traffic differs (" +
        std::to_string(a.traffic_total_bytes) + " vs " +
        std::to_string(b.traffic_total_bytes) + ")");
  }
  if (b.traffic_cross_rack_bytes > a.traffic_cross_rack_bytes) {
    violations.push_back(
        "layering: layered run crossed racks more (" +
        std::to_string(b.traffic_cross_rack_bytes) + " vs " +
        std::to_string(a.traffic_cross_rack_bytes) + ")");
  }
  return violations;
}

}  // namespace dblrep::chaos
