#include "hdfs/workload_driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>
#include <thread>

#include "ec/registry.h"

namespace dblrep::hdfs {

namespace {

using Clock = std::chrono::steady_clock;

/// Append ops a streaming file spreads over before close().
constexpr std::size_t kAppendsPerFile = 4;

double micros_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

}  // namespace

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  cdf_.reserve(std::max<std::size_t>(n, 1));
  double total = 0;
  for (std::size_t r = 0; r < std::max<std::size_t>(n, 1); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against fp round-down at the tail
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfSampler::probability(std::size_t rank) const {
  if (rank >= cdf_.size()) return 0;
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

void OpStats::record(double us, bool ok) {
  latency_us.add(us);
  latency_hist.add(us);
  if (!ok) ++errors;
}

void OpStats::merge(const OpStats& other) {
  latency_us.merge(other.latency_us);
  latency_hist.merge(other.latency_hist);
  errors += other.errors;
}

std::string OpStats::to_json() const {
  std::ostringstream out;
  out << "{\"count\": " << latency_us.count()
      << ", \"errors\": " << errors
      << ", \"mean_us\": " << latency_us.mean()
      << ", \"min_us\": " << latency_us.min()
      << ", \"max_us\": " << latency_us.max()
      << ", \"p50_us\": " << p50_us()
      << ", \"p99_us\": " << p99_us()
      << ", \"p999_us\": " << p999_us()
      << ", \"hist_counts\": [";
  const auto& counts = latency_hist.counts();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out << ", ";
    out << counts[i];
  }
  out << "]}";
  return out.str();
}

std::string WorkloadReport::to_json() const {
  std::ostringstream out;
  out << "{\"read\": " << read.to_json()
      << ",\n \"write\": " << write.to_json()
      << ",\n \"degraded\": " << degraded.to_json()
      << ",\n \"pread\": " << pread.to_json()
      << ",\n \"append\": " << append.to_json()
      << ",\n \"wall_s\": " << wall_s
      << ", \"ops_per_s\": " << ops_per_s
      << ", \"repair_s\": " << repair_s
      << ", \"total_ops\": " << total_ops()
      << ", \"total_errors\": " << total_errors()
      << ",\n \"traffic_total_bytes\": " << traffic_total_bytes
      << ", \"traffic_intra_rack_bytes\": " << traffic_intra_rack_bytes
      << ", \"traffic_cross_rack_bytes\": " << traffic_cross_rack_bytes
      << ", \"traffic_client_bytes\": " << traffic_client_bytes << "}";
  return out.str();
}

WorkloadDriver::WorkloadDriver(MiniDfs& dfs, WorkloadOptions options)
    : dfs_(&dfs), options_(std::move(options)) {}

Status WorkloadDriver::preload() {
  if (options_.preload_files == 0 || options_.stripes_per_file == 0 ||
      options_.block_size == 0) {
    return invalid_argument_error(
        "workload needs preload_files, stripes_per_file, block_size > 0");
  }
  auto code = ec::make_code(options_.code_spec);
  if (!code.is_ok()) return code.status();
  const std::size_t file_bytes = options_.stripes_per_file *
                                 (*code)->data_blocks() * options_.block_size;
  payload_ = random_buffer(file_bytes, options_.seed ^ 0x9e3779b9u);
  for (std::size_t f = 0; f < options_.preload_files; ++f) {
    const std::string path = options_.path_prefix + "/preload/" + std::to_string(f);
    DBLREP_RETURN_IF_ERROR(dfs_->write_file(path, payload_,
                                            options_.code_spec,
                                            options_.block_size));
    preloaded_.push_back(path);
  }
  return Status::ok();
}

void WorkloadDriver::client_loop(std::size_t client_index, Rng rng,
                                 ClientStats& stats) {
  Client client(*dfs_);
  const double mix_total = options_.read_fraction + options_.write_fraction +
                           options_.degraded_fraction +
                           options_.pread_fraction + options_.append_fraction;
  // Category regions in [0, 1): read | write | degraded | pread | append.
  // With the pread/append fractions at zero the cuts reduce to the
  // original three-way split, so legacy drivers draw identical op
  // sequences per seed.
  const double read_cut = options_.read_fraction / mix_total;
  const double write_cut = read_cut + options_.write_fraction / mix_total;
  const double degraded_cut =
      write_cut + options_.degraded_fraction / mix_total;
  const double pread_cut = degraded_cut + options_.pread_fraction / mix_total;
  const double append_cut = pread_cut + options_.append_fraction / mix_total;
  const std::size_t blocks_per_file =
      payload_.size() / options_.block_size;
  // Streaming-append state: one open handle at a time per client, fed one
  // chunk per append op. The chunks partition payload_, so a sealed append
  // file is byte-identical to a written one.
  const std::size_t append_chunk =
      (payload_.size() + kAppendsPerFile - 1) / kAppendsPerFile;
  std::optional<FileWriter> writer;
  std::size_t append_files = 0;
  std::size_t append_offset = 0;
  // Zipf-skewed popularity over the preloaded files (rank 0 = hottest).
  // Constructed -- and consulted -- only when zipf_s > 0: the uniform path
  // below keeps its original next_below draws, so per-seed op sequences of
  // existing mixes and chaos replays are byte-identical.
  std::optional<ZipfSampler> zipf;
  if (options_.zipf_s > 0 && !preloaded_.empty()) {
    zipf.emplace(preloaded_.size(), options_.zipf_s);
  }

  for (std::size_t op = 0; op < options_.ops_per_client; ++op) {
    const double pick = rng.next_double();
    if (pick >= read_cut && pick < write_cut) {
      const std::string path = options_.path_prefix + "/client" +
                               std::to_string(client_index) + "/f" +
                               std::to_string(op);
      const auto start = Clock::now();
      const Status status = client.write(path, payload_, options_.code_spec,
                                         options_.block_size);
      stats.write.record(micros_since(start), status.is_ok());
      continue;
    }
    if (pick >= degraded_cut && pick < pread_cut) {
      // Byte-range read: a random window of a random preloaded file, sized
      // around a couple of blocks -- the split-granularity access pattern
      // MapReduce tasks issue.
      const auto& path =
          preloaded_[zipf.has_value()
                         ? zipf->sample(rng)
                         : static_cast<std::size_t>(
                               rng.next_below(preloaded_.size()))];
      const std::size_t offset =
          static_cast<std::size_t>(rng.next_below(payload_.size()));
      const std::size_t len = 1 + static_cast<std::size_t>(rng.next_below(
                                      2 * options_.block_size));
      const auto start = Clock::now();
      const auto result = client.pread(path, offset, len);
      stats.pread.record(micros_since(start), result.is_ok());
      continue;
    }
    // Append gets an explicit region (not the catch-all): under fp
    // rounding append_cut can sit a few ulps below 1.0, and those stray
    // picks must fall through to the legacy read/degraded catch-all so a
    // driver with the new fractions at zero draws the exact pre-handle-API
    // op sequence per seed.
    if (pick >= pread_cut && pick < append_cut) {
      const auto start = Clock::now();
      Status status;
      if (!writer.has_value()) {
        const std::string path = options_.path_prefix + "/client" +
                                 std::to_string(client_index) + "/a" +
                                 std::to_string(append_files++);
        auto created = client.create(path, options_.code_spec,
                                     options_.block_size);
        if (created.is_ok()) {
          writer.emplace(std::move(*created));
          append_offset = 0;
        } else {
          status = created.status();
        }
      }
      if (writer.has_value()) {
        const std::size_t len =
            std::min(append_chunk, payload_.size() - append_offset);
        status = writer->append(
            ByteSpan(payload_).subspan(append_offset, len));
        append_offset += len;
        if (status.is_ok() && append_offset >= payload_.size()) {
          status = writer->close();
          writer.reset();
        } else if (!status.is_ok()) {
          (void)writer->abort();
          writer.reset();
        }
      }
      stats.append.record(micros_since(start), status.is_ok());
      continue;
    }
    const bool want_degraded = pick >= write_cut;
    if (want_degraded && !degraded_blocks_.empty()) {
      const auto& [path, block] = degraded_blocks_[static_cast<std::size_t>(
          rng.next_below(degraded_blocks_.size()))];
      const auto start = Clock::now();
      const auto result = client.read_block(path, block);
      stats.degraded.record(micros_since(start), result.is_ok());
      continue;
    }
    // Plain read (also the fallback when nothing is degraded). Note the
    // block may still be served degraded while the cluster has failures --
    // categories describe intent, the DFS decides the path.
    const auto& path =
        preloaded_[zipf.has_value()
                       ? zipf->sample(rng)
                       : static_cast<std::size_t>(
                             rng.next_below(preloaded_.size()))];
    const std::size_t block =
        static_cast<std::size_t>(rng.next_below(blocks_per_file));
    const auto start = Clock::now();
    const auto result = client.read_block(path, block);
    (want_degraded ? stats.degraded : stats.read)
        .record(micros_since(start), result.is_ok());
  }
  // A handle still open at loop end seals its partial file (legal: append
  // files are published with however many chunks landed).
  if (writer.has_value()) {
    const auto start = Clock::now();
    const Status status = writer->close();
    writer.reset();
    stats.append.record(micros_since(start), status.is_ok());
  }
}

Result<WorkloadReport> WorkloadDriver::run() {
  if (preloaded_.empty()) {
    DBLREP_RETURN_IF_ERROR(preload());
  }
  auto code = ec::make_code(options_.code_spec);
  if (!code.is_ok()) return code.status();
  const std::size_t k = (*code)->data_blocks();
  const std::size_t alpha = (*code)->sub_chunks();

  // Crash-fail nodes out of the first preloaded stripe's placement group,
  // so the failures are guaranteed to hit stored data.
  if (options_.fail_nodes > 0) {
    const auto info = dfs_->stat(preloaded_.front());
    if (!info.is_ok()) return info.status();
    const auto group = dfs_->catalog().stripe(info->stripes.front()).group;
    for (std::size_t i = 0; i < options_.fail_nodes && i < group.size(); ++i) {
      DBLREP_RETURN_IF_ERROR(dfs_->fail_node(group[i]));
    }
  }

  // Index the blocks read degraded: those with a unit (unit b·α + a is
  // sub-chunk a of block b) whose replicas are all gone.
  degraded_blocks_.clear();
  const auto down = dfs_->down_nodes();
  if (!down.empty()) {
    const auto all_lost = [&](const std::vector<cluster::NodeId>& replicas) {
      return std::all_of(replicas.begin(), replicas.end(),
                         [&](cluster::NodeId n) { return down.contains(n); });
    };
    for (const auto& path : preloaded_) {
      const auto info = dfs_->stat(path);
      if (!info.is_ok()) return info.status();
      for (std::size_t si = 0; si < info->stripes.size(); ++si) {
        for (std::size_t block = 0; block < k; ++block) {
          bool degraded = false;
          for (std::size_t a = 0; a < alpha && !degraded; ++a) {
            degraded = all_lost(dfs_->catalog().replica_nodes(
                info->stripes[si], block * alpha + a));
          }
          if (degraded) degraded_blocks_.emplace_back(path, si * k + block);
        }
      }
    }
  }

  // Forked deterministic streams, one per client (forked serially so the
  // set of streams is a function of the seed alone).
  Rng root(options_.seed);
  std::vector<Rng> client_rngs;
  client_rngs.reserve(options_.clients);
  for (std::size_t c = 0; c < options_.clients; ++c) {
    client_rngs.push_back(root.fork());
  }

  WorkloadReport report;
  std::vector<ClientStats> per_client(options_.clients);
  const auto& ledger = dfs_->traffic();
  const double traffic_total0 = ledger.total_bytes();
  const double traffic_intra0 = ledger.intra_rack_bytes();
  const double traffic_cross0 = ledger.cross_rack_bytes();
  const double traffic_client0 = ledger.client_bytes();
  const auto start = Clock::now();

  std::thread repair_thread;
  if (options_.repair_concurrently) {
    repair_thread = std::thread([&] {
      const auto repair_start = Clock::now();
      report.repair_status = dfs_->repair_all();
      report.repair_s = micros_since(repair_start) / 1e6;
    });
  }
  std::vector<std::thread> clients;
  clients.reserve(options_.clients);
  for (std::size_t c = 0; c < options_.clients; ++c) {
    clients.emplace_back([this, c, &per_client, &client_rngs] {
      client_loop(c, client_rngs[c], per_client[c]);
    });
  }
  for (auto& t : clients) t.join();
  if (repair_thread.joinable()) repair_thread.join();

  report.wall_s = micros_since(start) / 1e6;
  report.traffic_total_bytes = ledger.total_bytes() - traffic_total0;
  report.traffic_intra_rack_bytes = ledger.intra_rack_bytes() - traffic_intra0;
  report.traffic_cross_rack_bytes = ledger.cross_rack_bytes() - traffic_cross0;
  report.traffic_client_bytes = ledger.client_bytes() - traffic_client0;
  for (const auto& stats : per_client) {
    report.read.merge(stats.read);
    report.write.merge(stats.write);
    report.degraded.merge(stats.degraded);
    report.pread.merge(stats.pread);
    report.append.merge(stats.append);
  }
  report.ops_per_s =
      report.wall_s > 0
          ? static_cast<double>(report.total_ops()) / report.wall_s
          : 0.0;
  return report;
}

}  // namespace dblrep::hdfs
