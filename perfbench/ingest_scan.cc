// ingest_scan: a healthy cluster holding about 1 GiB (more than the host's
// last-level cache). Closed-loop clients issue MapReduce split reads
// (pread of a random 1-2 block window of a preloaded file, 80% of
// operations) and streaming appends (one 1 MiB FileWriter::append, 20%;
// every 4th append of a file closes it). Nothing here is degraded or
// repaired.
#include <optional>

#include "bench.h"
#include "common/rng.h"
#include "hdfs/client.h"
#include "layers.h"

namespace perfbench {
namespace {

using dblrep::Buffer;

constexpr std::uint64_t kLayoutSeed = 1;
constexpr std::size_t kStoredTarget = std::size_t{1} << 30;
constexpr std::size_t kChunk = 1024 * 1024;
constexpr std::size_t kAppendsPerFile = 4;
constexpr double kPreadShare = 0.8;

struct ClientTotals {
  Samples pread_us, append_us;
  double pread_bytes = 0, append_bytes = 0;
  double pread_busy_us = 0, append_busy_us = 0;
  double read_wire_expected = 0;  // whole blocks each pread touches
  double upload_expected = 0;     // every slot of every appended stripe
  double verify_expected = 0;     // read-back of each closed stream
  double files_closed = 0;
  double zero_copy_bytes = 0, buffered_bytes = 0;

  void merge(const ClientTotals& o) {
    pread_us.merge(o.pread_us);
    append_us.merge(o.append_us);
    pread_bytes += o.pread_bytes;
    append_bytes += o.append_bytes;
    pread_busy_us += o.pread_busy_us;
    append_busy_us += o.append_busy_us;
    read_wire_expected += o.read_wire_expected;
    upload_expected += o.upload_expected;
    verify_expected += o.verify_expected;
    files_closed += o.files_closed;
    zero_copy_bytes += o.zero_copy_bytes;
    buffered_bytes += o.buffered_bytes;
  }
};

/// One streaming file a client is appending to.
struct Stream {
  std::optional<dblrep::hdfs::FileWriter> writer;
  std::string path;
  std::string spec;
  std::uint64_t key = 0;
  std::size_t appends = 0;
};

class IngestClient {
 public:
  IngestClient(Fixture& fx, Report& report, LayerCounters& counters,
               std::uint64_t seed, std::size_t index, int segment)
      : fx_(fx), report_(report), counters_(counters), client_(*fx.dfs),
        rng_(mix64(seed * 7919 + index * 131 + static_cast<std::uint64_t>(segment))),
        index_(index), segment_(segment), chunk_(kChunk) {}

  ClientTotals run(double seconds) {
    const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
    for (std::size_t op = 1; Clock::now() < deadline; ++op) {
      if (rng_.next_double() < kPreadShare) {
        pread(op);
      } else {
        append();
      }
      if (trace::enabled() && op % 16 == 0) {
        counters_.add("exec.queue_wait_us", queue_wait_us(fx_.dfs->pool()));
        const StoredFile& f = fx_.files[rng_.next_below(fx_.files.size())];
        const std::size_t stripes = f.length / (f.code->data_blocks() * kBlockSize);
        report_.op(replay_encode(fx_, f, rng_.next_below(stripes), counters_, scratch_dn_),
                   "encode replay " + f.path);
      }
    }
    if (stream_.writer) finish_stream();
    return totals_;
  }

 private:
  void pread(std::size_t op) {
    const StoredFile& f = fx_.files[rng_.next_below(fx_.files.size())];
    const std::size_t len = kBlockSize + rng_.next_below(kBlockSize + 1);
    const std::size_t off = rng_.next_below(f.length - len + 1);
    const auto t0 = Clock::now();
    auto got = [&] {
      trace::Scope root("op.pread");
      return traced("hdfs.client.pread", [&] { return client_.pread(f.path, off, len); });
    }();
    const double us = micros_since(t0);
    report_.op(got.is_ok() && got->size() == len &&
                   payload_matches(f.key, off, *got, scratch_),
               "pread " + f.path);
    totals_.pread_us.add(us);
    totals_.pread_busy_us += us;
    totals_.pread_bytes += static_cast<double>(len);
    const std::size_t first = off / kBlockSize, last = (off + len - 1) / kBlockSize;
    totals_.read_wire_expected += static_cast<double>((last - first + 1) * kBlockSize);
    if (trace::enabled() && op % 4 == 0) {
      report_.op(replay_pread(fx_, f, first, last, counters_, scratch_), "pread replay " + f.path);
    }
  }

  void append() {
    if (!stream_.writer) {
      stream_.path = "/stream/c" + std::to_string(index_) + "s" + std::to_string(segment_) +
                     "/" + std::to_string(streams_);
      stream_.spec = kCodes[(index_ + streams_) % kCodes.size()];
      stream_.key = mix64(rng_.next_u64());
      stream_.appends = 0;
    }
    fill_payload(stream_.key, stream_.appends * kChunk, chunk_);
    const auto t0 = Clock::now();
    bool ok = true;
    {
      trace::Scope root("op.append");
      if (!stream_.writer) {
        auto w = traced("hdfs.namenode.create", [&] {
          return client_.create(stream_.path, stream_.spec, kBlockSize);
        });
        ok = w.is_ok();
        if (ok) stream_.writer.emplace(std::move(w.value()));
      }
      if (ok) {
        ok = traced("hdfs.client.append", [&] { return stream_.writer->append(chunk_); }).is_ok();
        ++stream_.appends;
      }
      if (ok && stream_.appends == kAppendsPerFile) {
        ok = traced("hdfs.client.close", [&] { return stream_.writer->close(); }).is_ok();
      }
    }
    const double us = micros_since(t0);
    report_.op(ok, "append " + stream_.path);
    totals_.append_us.add(us);
    totals_.append_busy_us += us;
    totals_.append_bytes += static_cast<double>(kChunk);
    if (!ok) {
      stream_.writer.reset();
      ++streams_;
    } else if (!stream_.writer->is_open()) {
      finish_stream();
    }
  }

  /// Closes the stream if still open, checks it reads back equal, and
  /// deletes it so stored bytes stay flat over the run.
  void finish_stream() {
    auto& w = *stream_.writer;
    bool ok = !w.is_open() || w.close().is_ok();
    const std::size_t length = w.bytes_appended();
    totals_.zero_copy_bytes += static_cast<double>(w.stats().zero_copy_bytes);
    totals_.buffered_bytes += static_cast<double>(w.stats().buffered_bytes);
    const auto& params = fx_.code(stream_.spec).params();
    const std::size_t stripe_bytes = params.data_blocks * kBlockSize;
    const std::size_t stripes = (length + stripe_bytes - 1) / stripe_bytes;
    totals_.upload_expected += static_cast<double>(stripes * params.stored_blocks * kBlockSize);
    auto back = client_.read(stream_.path);
    totals_.verify_expected +=
        static_cast<double>((length + kBlockSize - 1) / kBlockSize * kBlockSize);
    ok = ok && back.is_ok() && back->size() == length &&
         payload_matches(stream_.key, 0, *back, scratch_);
    report_.op(ok, "streamed file " + stream_.path + " reads back equal after close");
    report_.op(fx_.dfs->delete_file(stream_.path).is_ok(), "delete " + stream_.path);
    totals_.files_closed += 1;
    stream_.writer.reset();
    ++streams_;
  }

  Fixture& fx_;
  Report& report_;
  LayerCounters& counters_;
  dblrep::hdfs::Client client_;
  dblrep::Rng rng_;
  std::size_t index_;
  int segment_;
  Buffer chunk_, scratch_;
  dblrep::hdfs::DataNode scratch_dn_{0};
  Stream stream_;
  std::size_t streams_ = 0;
  ClientTotals totals_;
};

struct Segment {
  ClientTotals totals;
  Wire wire;
  double journal_records = 0;
};

Segment run_segment(Fixture& fx, Report& report, LayerCounters& counters,
                    const Options& o, std::size_t clients, double seconds,
                    int segment) {
  const Wire wire0 = Wire::of(*fx.dfs);
  const std::size_t journal0 = fx.dfs->namenode().total_journal_records();
  std::vector<ClientTotals> per_client(clients);
  run_clients(clients, [&](std::size_t c) {
    IngestClient client(fx, report, counters, o.seed, c, segment);
    per_client[c] = client.run(seconds);
  });
  Segment s;
  for (const auto& t : per_client) s.totals.merge(t);
  s.wire = Wire::of(*fx.dfs) - wire0;
  s.journal_records =
      static_cast<double>(fx.dfs->namenode().total_journal_records() - journal0);
  return s;
}

}  // namespace

void run_ingest_scan(const Options& o, Report& report) {
  const Threads threads = thread_split();
  dblrep::exec::ThreadPool pool(threads.workers);

  // Set-up, repeated so its median is steady; the last fixture serves the loop.
  Samples setup_s;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < (o.trace ? 1 : 3); ++i) {
    fx.reset();
    const auto t0 = Clock::now();
    fx = build_fixture(kLayoutSeed, o.seed, pool, kStoredTarget, 4, 8);
    setup_s.add(seconds_since(t0));
  }
  const std::size_t stored = fx->dfs->stored_bytes();
  report_header(report, o, threads, stored);
  report.check(stored == fx->expected_stored_bytes,
               "stored bytes equal each code's CodeParams overhead");
  const double overhead = static_cast<double>(stored) / static_cast<double>(fx->logical_bytes);

  LayerCounters loop;
  const double clients = static_cast<double>(threads.clients);
  auto check_wire = [&](const Segment& s) {
    const double read_wire =
        s.wire.client - s.totals.upload_expected - s.totals.verify_expected;
    report.check(read_wire == s.totals.read_wire_expected && s.wire.intra == 0 &&
                     s.wire.cross == 0,
                 "healthy read wire bytes equal the whole blocks the reads touched");
    return read_wire / s.totals.pread_bytes;
  };

  if (!o.trace) {
    const Segment s = run_segment(*fx, report, loop, o, threads.clients, o.seconds, 0);
    const ClientTotals& t = s.totals;
    const double wire_amp = check_wire(s);
    const double pread_mb_s = t.pread_bytes / (t.pread_busy_us / clients);
    const double append_mb_s = t.append_bytes / (t.append_busy_us / clients);
    const double work_mb_s =
        (t.pread_bytes + t.append_bytes) / ((t.pread_busy_us + t.append_busy_us) / clients);
    const std::string n = "n=" + std::to_string(t.pread_us.count());
    report.metric("setup_s", setup_s.quantile(0.5), "s");
    report.metric("op_p50_us", t.pread_us.quantile(0.5), "us");
    report.metric("op_p99_us", t.pread_us.tail_quantile(), "us");
    report.metric("work_mb_s", work_mb_s, "MB/s");
    report.metric("read_wire_amplification", wire_amp, "B/B");
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    report.note("setup_s", setup_s.quantile(0.5), "s", "median of 3 set-ups");
    report.note("pread_p50_us", t.pread_us.quantile(0.5), "us", n);
    report.note("pread_p99_us", t.pread_us.tail_quantile(), "us",
                n + " q=" + std::to_string(t.pread_us.tail_q()));
    report.note("pread_mb_s", pread_mb_s, "MB/s delivered");
    report.note("append_mb_s", append_mb_s, "MB/s logical",
                "n=" + std::to_string(t.append_us.count()) + " appends, " +
                    std::to_string(static_cast<long>(t.files_closed)) + " files");
    report.note("storage_overhead", overhead, "stored/logical");
    report.note("read_wire_amplification", wire_amp, "wire B/delivered B");
    report.note("peak_rss_mb", peak_rss_mib(), "MiB");
    return;
  }

  // Traced run: an untraced half, then a traced half with replays.
  const Segment plain = run_segment(*fx, report, loop, o, threads.clients, o.seconds / 2, 0);
  check_wire(plain);
  trace::set_enabled(true);
  const Segment traced_seg = run_segment(*fx, report, loop, o, threads.clients, o.seconds / 2, 1);
  check_wire(traced_seg);
  const ClientTotals& t = traced_seg.totals;
  loop.add("client.zero_copy_bytes", t.zero_copy_bytes);
  loop.add("client.buffered_bytes", t.buffered_bytes);
  loop.add("namenode.journal_records", traced_seg.journal_records);
  loop.add("namenode.files", t.files_closed);
  add_cluster_bytes(loop, traced_seg.wire,
                    static_cast<double>(t.pread_us.count() + t.append_us.count()));
  dblrep::Rng rng(mix64(o.seed ^ 0x5c4ed));
  sched_probe(*fx, rng, 20, loop);
  loop.add("mapred.job_s_3rep", reference_job_s(o.seed));

  LayerCounters probe;
  run_layer_probe(o.seed, pool, report, probe);
  emit_layer_metrics(report, loop, probe,
                     t.pread_us.quantile(0.5) / plain.totals.pread_us.quantile(0.5), o);
}

}  // namespace perfbench
