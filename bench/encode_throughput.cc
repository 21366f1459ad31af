// Encode/decode/degraded-read throughput of every scheme, swept across all
// GF kernel backends -- the "encoding duration" metric the paper lists as
// future work (Section 5).
//
// Forces each kernel in turn via gf::set_active_kernel and emits
// BENCH_encode_throughput.json with MB/s per scheme per kernel, plus the
// per-scheme speedup of each SIMD kernel over scalar.
//
// Reported as bytes/second of *data* processed (not stored bytes), so the
// schemes are directly comparable at equal logical input.
//
// Two gates make the numbers falsifiable instead of merely logged:
//
//  * Roofline: the harness measures this host's memcpy bandwidth (and the
//    streaming-store copy rate) on an LLC-busting buffer, records every
//    scheme's encode rate as a fraction of that roof, and fails unless
//    each scheme's best kernel clears a stated minimum fraction. The
//    default fraction is deliberately conservative (shared CI runners),
//    tightened via --roof-gate=F.
//  * Non-temporal routing: for coefficient-1-only schemes (parity is pure
//    XOR) at a block size of at least gf::kNonTemporalMinBytes, one
//    encode's modeled memory traffic (gf::slice_op_stats -- a regular
//    store costs a read-for-ownership, a streaming store does not) must
//    show every parity byte written through the streaming path and no
//    read-for-ownership, on every kernel that implements streaming
//    stores. The model is deterministic, so this gate cannot flake on a
//    noisy runner, yet it fails immediately if the fold path stops
//    routing large slices through streaming stores.
//
// Usage: bench_encode_throughput [--block-size=BYTES] [--min-time=SECONDS]
//                                [--json=PATH] [--roof-gate=FRACTION]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "ec/registry.h"
#include "ec/stripe_codec.h"
#include "gf/gf256.h"
#include "gf/kernel.h"
#include "report.h"

namespace {

using namespace dblrep;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Sample {
  std::string scheme;
  std::string kernel;
  double encode_mb_s = 0;
  double decode_mb_s = 0;         // worst-case: max tolerated failures down
  double degraded_read_mb_s = 0;  // on-the-fly repair of a doubly-lost block
  double speedup_vs_scalar = 0;   // encode, filled once scalar is known
  double roof_fraction = 0;       // encode_mb_s / memcpy roof
  bool xor_only = false;          // every parity coefficient is 0 or 1
  bool nt_capable = false;        // kernel implements streaming stores
  // Modeled memory traffic of one stripe encode (see gf::SliceOpStats).
  // Only for xor_only schemes on nt_capable kernels with
  // block_size >= gf::kNonTemporalMinBytes; parity_bytes is 0 otherwise.
  std::uint64_t parity_bytes = 0;
  std::uint64_t nt_bytes_written = 0;
  std::uint64_t rfo_bytes_read = 0;
};

/// Kernels whose xor_fold_slice honors the non-temporal hint (scalar and
/// ssse3 document it as ignored).
bool kernel_streams(std::string_view name) {
  return name == "avx2" || name == "avx512" || name == "gfni";
}

struct Roofline {
  double memcpy_mb_s = 0;  // std::memcpy, LLC-busting buffer
  double stream_mb_s = 0;  // single-source xor fold, NT stores (best kernel)
};

/// Runs `fn` repeatedly for at least `min_time` seconds (after one warmup
/// call) and returns MB/s given `bytes` of data processed per call.
template <typename Fn>
double measure_mb_s(double min_time, std::size_t bytes, Fn&& fn) {
  fn();  // warmup: tables, parity buffer growth, page faults
  std::size_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    fn();
    ++iters;
    elapsed = seconds_since(start);
  } while (elapsed < min_time);
  return static_cast<double>(bytes) * static_cast<double>(iters) /
         (elapsed * 1e6);
}

/// Measures the host's copy bandwidth on a buffer large enough to defeat
/// the LLC, so the encode fractions below are against a memory roof, not a
/// cache roof. The stream rate uses the best kernel's single-source xor
/// fold with streaming stores -- the rate the NT parity path is ultimately
/// bounded by.
Roofline measure_roofline(double min_time) {
  constexpr std::size_t kRoofBytes = 64 << 20;
  const Buffer src = random_buffer(kRoofBytes, 3);
  Buffer dst(kRoofBytes);
  Roofline roof;
  roof.memcpy_mb_s = measure_mb_s(min_time, kRoofBytes, [&] {
    std::memcpy(dst.data(), src.data(), kRoofBytes);
    volatile std::uint8_t sink = dst.back();
    (void)sink;
  });

  const gf::GfKernel* best = gf::supported_kernels().back();
  DBLREP_CHECK(gf::set_active_kernel(best->name));
  const std::vector<ByteSpan> one_source = {ByteSpan(src)};
  roof.stream_mb_s = measure_mb_s(min_time, kRoofBytes, [&] {
    gf::xor_fold_slice(dst, one_source, /*non_temporal=*/true);
    volatile std::uint8_t sink = dst.back();
    (void)sink;
  });
  return roof;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t block_size = 1 << 20;
  double min_time = 0.2;
  double roof_gate = -1;  // <0: resolved from the supported kernel set
  std::string json_path = "BENCH_encode_throughput.json";
  bench::Flags flags;
  flags.add("block-size", &block_size);
  flags.add("min-time", &min_time);
  flags.add("roof-gate", &roof_gate);
  flags.add("json", &json_path);
  if (!flags.parse(argc, argv)) return 2;
  if (block_size == 0) return flags.fail("--block-size must be positive");

  const std::vector<std::string> specs = {"pentagon",       "heptagon",
                                          "heptagon-local", "raidm-9",
                                          "rs-10-4",        "3-rep"};

  // Resolve the roof gate: a scalar-only host encodes an order of
  // magnitude slower relative to its copy bandwidth than a SIMD one, so
  // the default stated fraction depends on the best supported kernel.
  const bool simd_available = gf::supported_kernels().size() > 1;
  if (roof_gate < 0) roof_gate = simd_available ? 0.02 : 0.002;

  const Roofline roof = measure_roofline(min_time);
  std::fprintf(stderr,
               "roofline: memcpy %.1f MB/s  nt-stream copy %.1f MB/s  "
               "(encode gate: best kernel >= %.3f of memcpy roof)\n",
               roof.memcpy_mb_s, roof.stream_mb_s, roof_gate);

  std::vector<Sample> samples;
  std::map<std::string, double> scalar_mb_s;  // scheme -> scalar baseline

  for (const gf::GfKernel* kernel : gf::supported_kernels()) {
    DBLREP_CHECK(gf::set_active_kernel(kernel->name));
    std::fprintf(stderr, "== kernel %s ==\n", kernel->name);
    for (const auto& spec : specs) {
      const auto code = ec::make_code(spec).value();
      ec::StripeCodec codec(*code);
      const std::size_t data_bytes = code->data_blocks() * block_size;
      const Buffer data = random_buffer(data_bytes, 42);

      Sample sample;
      sample.scheme = spec;
      sample.kernel = kernel->name;
      if (code->parity_coeffs().empty()) {
        // Pure replication: the codec serves zero-copy views, so timing it
        // would measure bookkeeping, not the replica materialization the
        // write path actually pays. Measure the buffer-producing encoder.
        std::vector<Buffer> rep_blocks;
        for (std::size_t i = 0; i < code->data_blocks(); ++i) {
          rep_blocks.push_back(random_buffer(block_size, i + 1));
        }
        sample.encode_mb_s = measure_mb_s(min_time, data_bytes, [&] {
          auto symbols = code->encode_symbols(rep_blocks);
          volatile std::uint8_t sink =
              symbols.back().empty() ? std::uint8_t{0} : symbols.back().back();
          (void)sink;
        });
      } else {
        sample.encode_mb_s = measure_mb_s(min_time, data_bytes, [&] {
          (void)codec.encode_batch(
              data, block_size,
              [](std::size_t, std::span<const ByteSpan> symbols) {
                // Touch the last parity byte so the encode cannot be elided.
                volatile std::uint8_t sink = symbols.back().empty()
                                                 ? std::uint8_t{0}
                                                 : symbols.back().back();
                (void)sink;
                return Status::ok();
              });
        });
      }

      sample.roof_fraction =
          roof.memcpy_mb_s > 0 ? sample.encode_mb_s / roof.memcpy_mb_s : 0;
      sample.nt_capable = kernel_streams(kernel->name);
      {
        const auto coeffs = code->parity_coeffs();
        sample.xor_only = !coeffs.empty() &&
                          std::all_of(coeffs.begin(), coeffs.end(),
                                      [](gf::Elem c) { return c <= 1; });
      }
      if (sample.xor_only && sample.nt_capable &&
          block_size >= gf::kNonTemporalMinBytes) {
        // The modeled memory traffic of one encode: every parity row is
        // a fold over a slice at or above the threshold, so every parity
        // byte must stream and none may pay a read-for-ownership. Not a
        // timing -- the gate below wants a noise-free routing check.
        gf::reset_slice_op_stats();
        (void)codec.encode_batch(
            data, block_size, [](std::size_t, std::span<const ByteSpan>) {
              return Status::ok();
            });
        const gf::SliceOpStats& stats = gf::slice_op_stats();
        sample.parity_bytes = (code->num_symbols() - code->data_units()) *
                              (block_size / code->sub_chunks());
        sample.nt_bytes_written = stats.nt_bytes_written;
        sample.rfo_bytes_read = stats.rfo_bytes_read;
      }

      // Worst-case decode: the maximum tolerated failures down (Gaussian
      // solve for the GF codes, replica copies for replication).
      std::vector<Buffer> blocks;
      for (std::size_t i = 0; i < code->data_blocks(); ++i) {
        blocks.push_back(random_buffer(block_size, i + 1));
      }
      const auto slots = code->encode(blocks);
      {
        std::set<ec::NodeIndex> failed;
        for (int i = 0; i < code->params().fault_tolerance; ++i) {
          failed.insert(i);
        }
        ec::SlotStore store;
        for (std::size_t s = 0; s < slots.size(); ++s) {
          if (!failed.contains(code->layout().node_of_slot(s))) {
            store[s] = slots[s];
          }
        }
        sample.decode_mb_s = measure_mb_s(min_time, data_bytes, [&] {
          auto decoded = code->decode(store, block_size);
          volatile bool ok = decoded.is_ok();
          (void)ok;
        });
      }

      // Degraded read of a doubly-lost block through the plan executor.
      {
        std::set<ec::NodeIndex> failed;
        for (std::size_t slot : code->layout().slots_of_symbol(0)) {
          failed.insert(code->layout().node_of_slot(slot));
        }
        const auto plan = code->plan_degraded_read(0, failed);
        // Losing every holder of a symbol exceeds some schemes' tolerance
        // (plain replication); those report 0 and are skipped.
        if (plan.is_ok()) {
          ec::SlotStore store;
          for (std::size_t s = 0; s < slots.size(); ++s) {
            if (!failed.contains(code->layout().node_of_slot(s))) {
              store[s] = slots[s];
            }
          }
          ec::PlanExecutor executor(code->layout());
          sample.degraded_read_mb_s = measure_mb_s(min_time, block_size, [&] {
            auto delivered = executor.execute(*plan, store);
            volatile bool ok = delivered.is_ok();
            (void)ok;
          });
        }
      }
      if (std::string_view(kernel->name) == "scalar") {
        scalar_mb_s[spec] = sample.encode_mb_s;
      }
      const auto base = scalar_mb_s.find(spec);
      sample.speedup_vs_scalar =
          base == scalar_mb_s.end() || base->second == 0
              ? 0
              : sample.encode_mb_s / base->second;
      std::fprintf(stderr,
                   "  %-16s encode %10.1f MB/s (%.2fx scalar)  decode %10.1f "
                   "MB/s  degraded-read %8.1f MB/s\n",
                   spec.c_str(), sample.encode_mb_s, sample.speedup_vs_scalar,
                   sample.decode_mb_s, sample.degraded_read_mb_s);
      samples.push_back(std::move(sample));
    }
  }

  // ---- gates ----------------------------------------------------------
  // Roofline: every scheme's best kernel must clear the stated fraction of
  // this host's memcpy bandwidth.
  bench::Report report("encode_throughput");
  std::map<std::string, double> best_fraction;
  for (const auto& s : samples) {
    best_fraction[s.scheme] = std::max(best_fraction[s.scheme],
                                       s.roof_fraction);
  }
  for (const auto& [scheme, fraction] : best_fraction) {
    report.gate(scheme + " best encode fraction of memcpy roof", roof_gate,
                fraction, fraction >= roof_gate);
  }

  // Non-temporal routing: every xor-only encode on a streaming-capable
  // kernel writes all of its parity through streaming stores and pays no
  // read-for-ownership. Skipped (not failed) when the sweep produced no
  // eligible sample -- a host without a streaming kernel or a
  // sub-threshold block size cannot exercise the NT path.
  double worst_nt_fraction = -1;  // NT bytes / parity bytes; <0: no sample
  std::uint64_t worst_rfo_bytes = 0;
  for (const auto& s : samples) {
    if (s.parity_bytes == 0) continue;
    const double fraction = static_cast<double>(s.nt_bytes_written) /
                            static_cast<double>(s.parity_bytes);
    if (worst_nt_fraction < 0 || fraction < worst_nt_fraction) {
      worst_nt_fraction = fraction;
    }
    worst_rfo_bytes = std::max(worst_rfo_bytes, s.rfo_bytes_read);
  }
  if (worst_nt_fraction >= 0) {
    report.gate("worst xor-only parity fraction written NT", 1,
                worst_nt_fraction, worst_nt_fraction == 1);
    report.gate("worst xor-only modeled RFO bytes", 0,
                static_cast<double>(worst_rfo_bytes), worst_rfo_bytes == 0);
  }

  auto& json = report.json();
  json.field("block_size", block_size).field("min_time_s", min_time);
  json.begin_object("roofline")
      .field("memcpy_mb_per_s", roof.memcpy_mb_s)
      .field("stream_copy_mb_per_s", roof.stream_mb_s)
      .end();
  json.begin_array("results");
  for (const auto& s : samples) {
    json.begin_object()
        .field("scheme", s.scheme)
        .field("kernel", s.kernel)
        .field("encode_mb_per_s", s.encode_mb_s)
        .field("decode_mb_per_s", s.decode_mb_s)
        .field("degraded_read_mb_per_s", s.degraded_read_mb_s)
        .field("speedup_vs_scalar", s.speedup_vs_scalar)
        .field("roof_fraction", s.roof_fraction)
        .field("xor_only", s.xor_only);
    if (s.parity_bytes > 0) {
      json.field("parity_bytes", s.parity_bytes)
          .field("nt_bytes_written", s.nt_bytes_written)
          .field("rfo_bytes_read", s.rfo_bytes_read);
    }
    json.end();
  }
  json.end();
  return report.finish(json_path);
}
