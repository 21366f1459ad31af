// Microbenchmark sweep of the raw GF(2^8) slice kernels: every supported
// backend (scalar/ssse3/avx2/avx512/gfni) x every hot operation x a
// cache-tiered set of slice lengths, emitted as BENCH_gf_ops.json.
//
// It forces each kernel in turn through gf::set_active_kernel. The ops are
// the primitives every encoder/repair path decomposes into:
//
//   mul        dst = c * src            (split-table / affine multiply)
//   addmul     dst ^= c * src           (the matrix_apply inner loop)
//   xor        dst ^= src               (coefficient-1 fast path)
//   fold4      dst = s0^s1^s2^s3        (multi-source parity fold)
//   fold4_nt   fold4 with streaming stores forced on (honored by
//              avx2/avx512/gfni; a hint elsewhere)
//   apply      4x10 coefficient block, one stripe     (rs-10-4 shape)
//   apply_b8   the same block fused across 8 stripes  (batched path)
//
// MB/s counts *source* bytes processed per op (mul/addmul/xor: the one
// source; fold4: all four; apply: the 10 data blocks), so kernels and ops
// are comparable at equal input.
//
// The same lengths also run the checksum every DataNode read and write
// pays: one crc32c row per CRC implementation this CPU supports (table,
// sse42, vpclmul), one crc32c_copy row per implementation (the copy a
// range read verifies as it lands), and a memcpy row as their roof. The
// 64 KiB slice (the DataNode block size the repo benchmark uses) is gated
// against memcpy: crc32c at >= 0.2x for sse42 and >= 1.0x for vpclmul,
// and vpclmul's fused crc32c_copy at >= 0.8x. An implementation this CPU
// lacks skips its gates with a stderr line saying why; the table path is
// reported but not gated, and so are the unfused copies (memcpy, then
// crc32c). Each of these rows is the best of five rounds.
//
// --list-kernels prints the supported kernel names (one per line) and
// exits; CI's kernel matrix uses it to skip unsupported backends on the
// runner instead of silently falling back.
//
// Usage: bench_gf_ops [--min-time=SECONDS] [--json=PATH] [--list-kernels]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "gf/gf256.h"
#include "gf/kernel.h"
#include "report.h"

namespace {

using namespace dblrep;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename Fn>
double measure_mb_s(double min_time, std::size_t bytes, Fn&& fn) {
  fn();  // warmup: tables, page faults
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

struct Sample {
  std::string kernel;
  std::string op;
  std::size_t length = 0;
  double mb_s = 0;
};

}  // namespace

int main(int argc, char** argv) {
  double min_time = 0.05;
  std::string json_path = "BENCH_gf_ops.json";
  bool list_kernels = false;
  bench::Flags flags;
  flags.add("min-time", &min_time);
  flags.add("json", &json_path);
  flags.add("list-kernels", &list_kernels);
  if (!flags.parse(argc, argv)) return 2;
  if (list_kernels) {
    for (const gf::GfKernel* kernel : gf::supported_kernels()) {
      std::printf("%s\n", kernel->name);
    }
    return 0;
  }

  // L1-resident, L2-resident, and memory-bound slices. The last tier is
  // above gf::kNonTemporalMinBytes so fold4_nt actually streams.
  const std::vector<std::size_t> lengths = {4 << 10, 64 << 10, 1 << 20};
  constexpr std::size_t kFoldSources = 4;
  constexpr gf::Elem kCoeff = 0x1d;

  std::vector<Sample> samples;
  // Prints a rate and keeps it as a result row.
  const auto keep = [&](const char* kernel, const char* op,
                        std::size_t length, double mb_s) {
    std::fprintf(stderr, "  %-6s %-10s %8zu B %10.1f MB/s\n", kernel, op,
                 length, mb_s);
    samples.push_back({kernel, op, length, mb_s});
    return mb_s;
  };
  // Times fn over `bytes` of input per call and keeps the rate.
  const auto record = [&](const char* kernel, const char* op,
                          std::size_t length, std::size_t bytes,
                          auto&& fn) {
    return keep(kernel, op, length, measure_mb_s(min_time, bytes, fn));
  };
  for (const gf::GfKernel* kernel : gf::supported_kernels()) {
    DBLREP_CHECK(gf::set_active_kernel(kernel->name));
    std::fprintf(stderr, "== kernel %s ==\n", kernel->name);
    for (const std::size_t length : lengths) {
      Buffer dst(length);
      std::vector<Buffer> srcs;
      for (std::size_t i = 0; i < kFoldSources; ++i) {
        srcs.push_back(random_buffer(length, i + 1));
      }
      std::vector<ByteSpan> fold_views;
      for (const auto& src : srcs) fold_views.emplace_back(src);

      const auto touch = [&] {
        volatile std::uint8_t sink = dst.back();
        (void)sink;
      };

      record(kernel->name, "mul", length, length, [&] {
        kernel->mul_slice(dst, fold_views[0], kCoeff);
        touch();
      });
      record(kernel->name, "addmul", length, length, [&] {
        kernel->addmul_slice(dst, fold_views[0], kCoeff);
        touch();
      });
      record(kernel->name, "xor", length, length, [&] {
        kernel->xor_slice(dst, fold_views[0]);
        touch();
      });
      record(kernel->name, "fold4", length, kFoldSources * length, [&] {
        kernel->xor_fold_slice(dst, fold_views, /*non_temporal=*/false);
        touch();
      });
      record(kernel->name, "fold4_nt", length, kFoldSources * length, [&] {
        kernel->xor_fold_slice(dst, fold_views, /*non_temporal=*/true);
        touch();
      });

      // The rs-10-4 coefficient shape: 4 parity rows x 10 data columns,
      // single stripe vs fused across 8 stripes. Distinct non-trivial
      // coefficients (not 0/1) so no fast path short-circuits; the exact
      // values are irrelevant to the timing.
      constexpr std::size_t kRows = 4;
      constexpr std::size_t kCols = 10;
      constexpr std::size_t kGroups = 8;
      std::vector<gf::Elem> coeffs(kRows * kCols);
      for (std::size_t i = 0; i < coeffs.size(); ++i) {
        coeffs[i] = static_cast<gf::Elem>(2 + i);
      }
      std::vector<Buffer> data_blocks;
      std::vector<Buffer> parity_blocks;
      for (std::size_t g = 0; g < kGroups; ++g) {
        for (std::size_t i = 0; i < kCols; ++i) {
          data_blocks.push_back(random_buffer(length, 100 + g * kCols + i));
        }
        for (std::size_t r = 0; r < kRows; ++r) {
          parity_blocks.emplace_back(length);
        }
      }
      std::vector<ByteSpan> sources;
      std::vector<MutableByteSpan> outputs;
      for (auto& b : data_blocks) sources.emplace_back(b);
      for (auto& b : parity_blocks) outputs.emplace_back(b);

      record(kernel->name, "apply", length, kCols * length, [&] {
        gf::matrix_apply_batch_with(
            *kernel, coeffs, std::span<const ByteSpan>(sources.data(), kCols),
            std::span<const MutableByteSpan>(outputs.data(), kRows), 1);
        volatile std::uint8_t sink = parity_blocks[0].back();
        (void)sink;
      });
      record(kernel->name, "apply_b8", length, kGroups * kCols * length, [&] {
        gf::matrix_apply_batch_with(*kernel, coeffs, sources, outputs,
                                    kGroups);
        volatile std::uint8_t sink = parity_blocks.back().back();
        (void)sink;
      });
    }
  }

  // The DataNode checksum, alone and fused with the copy of a range read,
  // against a memcpy of the same slice. Each of these rows is the best of
  // kTrials rounds that run every op of its length in turn, so one
  // preempted measurement cannot fail a gate.
  constexpr std::size_t kGatedLength = 64 << 10;
  constexpr int kTrials = 5;
  // (op, implementation) -> MB/s at kGatedLength
  std::map<std::pair<std::string, std::string>, double> gated;
  const auto crc_impls = supported_crc32c_impls();
  std::fprintf(stderr, "== crc32c ==\n");
  for (const std::size_t length : lengths) {
    const Buffer src = random_buffer(length, 1);
    Buffer dst(length);
    volatile std::uint32_t sink = 0;
    struct Row {
      const char* impl;
      const char* op;
      std::function<void()> run;
      double mb_s;  // best round so far
    };
    std::vector<Row> rows = {{"libc", "memcpy",
                              [&] {
                                std::memcpy(dst.data(), src.data(), length);
                                sink = dst.back();
                              },
                              0}};
    for (const Crc32cImpl* impl : crc_impls) {
      rows.push_back({impl->name, "crc32c",
                      [&, impl] { sink = impl->run(src, 0); }, 0});
      rows.push_back({impl->name, "crc32c_copy",
                      [&, impl] { sink = impl->copy(dst, src, 0); }, 0});
    }
    for (int trial = 0; trial < kTrials; ++trial) {
      for (Row& row : rows) {
        row.mb_s = std::max(row.mb_s, measure_mb_s(min_time, length, row.run));
      }
    }
    for (const Row& row : rows) {
      keep(row.impl, row.op, length, row.mb_s);
      if (length == kGatedLength) gated[{row.op, row.impl}] = row.mb_s;
    }
  }
  const double memcpy_gated = gated.at({"memcpy", "libc"});

  bench::Report report("gf_ops");
  // Each crc32c gate sits within 3x of what it measured on a 4-core
  // AVX-512 Xeon (sse42 0.54-0.57x, vpclmul 1.7-1.9x memcpy). The fused
  // copy moves what memcpy moves and folds the same loads, so it is gated
  // near memcpy itself (it measured 0.93-1.05x in 1 ms rounds).
  struct CrcGate {
    const char* op;
    const char* impl;
    double min_ratio;
    const char* needs;
  };
  constexpr const char* kVpclmulNeeds = "AVX-512 VPCLMULQDQ with OS ZMM state";
  for (const CrcGate& gate :
       {CrcGate{"crc32c", "sse42", 0.2, "SSE4.2"},
        CrcGate{"crc32c", "vpclmul", 1.0, kVpclmulNeeds},
        CrcGate{"crc32c_copy", "vpclmul", 0.8, kVpclmulNeeds}}) {
    const auto it = gated.find({gate.op, gate.impl});
    if (it == gated.end()) {
      std::fprintf(stderr, "%s %s gate skipped: this CPU has no %s\n",
                   gate.impl, gate.op, gate.needs);
      continue;
    }
    const double ratio = it->second / memcpy_gated;
    report.gate(std::string(gate.impl) + " " + gate.op + " / memcpy at 64 KiB",
                gate.min_ratio, ratio, ratio >= gate.min_ratio);
  }
  auto& json = report.json();
  json.field("min_time_s", min_time);
  json.begin_array("results");
  for (const auto& s : samples) {
    json.begin_object()
        .field("kernel", s.kernel)
        .field("op", s.op)
        .field("length", s.length)
        .field("mb_per_s", s.mb_s)
        .end();
  }
  json.end();
  return report.finish(json_path);
}
