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
// sse42) and a memcpy row as its roof. The hardware CRC is gated at
// >= 0.2x memcpy on the 64 KiB slice (the DataNode block size the repo
// benchmark uses); the table path is reported but not gated.
//
// --list-kernels prints the supported kernel names (one per line) and
// exits; CI's kernel matrix uses it to skip unsupported backends on the
// runner instead of silently falling back.
//
// Usage: bench_gf_ops [--min-time=SECONDS] [--json=PATH] [--list-kernels]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
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
  // Times fn over `bytes` of input per call, prints the rate and keeps it
  // as a result row.
  const auto record = [&](const char* kernel, const char* op,
                          std::size_t length, std::size_t bytes,
                          auto&& fn) {
    const Sample sample{kernel, op, length, measure_mb_s(min_time, bytes, fn)};
    std::fprintf(stderr, "  %-6s %-10s %8zu B %10.1f MB/s\n", kernel, op,
                 length, sample.mb_s);
    samples.push_back(sample);
    return sample.mb_s;
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

  // The DataNode checksum against a memcpy of the same slice.
  constexpr std::size_t kGatedLength = 64 << 10;
  double memcpy_gated = 0;
  double hw_crc_gated = 0;
  const auto crc_impls = supported_crc32c_impls();
  std::fprintf(stderr, "== crc32c ==\n");
  for (const std::size_t length : lengths) {
    const Buffer src = random_buffer(length, 1);
    Buffer dst(length);
    const double copy_mb_s = record("libc", "memcpy", length, length, [&] {
      std::memcpy(dst.data(), src.data(), length);
      volatile std::uint8_t sink = dst.back();
      (void)sink;
    });
    for (const Crc32cImpl* impl : crc_impls) {
      volatile std::uint32_t sink = 0;
      const double crc_mb_s = record(impl->name, "crc32c", length, length, [&] {
        sink = impl->run(src, 0);
      });
      (void)sink;
      if (length == kGatedLength && impl == crc_impls.back()) {
        memcpy_gated = copy_mb_s;
        hw_crc_gated = crc_mb_s;
      }
    }
  }

  bench::Report report("gf_ops");
  if (crc_impls.size() > 1) {
    const double ratio = hw_crc_gated / memcpy_gated;
    report.gate(std::string(crc_impls.back()->name) +
                    " crc32c / memcpy at 64 KiB",
                0.2, ratio, ratio >= 0.2);
  } else {
    std::fprintf(stderr,
                 "crc32c gate skipped: this CPU has no hardware CRC32C, "
                 "only the table path\n");
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
