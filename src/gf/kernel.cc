#include "gf/kernel.h"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/check.h"
#include "gf/kernel_tables.h"

namespace dblrep::gf {

namespace detail {

const std::uint8_t* nibble_tables(Elem coeff) {
  // 256 coefficients x {lo[16], hi[16]} = 8 KiB, built once. Row 0 is all
  // zeros, row 1 is the identity nibbles -- both still correct if a kernel
  // skips its fast paths.
  struct SplitTables {
    std::array<std::array<std::uint8_t, 32>, 256> rows{};
    SplitTables() {
      for (int c = 0; c < 256; ++c) {
        for (int i = 0; i < 16; ++i) {
          rows[c][i] = mul(static_cast<Elem>(c), static_cast<Elem>(i));
          rows[c][16 + i] = mul(static_cast<Elem>(c), static_cast<Elem>(i << 4));
        }
      }
    }
  };
  static const SplitTables tables;
  return tables.rows[coeff].data();
}

std::uint64_t affine_matrix(Elem coeff) {
  // 256 coefficients x 8 bytes = 2 KiB, built once. vgf2p8affineqb
  // computes output bit b = parity(matrix byte [7-b] AND input byte), so
  // the row selecting output bit b -- whose bit j is bit b of c * 2^j,
  // because c*x = XOR over set input bits j of c * 2^j -- is stored in
  // byte 7-b of the qword.
  struct AffineTables {
    std::array<std::uint64_t, 256> rows{};
    AffineTables() {
      for (int c = 0; c < 256; ++c) {
        std::uint64_t m = 0;
        for (int b = 0; b < 8; ++b) {
          std::uint8_t row = 0;
          for (int j = 0; j < 8; ++j) {
            const Elem product =
                mul(static_cast<Elem>(c), static_cast<Elem>(1u << j));
            if (product & (1u << b)) row |= static_cast<std::uint8_t>(1u << j);
          }
          m |= static_cast<std::uint64_t>(row) << (8 * (7 - b));
        }
        rows[static_cast<std::size_t>(c)] = m;
      }
    }
  };
  static const AffineTables tables;
  return tables.rows[coeff];
}

void xor_words(MutableByteSpan dst, ByteSpan src, std::size_t from) {
  // Delegates to the canonical word-at-a-time loop in common/bytes.cc so
  // there is exactly one implementation of the coefficient-1 fast path.
  xor_into(dst.subspan(from), src.subspan(from));
}

void xor_fold_words(MutableByteSpan dst, std::span<const ByteSpan> sources,
                    std::size_t from) {
  const std::size_t n = dst.size();
  std::size_t i = from;
  // One pass: accumulate all sources into a register word, store once --
  // dst is written exactly once regardless of how many sources fold in.
  for (; i + 8 <= n; i += 8) {
    std::uint64_t acc;
    std::memcpy(&acc, sources[0].data() + i, 8);
    for (std::size_t s = 1; s < sources.size(); ++s) {
      std::uint64_t w;
      std::memcpy(&w, sources[s].data() + i, 8);
      acc ^= w;
    }
    std::memcpy(dst.data() + i, &acc, 8);
  }
  for (; i < n; ++i) {
    std::uint8_t acc = sources[0][i];
    for (std::size_t s = 1; s < sources.size(); ++s) acc ^= sources[s][i];
    dst[i] = acc;
  }
}

void xor_fold_range(MutableByteSpan dst, std::span<const ByteSpan> sources,
                    std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    std::uint8_t acc = sources[0][i];
    for (std::size_t s = 1; s < sources.size(); ++s) acc ^= sources[s][i];
    dst[i] = acc;
  }
}

void addmul_scalar_tail(MutableByteSpan dst, ByteSpan src, Elem coeff,
                        std::size_t from) {
  const std::uint8_t* row = mul_row(coeff);
  const std::size_t n = dst.size();
  for (std::size_t i = from; i < n; ++i) dst[i] ^= row[src[i]];
}

void mul_scalar_tail(MutableByteSpan dst, ByteSpan src, Elem coeff,
                     std::size_t from) {
  const std::uint8_t* row = mul_row(coeff);
  const std::size_t n = dst.size();
  for (std::size_t i = from; i < n; ++i) dst[i] = row[src[i]];
}

void check_slice_contract(MutableByteSpan dst, ByteSpan src) {
  DBLREP_CHECK_EQ(dst.size(), src.size());
  // Partial overlap silently produces garbage (the kernel reads bytes the
  // same call already rewrote); exact aliasing is element-wise safe and
  // allowed. Debug-only: two compares per call would show up in encode
  // throughput.
  DBLREP_DCHECK_MSG(
      dst.data() == src.data() || dst.data() + dst.size() <= src.data() ||
          src.data() + src.size() <= dst.data(),
      "mul/addmul slices partially overlap: dst=" << (const void*)dst.data()
                                                  << " src="
                                                  << (const void*)src.data()
                                                  << " n=" << dst.size());
}

void check_fold_contract(MutableByteSpan dst,
                         std::span<const ByteSpan> sources) {
  DBLREP_CHECK(!sources.empty());
  for (const ByteSpan& src : sources) check_slice_contract(dst, src);
}

}  // namespace detail

namespace {

/// Rows whose non-zero coefficients are all 1 fold with pure XOR (and take
/// the streaming-store path); cap the stack scratch that collects their
/// source views. Wider rows fall back to the mul/addmul sequence.
constexpr std::size_t kMaxFoldSources = 32;

/// Per-row coefficient scan, done once per (row) outside the chunk loop.
struct RowClass {
  std::size_t nnz = 0;
  bool all_ones = true;
};

RowClass classify_row(std::span<const Elem> row) {
  RowClass rc;
  for (const Elem e : row) {
    if (e == 0) continue;
    ++rc.nnz;
    if (e != 1) rc.all_ones = false;
  }
  return rc;
}

}  // namespace

void matrix_apply_batch_with(const GfKernel& kernel,
                             std::span<const Elem> coeffs,
                             std::span<const ByteSpan> sources,
                             std::span<const MutableByteSpan> outputs,
                             std::size_t groups) {
  DBLREP_CHECK_GT(groups, 0u);
  DBLREP_CHECK_EQ(sources.size() % groups, 0u);
  DBLREP_CHECK_EQ(outputs.size() % groups, 0u);
  const std::size_t rows = outputs.size() / groups;
  const std::size_t cols = sources.size() / groups;
  DBLREP_CHECK_EQ(coeffs.size(), rows * cols);
  const std::size_t n = outputs.empty()
                            ? (sources.empty() ? 0 : sources[0].size())
                            : outputs[0].size();
  for (const auto& src : sources) DBLREP_CHECK_EQ(src.size(), n);
  for (const auto& out : outputs) DBLREP_CHECK_EQ(out.size(), n);
  if (n == 0 || rows == 0) return;

  // Streaming stores pay off only when the output would not have stayed
  // cache-resident anyway; resolved once per call on the full slice length.
  const bool nt = n >= kNonTemporalMinBytes;

  std::array<RowClass, 64> row_class_storage;
  std::vector<RowClass> row_class_spill;
  std::span<RowClass> row_class;
  if (rows <= row_class_storage.size()) {
    row_class = std::span<RowClass>(row_class_storage.data(), rows);
  } else {
    row_class_spill.resize(rows);
    row_class = row_class_spill;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    row_class[r] = classify_row(coeffs.subspan(r * cols, cols));
  }

  // Chunk the slice dimension so each output chunk stays cache-resident
  // while all sources stream through it once; iterating rows before groups
  // keeps one coefficient row's tables hot across every group (stripe) of
  // the batch.
  constexpr std::size_t kChunk = 32 * 1024;
  for (std::size_t off = 0; off < n; off += kChunk) {
    const std::size_t len = std::min(kChunk, n - off);
    for (std::size_t r = 0; r < rows; ++r) {
      const RowClass rc = row_class[r];
      for (std::size_t g = 0; g < groups; ++g) {
        MutableByteSpan out = outputs[g * rows + r].subspan(off, len);
        if (rc.nnz == 0) {
          std::memset(out.data(), 0, out.size());
          continue;
        }
        if (rc.all_ones && rc.nnz <= kMaxFoldSources) {
          std::array<ByteSpan, kMaxFoldSources> fold;
          std::size_t m = 0;
          for (std::size_t c = 0; c < cols; ++c) {
            if (coeffs[r * cols + c] != 0) {
              fold[m++] = sources[g * cols + c].subspan(off, len);
            }
          }
          kernel.xor_fold_slice(out, std::span<const ByteSpan>(fold.data(), m),
                                nt);
          continue;
        }
        bool first = true;
        for (std::size_t c = 0; c < cols; ++c) {
          const Elem e = coeffs[r * cols + c];
          if (e == 0) continue;
          ByteSpan src = sources[g * cols + c].subspan(off, len);
          if (first) {
            kernel.mul_slice(out, src, e);
            first = false;
          } else {
            kernel.addmul_slice(out, src, e);
          }
        }
      }
    }
  }

  // Modeled traffic (see SliceOpStats): zero rows write without reading,
  // fold rows may stream, mul/addmul rows pay the RFO.
  SliceOpStats& stats = slice_op_stats();
  for (std::size_t r = 0; r < rows; ++r) {
    const RowClass rc = row_class[r];
    const std::uint64_t row_bytes = static_cast<std::uint64_t>(n) * groups;
    stats.src_bytes_read += rc.nnz * row_bytes;
    stats.dst_bytes_written += row_bytes;
    const bool streamed = nt && rc.nnz > 0 && rc.all_ones &&
                          rc.nnz <= kMaxFoldSources;
    if (streamed) {
      stats.nt_bytes_written += row_bytes;
    } else {
      stats.rfo_bytes_read += row_bytes;
    }
  }
}

namespace {

// ------------------------------------------------------------------ scalar

void scalar_mul_slice(MutableByteSpan dst, ByteSpan src, Elem coeff) {
  detail::check_slice_contract(dst, src);
  if (dst.empty()) return;
  if (coeff == 0) {
    std::memset(dst.data(), 0, dst.size());
    return;
  }
  if (coeff == 1) {
    if (dst.data() != src.data()) {
      std::memcpy(dst.data(), src.data(), dst.size());
    }
    return;
  }
  detail::mul_scalar_tail(dst, src, coeff, 0);
}

void scalar_addmul_slice(MutableByteSpan dst, ByteSpan src, Elem coeff) {
  detail::check_slice_contract(dst, src);
  if (coeff == 0) return;
  if (coeff == 1) {
    detail::xor_words(dst, src);
    return;
  }
  detail::addmul_scalar_tail(dst, src, coeff, 0);
}

void scalar_scale_slice(MutableByteSpan dst, Elem coeff) {
  scalar_mul_slice(dst, dst, coeff);
}

void scalar_xor_slice(MutableByteSpan dst, ByteSpan src) {
  detail::check_slice_contract(dst, src);
  detail::xor_words(dst, src);
}

void scalar_xor_fold_slice(MutableByteSpan dst,
                           std::span<const ByteSpan> sources,
                           bool /*non_temporal*/) {
  // No streaming-store path in the portable kernel; the flag is a hint.
  detail::check_fold_contract(dst, sources);
  detail::xor_fold_words(dst, sources);
}

constexpr GfKernel kScalarKernel = {
    "scalar", scalar_mul_slice, scalar_addmul_slice,
    scalar_scale_slice, scalar_xor_slice, scalar_xor_fold_slice};

// ---------------------------------------------------------------- dispatch

std::vector<const GfKernel*> compiled_kernels() {
  std::vector<const GfKernel*> kernels = {&kScalarKernel};
  if (const GfKernel* k = detail::ssse3_kernel()) kernels.push_back(k);
  if (const GfKernel* k = detail::avx2_kernel()) kernels.push_back(k);
  if (const GfKernel* k = detail::avx512_kernel()) kernels.push_back(k);
  if (const GfKernel* k = detail::gfni_kernel()) kernels.push_back(k);
  return kernels;
}

std::atomic<const GfKernel*> g_active{nullptr};
std::once_flag g_init_once;

void init_active_kernel() {
  const auto kernels = compiled_kernels();
  const GfKernel* chosen = kernels.back();  // fastest supported
  if (const char* env = std::getenv("DBLREP_GF_KERNEL");
      env != nullptr && *env != '\0') {
    bool found = false;
    for (const GfKernel* k : kernels) {
      if (std::string_view(k->name) == env) {
        chosen = k;
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr,
                   "dblrep: DBLREP_GF_KERNEL='%s' unknown or unsupported on "
                   "this CPU; falling back\n",
                   env);
    }
  }
  g_active.store(chosen, std::memory_order_release);
}

}  // namespace

const GfKernel& active_kernel() {
  std::call_once(g_init_once, init_active_kernel);
  return *g_active.load(std::memory_order_acquire);
}

std::vector<const GfKernel*> supported_kernels() {
  active_kernel();  // the one-time selection runs before any override
  return compiled_kernels();
}

const GfKernel* find_kernel(std::string_view name) {
  for (const GfKernel* k : supported_kernels()) {
    if (name == k->name) return k;
  }
  return nullptr;
}

bool set_active_kernel(std::string_view name) {
  const GfKernel* k = find_kernel(name);
  if (k == nullptr) return false;
  g_active.store(k, std::memory_order_release);
  return true;
}

SliceOpStats& slice_op_stats() {
  thread_local SliceOpStats stats;
  return stats;
}

void reset_slice_op_stats() { slice_op_stats() = SliceOpStats{}; }

}  // namespace dblrep::gf
