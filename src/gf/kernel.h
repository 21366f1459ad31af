// GfKernel: pluggable backend for the bulk GF(2^8) slice operations.
//
// Every byte that moves through encode, decode, or repair goes through one
// of these entry points. Five implementations ship:
//
//  * "scalar" -- the portable 64 KiB-table kernel (one load per byte), plus
//    a 64-bit-word XOR fast path for coefficient-1 terms. Always available.
//  * "ssse3"  -- split-table kernel: per-coefficient 16-entry low/high
//    nibble tables applied with pshufb, 16 bytes per step.
//  * "avx2"   -- the same split-table trick widened to 32 bytes per step
//    with vpshufb.
//  * "avx512" -- the split-table trick widened again to 64 bytes per step
//    with vpshufb on ZMM registers (requires AVX-512F+BW and OS ZMM state).
//  * "gfni"   -- vgf2p8affineqb: multiplication by a fixed coefficient is
//    GF(2)-linear in the input byte, so it is one 8x8 bit-matrix transform
//    per byte, 64 bytes per instruction with no table loads at all
//    (requires GFNI + AVX-512F+BW and OS ZMM state).
//
// The active kernel is chosen once at startup by runtime CPUID dispatch
// (best supported wins) and can be forced with DBLREP_GF_KERNEL=scalar|
// ssse3|avx2|avx512|gfni for testing and benchmarking.
//
// Coefficient-1-only work (XOR parities, replica folds) additionally takes
// a non-temporal-store path on the vector kernels for slices of at least
// kNonTemporalMinBytes: parity outputs are written once and never re-read
// by the encode pass, so streaming stores skip the read-for-ownership of
// every destination cache line -- for memory-bound schemes the win is
// exactly those bytes not moved. The stored bytes are identical either way.
//
// All kernels are bit-identical by contract; tests/gf_kernel_test.cc
// cross-checks them exhaustively.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "gf/gf256.h"

namespace dblrep::gf {

/// Dispatch table for the bulk ops. All functions tolerate any coefficient
/// (0 and 1 take fast paths) and any slice length, including 0 and lengths
/// that are not multiples of the vector width. dst/src must be equal-sized
/// and must not partially overlap (exact aliasing is allowed and checked
/// only in debug builds; see DBLREP_DCHECK).
struct GfKernel {
  const char* name;

  /// dst[i] = coeff * src[i].
  void (*mul_slice)(MutableByteSpan dst, ByteSpan src, Elem coeff);

  /// dst[i] ^= coeff * src[i] -- the fused multiply-accumulate every linear
  /// encoder is built from.
  void (*addmul_slice)(MutableByteSpan dst, ByteSpan src, Elem coeff);

  /// In-place dst[i] *= coeff.
  void (*scale_slice)(MutableByteSpan dst, Elem coeff);

  /// dst[i] ^= src[i] -- the coefficient-1 path.
  void (*xor_slice)(MutableByteSpan dst, ByteSpan src);

  /// dst[i] = sources[0][i] ^ sources[1][i] ^ ... (sources must be
  /// non-empty, equal-sized, none may partially overlap dst). The
  /// coefficient-1-only row kernel: one source degenerates to a copy. When
  /// `non_temporal` is set, kernels that can do so write dst with streaming
  /// stores (dst will not be re-read by this pass); kernels without a
  /// streaming path treat it as a plain hint and ignore it. Bytes produced
  /// are identical either way.
  void (*xor_fold_slice)(MutableByteSpan dst, std::span<const ByteSpan> sources,
                         bool non_temporal);
};

/// The kernel all gf256.h free functions route through. First call performs
/// CPUID dispatch (honoring DBLREP_GF_KERNEL).
const GfKernel& active_kernel();

/// The one fused matrix loop, built on `kernel`'s slice ops; gf::matrix_apply
/// and gf::matrix_apply_batch run it over active_kernel(). Applies the same
/// row-major (rows x cols) coefficient block to `groups` independent
/// source/output groups laid out back-to-back: group g reads
/// sources[g*cols, (g+1)*cols) and writes outputs[g*rows, (g+1)*rows), with
/// rows/cols inferred from outputs.size()/groups and sources.size()/groups.
/// The slice dimension is cache-blocked and rows run before groups, so one
/// coefficient row's tables stay hot across every group (stripe) of a
/// batch. Output slices must not alias source slices. Coefficient-1-only
/// rows route through kernel.xor_fold_slice, streaming when the slice is
/// at least kNonTemporalMinBytes long; modeled traffic is recorded into
/// this thread's SliceOpStats.
void matrix_apply_batch_with(const GfKernel& kernel,
                             std::span<const Elem> coeffs,
                             std::span<const ByteSpan> sources,
                             std::span<const MutableByteSpan> outputs,
                             std::size_t groups);

/// Kernels compiled in and supported by this CPU, slowest first.
std::vector<const GfKernel*> supported_kernels();

/// Lookup among supported kernels; nullptr if unknown or unsupported here.
const GfKernel* find_kernel(std::string_view name);

/// Forces the active kernel (test/bench hook). Returns false and leaves the
/// selection unchanged if the name is unknown or unsupported on this CPU.
bool set_active_kernel(std::string_view name);

// ------------------------------------------------- non-temporal threshold

/// Slices at least this long take the streaming-store path in
/// coefficient-1-only rows (when the kernel has one). Chosen above typical
/// per-core L2: smaller outputs are cache-resident and a streaming store
/// would only evict them for no saved traffic.
inline constexpr std::size_t kNonTemporalMinBytes = 256 * 1024;

// ------------------------------------------------ modeled bytes-moved stats

/// Modeled DRAM traffic of the fused matrix passes, accumulated per thread.
/// The model: every source slice is read once per row that uses it; a
/// regular store of n bytes moves 2n (the write plus the read-for-ownership
/// of each destination line); a non-temporal store moves n. Cache hits make
/// the true numbers lower, but the *difference* between the NT and regular
/// paths -- the RFO bytes -- is real and is what the encode-throughput
/// bench gates on.
struct SliceOpStats {
  std::uint64_t src_bytes_read = 0;   // source slice bytes streamed in
  std::uint64_t dst_bytes_written = 0;  // destination bytes stored
  std::uint64_t rfo_bytes_read = 0;   // read-for-ownership on regular stores
  std::uint64_t nt_bytes_written = 0;  // subset of dst bytes stored NT

  std::uint64_t total_bytes_moved() const {
    return src_bytes_read + dst_bytes_written + rfo_bytes_read;
  }
};

/// This thread's accumulator (matrix_apply/matrix_apply_batch record into
/// it). Reset explicitly before a measured region.
SliceOpStats& slice_op_stats();
void reset_slice_op_stats();

}  // namespace dblrep::gf
