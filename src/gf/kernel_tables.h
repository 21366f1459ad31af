// Internal lookup-table accessors and scalar tail helpers shared by the
// GF kernel implementations. Not part of the public gf API.
#pragma once

#include <cstddef>
#include <cstdint>

#include <span>

#include "common/bytes.h"
#include "gf/gf256.h"

namespace dblrep::gf {

struct GfKernel;

namespace detail {

/// 256-entry row of the full multiplication table: mul_row(c)[x] == c * x.
const std::uint8_t* mul_row(Elem coeff);

/// 32-byte split table for `coeff`: bytes [0,16) are products of the low
/// nibble (coeff * i), bytes [16,32) of the high nibble (coeff * (i << 4)).
/// c*x == lo[x & 0xf] ^ hi[x >> 4] since GF multiplication is linear over
/// the nibble decomposition. This is the pshufb/vpshufb operand layout.
const std::uint8_t* nibble_tables(Elem coeff);

/// 8x8 GF(2) bit matrix M_c with c*x == M_c * x, in the vgf2p8affineqb
/// operand layout: output bit b of each byte is parity(qword byte [7-b]
/// AND input byte), so row b (whose bit j is bit b of c * 2^j) lives in
/// byte 7-b of the qword. One broadcast of this qword replaces both nibble
/// tables for the GFNI kernel.
std::uint64_t affine_matrix(Elem coeff);

/// Portable 64-bit-word XOR: dst[i] ^= src[i] starting at `from`.
void xor_words(MutableByteSpan dst, ByteSpan src, std::size_t from = 0);

/// Portable single-pass fold: dst[i] = XOR of sources[s][i], word at a
/// time, starting at `from`. sources must be non-empty.
void xor_fold_words(MutableByteSpan dst, std::span<const ByteSpan> sources,
                    std::size_t from = 0);

/// Byte-wise fold over [from, to) -- the short-head helper vector kernels
/// use to reach store alignment before a streaming main loop.
void xor_fold_range(MutableByteSpan dst, std::span<const ByteSpan> sources,
                    std::size_t from, std::size_t to);

/// Scalar table loops for vector-kernel tails, starting at `from`.
void addmul_scalar_tail(MutableByteSpan dst, ByteSpan src, Elem coeff,
                        std::size_t from);
void mul_scalar_tail(MutableByteSpan dst, ByteSpan src, Elem coeff,
                     std::size_t from);

/// Size and overlap preconditions shared by every kernel entry point.
void check_slice_contract(MutableByteSpan dst, ByteSpan src);

/// Shared argument validation for xor_fold_slice (sizes + per-source
/// overlap contract).
void check_fold_contract(MutableByteSpan dst, std::span<const ByteSpan> sources);

/// x86 kernels, defined in kernel_x86.cc. Return nullptr when the CPU (or
/// the build target) does not support the instruction set.
const GfKernel* ssse3_kernel();
const GfKernel* avx2_kernel();
const GfKernel* avx512_kernel();
const GfKernel* gfni_kernel();

}  // namespace detail
}  // namespace dblrep::gf
