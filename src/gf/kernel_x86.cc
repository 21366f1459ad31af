// SSSE3, AVX2, AVX-512, and GFNI GF(2^8) kernels.
//
// The split-table trick (ISA-L / "Screaming Fast Galois Field Arithmetic"
// style): for a fixed coefficient c, c*x = lo_table[x & 0xf] ^
// hi_table[x >> 4] because multiplication is GF(2)-linear in x. Both
// 16-entry tables fit in one vector register, so pshufb/vpshufb evaluates
// 16/32/64 products per instruction against one byte load, versus one
// scalar table load per byte.
//
// GFNI drops the tables entirely: the same GF(2)-linearity means c*x is an
// 8x8 bit-matrix transform of x, and vgf2p8affineqb applies one such
// matrix to every byte of a ZMM register -- 64 products per instruction
// from a single broadcast 8-byte constant (see detail::affine_matrix for
// the operand layout).
//
// The coefficient-1-only fold path (XOR parities) additionally uses
// non-temporal stores on the AVX2/AVX-512 kernels for large slices: parity
// outputs are write-once in the encode pass, so movnt skips the
// read-for-ownership of every destination line.
//
// Compiled with function-level target attributes so the rest of the library
// needs no -march flags; runtime CPUID (plus XCR0 for ZMM state) gates
// every entry.
#include "gf/kernel.h"
#include "gf/kernel_tables.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace dblrep::gf {
namespace detail {
namespace {

// ------------------------------------------------------------------- ssse3

__attribute__((target("ssse3"))) void ssse3_mul_body(MutableByteSpan dst,
                                                     ByteSpan src, Elem coeff,
                                                     bool accumulate) {
  const std::uint8_t* tab = nibble_tables(coeff);
  const __m128i lo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tab));
  const __m128i hi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tab + 16));
  const __m128i mask = _mm_set1_epi8(0x0f);
  const std::size_t n = dst.size();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src.data() + i));
    __m128i product = _mm_xor_si128(
        _mm_shuffle_epi8(lo, _mm_and_si128(s, mask)),
        _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask)));
    if (accumulate) {
      __m128i d =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst.data() + i));
      product = _mm_xor_si128(product, d);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst.data() + i), product);
  }
  if (i < n) {
    if (accumulate) {
      addmul_scalar_tail(dst, src, coeff, i);
    } else {
      mul_scalar_tail(dst, src, coeff, i);
    }
  }
}

void ssse3_mul_slice(MutableByteSpan dst, ByteSpan src, Elem coeff) {
  check_slice_contract(dst, src);
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
  ssse3_mul_body(dst, src, coeff, /*accumulate=*/false);
}

void ssse3_addmul_slice(MutableByteSpan dst, ByteSpan src, Elem coeff) {
  check_slice_contract(dst, src);
  if (coeff == 0) return;
  if (coeff == 1) {
    xor_words(dst, src);
    return;
  }
  ssse3_mul_body(dst, src, coeff, /*accumulate=*/true);
}

void ssse3_scale_slice(MutableByteSpan dst, Elem coeff) {
  ssse3_mul_slice(dst, dst, coeff);
}

void ssse3_xor_slice(MutableByteSpan dst, ByteSpan src) {
  check_slice_contract(dst, src);
  xor_words(dst, src);
}

void ssse3_xor_fold_slice(MutableByteSpan dst,
                          std::span<const ByteSpan> sources,
                          bool /*non_temporal*/) {
  // Matches the kernel's xor_slice: the word loop saturates 128-bit loads
  // already, and the pre-AVX uarches this kernel targets gain little from
  // movntdq. The flag is a hint and is ignored here.
  check_fold_contract(dst, sources);
  xor_fold_words(dst, sources);
}

constexpr GfKernel kSsse3Kernel = {
    "ssse3", ssse3_mul_slice, ssse3_addmul_slice,
    ssse3_scale_slice, ssse3_xor_slice, ssse3_xor_fold_slice};

// -------------------------------------------------------------------- avx2

__attribute__((target("avx2"))) void avx2_mul_body(MutableByteSpan dst,
                                                   ByteSpan src, Elem coeff,
                                                   bool accumulate) {
  const std::uint8_t* tab = nibble_tables(coeff);
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tab)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tab + 16)));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  const std::size_t n = dst.size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src.data() + i));
    __m256i product = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask)),
        _mm256_shuffle_epi8(hi,
                            _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)));
    if (accumulate) {
      __m256i d = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(dst.data() + i));
      product = _mm256_xor_si256(product, d);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst.data() + i), product);
  }
  if (i < n) {
    if (accumulate) {
      addmul_scalar_tail(dst, src, coeff, i);
    } else {
      mul_scalar_tail(dst, src, coeff, i);
    }
  }
}

__attribute__((target("avx2"))) void avx2_xor_body(MutableByteSpan dst,
                                                   ByteSpan src) {
  const std::size_t n = dst.size();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst.data() + i));
    __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src.data() + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst.data() + i),
                        _mm256_xor_si256(d, s));
  }
  if (i < n) xor_words(dst, src, i);
}

__attribute__((target("avx2"))) __m256i avx2_fold_load(
    std::span<const ByteSpan> sources, std::size_t i) {
  __m256i acc = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(sources[0].data() + i));
  for (std::size_t s = 1; s < sources.size(); ++s) {
    acc = _mm256_xor_si256(
        acc, _mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(sources[s].data() + i)));
  }
  return acc;
}

__attribute__((target("avx2"))) void avx2_fold_body(
    MutableByteSpan dst, std::span<const ByteSpan> sources,
    bool non_temporal) {
  const std::size_t n = dst.size();
  std::size_t i = 0;
  if (non_temporal && n >= 64) {
    // Scalar head up to the first 32-byte destination boundary, then
    // streaming stores: the fold output is write-once in this pass, so
    // movntdq skips the RFO of every line it fully covers.
    const std::size_t misalign =
        reinterpret_cast<std::uintptr_t>(dst.data()) & 31;
    if (misalign != 0) {
      i = 32 - misalign;
      xor_fold_range(dst, sources, 0, i);
    }
    for (; i + 32 <= n; i += 32) {
      _mm256_stream_si256(reinterpret_cast<__m256i*>(dst.data() + i),
                          avx2_fold_load(sources, i));
    }
    _mm_sfence();  // order the streamed bytes before any subsequent read
  } else {
    for (; i + 32 <= n; i += 32) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst.data() + i),
                          avx2_fold_load(sources, i));
    }
  }
  if (i < n) xor_fold_words(dst, sources, i);
}

void avx2_mul_slice(MutableByteSpan dst, ByteSpan src, Elem coeff) {
  check_slice_contract(dst, src);
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
  avx2_mul_body(dst, src, coeff, /*accumulate=*/false);
}

void avx2_addmul_slice(MutableByteSpan dst, ByteSpan src, Elem coeff) {
  check_slice_contract(dst, src);
  if (coeff == 0) return;
  if (coeff == 1) {
    avx2_xor_body(dst, src);
    return;
  }
  avx2_mul_body(dst, src, coeff, /*accumulate=*/true);
}

void avx2_scale_slice(MutableByteSpan dst, Elem coeff) {
  avx2_mul_slice(dst, dst, coeff);
}

void avx2_xor_slice(MutableByteSpan dst, ByteSpan src) {
  check_slice_contract(dst, src);
  avx2_xor_body(dst, src);
}

void avx2_xor_fold_slice(MutableByteSpan dst, std::span<const ByteSpan> sources,
                         bool non_temporal) {
  check_fold_contract(dst, sources);
  if (dst.empty()) return;
  avx2_fold_body(dst, sources, non_temporal);
}

constexpr GfKernel kAvx2Kernel = {
    "avx2", avx2_mul_slice, avx2_addmul_slice,
    avx2_scale_slice, avx2_xor_slice, avx2_xor_fold_slice};

// ------------------------------------------------------------------ avx512
//
// The split-table kernel widened to ZMM: 64 products per vpshufb. Tails
// are handled in-register with byte masks (avx512bw) instead of a scalar
// loop, so sub-register lengths still run the vector path.

// GCC's non-masked AVX-512 intrinsics pass _mm512_undefined_epi32() (the
// self-initialized `__Y = __Y` idiom) as the ignored merge source, which
// -Wuninitialized flags through inlining. False positive; the value is
// architecturally ignored under a full mask.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define DBLREP_AVX512_TARGET "avx512f,avx512bw,avx512vl"

__attribute__((target(DBLREP_AVX512_TARGET))) __m512i avx512_mul_once(
    __m512i s, __m512i lo, __m512i hi, __m512i mask) {
  return _mm512_xor_si512(
      _mm512_shuffle_epi8(lo, _mm512_and_si512(s, mask)),
      _mm512_shuffle_epi8(hi,
                          _mm512_and_si512(_mm512_srli_epi64(s, 4), mask)));
}

__attribute__((target(DBLREP_AVX512_TARGET))) void avx512_mul_body(
    MutableByteSpan dst, ByteSpan src, Elem coeff, bool accumulate) {
  const std::uint8_t* tab = nibble_tables(coeff);
  const __m512i lo = _mm512_broadcast_i32x4(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tab)));
  const __m512i hi = _mm512_broadcast_i32x4(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tab + 16)));
  const __m512i mask = _mm512_set1_epi8(0x0f);
  const std::size_t n = dst.size();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m512i s = _mm512_loadu_si512(src.data() + i);
    __m512i product = avx512_mul_once(s, lo, hi, mask);
    if (accumulate) {
      product = _mm512_xor_si512(product, _mm512_loadu_si512(dst.data() + i));
    }
    _mm512_storeu_si512(dst.data() + i, product);
  }
  if (i < n) {
    const __mmask64 k = (__mmask64{1} << (n - i)) - 1;
    __m512i s = _mm512_maskz_loadu_epi8(k, src.data() + i);
    __m512i product = avx512_mul_once(s, lo, hi, mask);
    if (accumulate) {
      product = _mm512_xor_si512(product,
                                 _mm512_maskz_loadu_epi8(k, dst.data() + i));
    }
    _mm512_mask_storeu_epi8(dst.data() + i, k, product);
  }
}

__attribute__((target(DBLREP_AVX512_TARGET))) void avx512_xor_body(
    MutableByteSpan dst, ByteSpan src) {
  const std::size_t n = dst.size();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    _mm512_storeu_si512(dst.data() + i,
                        _mm512_xor_si512(_mm512_loadu_si512(dst.data() + i),
                                         _mm512_loadu_si512(src.data() + i)));
  }
  if (i < n) {
    const __mmask64 k = (__mmask64{1} << (n - i)) - 1;
    _mm512_mask_storeu_epi8(
        dst.data() + i, k,
        _mm512_xor_si512(_mm512_maskz_loadu_epi8(k, dst.data() + i),
                         _mm512_maskz_loadu_epi8(k, src.data() + i)));
  }
}

__attribute__((target(DBLREP_AVX512_TARGET))) __m512i avx512_fold_load(
    std::span<const ByteSpan> sources, std::size_t i) {
  __m512i acc = _mm512_loadu_si512(sources[0].data() + i);
  for (std::size_t s = 1; s < sources.size(); ++s) {
    acc = _mm512_xor_si512(acc, _mm512_loadu_si512(sources[s].data() + i));
  }
  return acc;
}

__attribute__((target(DBLREP_AVX512_TARGET))) void avx512_fold_body(
    MutableByteSpan dst, std::span<const ByteSpan> sources,
    bool non_temporal) {
  const std::size_t n = dst.size();
  std::size_t i = 0;
  if (non_temporal && n >= 128) {
    const std::size_t misalign =
        reinterpret_cast<std::uintptr_t>(dst.data()) & 63;
    if (misalign != 0) {
      i = 64 - misalign;
      xor_fold_range(dst, sources, 0, i);
    }
    for (; i + 64 <= n; i += 64) {
      _mm512_stream_si512(reinterpret_cast<__m512i*>(dst.data() + i),
                          avx512_fold_load(sources, i));
    }
    _mm_sfence();  // order the streamed bytes before any subsequent read
  } else {
    for (; i + 64 <= n; i += 64) {
      _mm512_storeu_si512(dst.data() + i, avx512_fold_load(sources, i));
    }
  }
  if (i < n) {
    const __mmask64 k = (__mmask64{1} << (n - i)) - 1;
    __m512i acc = _mm512_maskz_loadu_epi8(k, sources[0].data() + i);
    for (std::size_t s = 1; s < sources.size(); ++s) {
      acc = _mm512_xor_si512(
          acc, _mm512_maskz_loadu_epi8(k, sources[s].data() + i));
    }
    _mm512_mask_storeu_epi8(dst.data() + i, k, acc);
  }
}

void avx512_mul_slice(MutableByteSpan dst, ByteSpan src, Elem coeff) {
  check_slice_contract(dst, src);
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
  avx512_mul_body(dst, src, coeff, /*accumulate=*/false);
}

void avx512_addmul_slice(MutableByteSpan dst, ByteSpan src, Elem coeff) {
  check_slice_contract(dst, src);
  if (coeff == 0) return;
  if (coeff == 1) {
    avx512_xor_body(dst, src);
    return;
  }
  avx512_mul_body(dst, src, coeff, /*accumulate=*/true);
}

void avx512_scale_slice(MutableByteSpan dst, Elem coeff) {
  avx512_mul_slice(dst, dst, coeff);
}

void avx512_xor_slice(MutableByteSpan dst, ByteSpan src) {
  check_slice_contract(dst, src);
  avx512_xor_body(dst, src);
}

void avx512_xor_fold_slice(MutableByteSpan dst,
                           std::span<const ByteSpan> sources,
                           bool non_temporal) {
  check_fold_contract(dst, sources);
  if (dst.empty()) return;
  avx512_fold_body(dst, sources, non_temporal);
}

constexpr GfKernel kAvx512Kernel = {
    "avx512", avx512_mul_slice, avx512_addmul_slice,
    avx512_scale_slice, avx512_xor_slice, avx512_xor_fold_slice};

// -------------------------------------------------------------------- gfni
//
// vgf2p8affineqb evaluates y = M_c * x per byte for the broadcast 8x8 bit
// matrix M_c (see detail::affine_matrix): no table loads, one instruction
// per 64 bytes, and the 0x11d field polynomial is irrelevant because the
// matrix already encodes multiplication in our field. XOR and fold paths
// are the plain AVX-512 bodies (GFNI adds nothing to coefficient-1 work).

#define DBLREP_GFNI_TARGET "gfni,avx512f,avx512bw,avx512vl"

__attribute__((target(DBLREP_GFNI_TARGET))) void gfni_mul_body(
    MutableByteSpan dst, ByteSpan src, Elem coeff, bool accumulate) {
  const __m512i matrix =
      _mm512_set1_epi64(static_cast<long long>(affine_matrix(coeff)));
  const std::size_t n = dst.size();
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m512i s = _mm512_loadu_si512(src.data() + i);
    __m512i product = _mm512_gf2p8affine_epi64_epi8(s, matrix, 0);
    if (accumulate) {
      product = _mm512_xor_si512(product, _mm512_loadu_si512(dst.data() + i));
    }
    _mm512_storeu_si512(dst.data() + i, product);
  }
  if (i < n) {
    const __mmask64 k = (__mmask64{1} << (n - i)) - 1;
    __m512i s = _mm512_maskz_loadu_epi8(k, src.data() + i);
    __m512i product = _mm512_gf2p8affine_epi64_epi8(s, matrix, 0);
    if (accumulate) {
      product = _mm512_xor_si512(product,
                                 _mm512_maskz_loadu_epi8(k, dst.data() + i));
    }
    _mm512_mask_storeu_epi8(dst.data() + i, k, product);
  }
}

void gfni_mul_slice(MutableByteSpan dst, ByteSpan src, Elem coeff) {
  check_slice_contract(dst, src);
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
  gfni_mul_body(dst, src, coeff, /*accumulate=*/false);
}

void gfni_addmul_slice(MutableByteSpan dst, ByteSpan src, Elem coeff) {
  check_slice_contract(dst, src);
  if (coeff == 0) return;
  if (coeff == 1) {
    avx512_xor_body(dst, src);
    return;
  }
  gfni_mul_body(dst, src, coeff, /*accumulate=*/true);
}

void gfni_scale_slice(MutableByteSpan dst, Elem coeff) {
  gfni_mul_slice(dst, dst, coeff);
}

constexpr GfKernel kGfniKernel = {
    "gfni", gfni_mul_slice, gfni_addmul_slice,
    gfni_scale_slice, avx512_xor_slice, avx512_xor_fold_slice};

#pragma GCC diagnostic pop

// ----------------------------------------------------------------- probing
//
// __builtin_cpu_supports covers ssse3/avx2, but AVX-512 usability also
// depends on the OS saving ZMM/opmask state (XCR0), and "gfni" as a
// feature string is not portable across the toolchain range we build with
// -- probe CPUID leaves directly.

std::uint64_t xgetbv0() {
  std::uint32_t eax, edx;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

bool os_zmm_usable() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if (!(ecx & (1u << 27))) return false;  // OSXSAVE: xgetbv is executable
  // XMM (bit 1), YMM (2), opmask (5), ZMM0-15 upper (6), ZMM16-31 (7).
  constexpr std::uint64_t kAvx512State = 0xe6;
  return (xgetbv0() & kAvx512State) == kAvx512State;
}

struct Leaf7 {
  unsigned ebx = 0, ecx = 0;
};

Leaf7 cpuid_leaf7() {
  Leaf7 out;
  unsigned eax = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &out.ebx, &out.ecx, &edx)) return {};
  return out;
}

bool cpu_has_avx512_core() {
  const Leaf7 leaf = cpuid_leaf7();
  const bool f = leaf.ebx & (1u << 16);
  const bool bw = leaf.ebx & (1u << 30);
  const bool vl = leaf.ebx & (1u << 31);
  return f && bw && vl && os_zmm_usable();
}

bool cpu_has_gfni() { return (cpuid_leaf7().ecx & (1u << 8)) != 0; }

}  // namespace

const GfKernel* ssse3_kernel() {
  return __builtin_cpu_supports("ssse3") ? &kSsse3Kernel : nullptr;
}

const GfKernel* avx2_kernel() {
  return __builtin_cpu_supports("avx2") ? &kAvx2Kernel : nullptr;
}

const GfKernel* avx512_kernel() {
  return cpu_has_avx512_core() ? &kAvx512Kernel : nullptr;
}

const GfKernel* gfni_kernel() {
  return cpu_has_avx512_core() && cpu_has_gfni() ? &kGfniKernel : nullptr;
}

}  // namespace detail
}  // namespace dblrep::gf

#else  // non-x86: only the scalar kernel is compiled in.

namespace dblrep::gf::detail {
const GfKernel* ssse3_kernel() { return nullptr; }
const GfKernel* avx2_kernel() { return nullptr; }
const GfKernel* avx512_kernel() { return nullptr; }
const GfKernel* gfni_kernel() { return nullptr; }
}  // namespace dblrep::gf::detail

#endif
