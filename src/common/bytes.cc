#include "common/bytes.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/check.h"
#include "common/cpu.h"

namespace dblrep {

SharedBlock::SharedBlock(Buffer bytes) {
  auto owned = std::make_shared<const Buffer>(std::move(bytes));
  data_ = owned->data();
  size_ = owned->size();
  owner_ = std::move(owned);
}

SharedBlock SharedBlock::uninitialized(std::size_t size,
                                       MutableByteSpan& fill) {
  auto owned = std::make_shared_for_overwrite<std::uint8_t[]>(size);
  fill = MutableByteSpan(owned.get(), size);
  SharedBlock block;
  block.data_ = owned.get();
  block.size_ = size;
  block.owner_ = std::move(owned);
  return block;
}

bool operator==(const SharedBlock& a, ByteSpan b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

void xor_into(MutableByteSpan dst, ByteSpan src) {
  DBLREP_CHECK_EQ(dst.size(), src.size());
  // Word-at-a-time main loop; tails byte-wise. memcpy keeps it well-defined
  // under strict aliasing.
  std::size_t i = 0;
  const std::size_t n = dst.size();
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t a, b;
    __builtin_memcpy(&a, dst.data() + i, sizeof(a));
    __builtin_memcpy(&b, src.data() + i, sizeof(b));
    a ^= b;
    __builtin_memcpy(dst.data() + i, &a, sizeof(a));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

Buffer xor_buffers(ByteSpan a, ByteSpan b) {
  DBLREP_CHECK_EQ(a.size(), b.size());
  Buffer out(a.begin(), a.end());
  xor_into(out, b);
  return out;
}

Buffer random_buffer(std::size_t size, std::uint64_t seed) {
  // SplitMix64 stream; stable across platforms so tests can hard-code hashes.
  Buffer out(size);
  std::uint64_t state = seed;
  std::size_t i = 0;
  while (i < size) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    for (int b = 0; b < 8 && i < size; ++b, ++i) {
      out[i] = static_cast<std::uint8_t>(z >> (8 * b));
    }
  }
  return out;
}

// ------------------------------------------------------------------ crc32c
//
// Every implementation runs the raw CRC register (no pre/post inversion)
// and wraps it as ~run(~seed): that is what makes chained seeds work.

namespace {

constexpr std::uint32_t kCrc32cPoly = 0x82f63b78u;  // reflected Castagnoli

std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

std::uint32_t crc32c_table(ByteSpan data, std::uint32_t seed) {
  static const auto table = make_crc32c_table();
  std::uint32_t crc = ~seed;
  for (std::uint8_t byte : data) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xffu];
  }
  return ~crc;
}

/// The copy of an implementation that does not fuse one: memcpy, then
/// `kRun` over the source.
template <std::uint32_t (*kRun)(ByteSpan, std::uint32_t)>
std::uint32_t copy_then_run(MutableByteSpan dst, ByteSpan src,
                            std::uint32_t seed) {
  if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
  return kRun(src, seed);
}

constexpr Crc32cImpl kTableCrc = {"table", crc32c_table,
                                  copy_then_run<crc32c_table>};

#if defined(__x86_64__)

/// a * b mod P in the reflected bit order of a CRC register (x^0 is bit
/// 31), as in zlib's multmodp.
std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kCrc32cPoly : b >> 1;
  }
  return product;
}

/// x^n mod P, in the same reflected order.
std::uint32_t x_pow_mod_p(std::uint64_t n) {
  std::uint32_t op = 1u << 31;      // x^0
  std::uint32_t square = 1u << 30;  // x^1, squared per bit of n
  for (; n != 0; n >>= 1) {
    if (n & 1) op = multmodp(square, op);
    square = multmodp(square, square);
  }
  return op;
}

/// Feeding n zero bytes multiplies a raw CRC register by x^(8n) mod P, and
/// the register is linear in its input, so the register after a‖b is
/// shift_|b|(register after a) ^ (register after b from 0) -- the
/// arithmetic of zlib's crc32_combine. The product is linear in the
/// register too, so it is tabled one register byte at a time.
class ZeroShift {
 public:
  explicit ZeroShift(std::size_t n) {
    const std::uint32_t op = x_pow_mod_p(8 * std::uint64_t{n});
    for (std::uint32_t k = 0; k < 4; ++k) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        table_[k][b] = multmodp(op, b << (8 * k));
      }
    }
  }

  std::uint32_t operator()(std::uint32_t crc) const {
    return table_[0][crc & 0xffu] ^ table_[1][(crc >> 8) & 0xffu] ^
           table_[2][(crc >> 16) & 0xffu] ^ table_[3][crc >> 24];
  }

 private:
  std::array<std::array<std::uint32_t, 256>, 4> table_{};
};

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t word;
  __builtin_memcpy(&word, p, sizeof(word));
  return word;
}

/// crc32q can start every cycle but has a three-cycle latency, so one stream
/// runs at a third of the port's rate. Each 3 * kStream block runs three
/// independent streams over its thirds, then shifts and merges them.
template <std::size_t kStream>
__attribute__((target("sse4.2"))) std::uint32_t crc32c_three_streams(
    const std::uint8_t*& next, std::size_t& len, std::uint32_t crc) {
  static const ZeroShift shift(kStream);
  for (; len >= 3 * kStream; len -= 3 * kStream, next += 3 * kStream) {
    std::uint64_t a = crc, b = 0, c = 0;
    for (std::size_t i = 0; i < kStream; i += 8) {
      a = _mm_crc32_u64(a, load_u64(next + i));
      b = _mm_crc32_u64(b, load_u64(next + kStream + i));
      c = _mm_crc32_u64(c, load_u64(next + 2 * kStream + i));
    }
    crc = shift(static_cast<std::uint32_t>(a)) ^ static_cast<std::uint32_t>(b);
    crc = shift(crc) ^ static_cast<std::uint32_t>(c);
  }
  return crc;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    ByteSpan data, std::uint32_t seed) {
  const std::uint8_t* next = data.data();
  std::size_t len = data.size();
  // Long blocks amortise the merge; short ones keep a few hundred bytes
  // and up on three streams. Anything shorter runs one stream.
  std::uint32_t crc = crc32c_three_streams<8192>(next, len, ~seed);
  crc = crc32c_three_streams<256>(next, len, crc);
  std::uint64_t wide = crc;
  for (; len >= 8; len -= 8, next += 8) {
    wide = _mm_crc32_u64(wide, load_u64(next));
  }
  crc = static_cast<std::uint32_t>(wide);
  for (; len > 0; --len, ++next) crc = _mm_crc32_u8(crc, *next);
  return ~crc;
}

constexpr Crc32cImpl kSse42Crc = {"sse42", crc32c_sse42,
                                  copy_then_run<crc32c_sse42>};

// Folding (Intel, "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ"): only the message mod P matters, so a 128-bit lane followed
// by d more bits may be replaced by lane * x^d mod P, added into the lane
// d bits on. A lane is two quadwords, the first holding the higher
// degrees: lane * x^d = first * x^(d+64) + second * x^d. With a constant
// reflected and shifted left by 1 (bit 32 - e holds x^e), a carry-less
// product of a quadword and the constant reads, as a lane, 32 degrees
// above the true product, so the first quadword multiplies by x^(d+32)
// mod P and the second by x^(d-32) mod P.
struct FoldConstants {
  std::uint64_t first = 0;
  std::uint64_t second = 0;
};

FoldConstants fold_by(std::uint64_t bits) {
  return {std::uint64_t{x_pow_mod_p(bits + 32)} << 1,
          std::uint64_t{x_pow_mod_p(bits - 32)} << 1};
}

// GCC's non-masked AVX-512 intrinsics pass an undefined merge source that
// -Wuninitialized flags through inlining; it is ignored under a full mask.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define DBLREP_VPCLMUL_TARGET "avx512f,avx512bw,avx512vl,vpclmulqdq,sse4.2"

__attribute__((target(DBLREP_VPCLMUL_TARGET))) __m512i broadcast(
    FoldConstants k) {
  return _mm512_broadcast_i32x4(_mm_set_epi64x(
      static_cast<long long>(k.second), static_cast<long long>(k.first)));
}

/// acc folded d bits on (k = fold_by(d) in every lane), plus `next`.
__attribute__((target(DBLREP_VPCLMUL_TARGET))) __m512i fold(__m512i acc,
                                                            __m512i k,
                                                            __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(acc, k, 0x00),
                                   _mm512_clmulepi64_epi128(acc, k, 0x11),
                                   next, 0x96);  // a ^ b ^ c
}

/// The 64 bytes at next + at, also stored at out + at when copying: the
/// fold and the copy share one load.
template <bool kCopy>
__attribute__((target(DBLREP_VPCLMUL_TARGET))) __m512i load_64(
    const std::uint8_t* next, std::uint8_t* out, std::size_t at) {
  const __m512i bytes = _mm512_loadu_si512(next + at);
  if constexpr (kCopy) _mm512_storeu_si512(out + at, bytes);
  return bytes;
}

/// CRC-32C from `seed` over the `len` bytes at `next` (a multiple of 256
/// and at least 256), copying them to `out` when kCopy. Four ZMM
/// accumulators fold 256 B per step; at the end each folds onto the next,
/// the last one's lanes fold onto its top lane, and two crc32q reduce that
/// lane to the register.
template <bool kCopy>
__attribute__((target(DBLREP_VPCLMUL_TARGET))) std::uint32_t vpclmul_fold(
    const std::uint8_t* next, std::uint8_t* out, std::size_t len,
    std::uint32_t seed) {
  struct Constants {
    FoldConstants by_256_bytes = fold_by(2048);
    FoldConstants by_64_bytes = fold_by(512);
    // Per lane of the last accumulator: lanes 0-2 fold onto lane 3, whose
    // multipliers are zero, so it adds as is.
    FoldConstants lanes[4] = {fold_by(384), fold_by(256), fold_by(128), {}};
  };
  static const Constants k;
  __m512i acc[4];
  for (int i = 0; i < 4; ++i) acc[i] = load_64<kCopy>(next, out, 64 * i);
  // A register starting at r runs as one starting at 0 over the message
  // with r added into its first four bytes.
  acc[0] = _mm512_xor_si512(
      acc[0], _mm512_maskz_set1_epi32(1, static_cast<int>(~seed)));
  const __m512i by_256_bytes = broadcast(k.by_256_bytes);
  for (std::size_t at = 256; at < len; at += 256) {
    for (int i = 0; i < 4; ++i) {
      acc[i] = fold(acc[i], by_256_bytes,
                    load_64<kCopy>(next, out, at + 64 * i));
    }
  }
  const __m512i by_64_bytes = broadcast(k.by_64_bytes);
  const __m512i last = fold(
      fold(fold(acc[0], by_64_bytes, acc[1]), by_64_bytes, acc[2]),
      by_64_bytes, acc[3]);
  const __m512i folded = fold(last, _mm512_loadu_si512(k.lanes),
                              _mm512_maskz_mov_epi64(0xc0, last));
  const __m256i half = _mm256_xor_si256(_mm512_castsi512_si256(folded),
                                        _mm512_extracti64x4_epi64(folded, 1));
  const __m128i lane = _mm_xor_si128(_mm256_castsi256_si128(half),
                                     _mm256_extracti128_si256(half, 1));
  std::uint64_t crc = _mm_crc32_u64(0, static_cast<std::uint64_t>(
                                           _mm_cvtsi128_si64(lane)));
  crc = _mm_crc32_u64(
      crc, static_cast<std::uint64_t>(_mm_extract_epi64(lane, 1)));
  return ~static_cast<std::uint32_t>(crc);
}

/// `size` bytes split at `aligned`'s first 64-byte boundary: the head
/// before it and the whole 256-byte steps after it (the tail is the rest).
struct VpclmulSplit {
  std::size_t head;
  std::size_t body;
};

VpclmulSplit split_for_vpclmul(const std::uint8_t* aligned, std::size_t size) {
  const std::size_t head = -reinterpret_cast<std::uintptr_t>(aligned) % 64;
  return {head, (size - head) / 256 * 256};
}

/// vpclmul_fold over 256-byte steps whose loads start at a 64-byte boundary
/// (loads that split cache lines run about a third slower); the head before
/// them, the tail after them and inputs under 512 B run on sse42.
__attribute__((target(DBLREP_VPCLMUL_TARGET))) std::uint32_t crc32c_vpclmul(
    ByteSpan data, std::uint32_t seed) {
  if (data.size() < 512) return crc32c_sse42(data, seed);
  const auto [head, body] = split_for_vpclmul(data.data(), data.size());
  seed = crc32c_sse42(data.first(head), seed);
  seed = vpclmul_fold<false>(data.data() + head, nullptr, body, seed);
  return crc32c_sse42(data.subspan(head + body), seed);
}

/// crc32c_vpclmul with every 64-byte load of the fold stored to `dst` as
/// well; the head and the tail are copied, then run. Here the steps start
/// at `dst`'s 64-byte boundary instead: a store that splits cache lines
/// costs more than a load that does (on a hot 64 KiB block, about 1.0x
/// memcpy aligned on the stores against 0.9x aligned on the loads).
__attribute__((target(DBLREP_VPCLMUL_TARGET))) std::uint32_t
crc32c_copy_vpclmul(MutableByteSpan dst, ByteSpan src, std::uint32_t seed) {
  constexpr auto copy_sse42 = copy_then_run<crc32c_sse42>;
  if (src.size() < 512) return copy_sse42(dst, src, seed);
  const auto [head, body] = split_for_vpclmul(dst.data(), dst.size());
  seed = copy_sse42(dst.first(head), src.first(head), seed);
  seed = vpclmul_fold<true>(src.data() + head, dst.data() + head, body, seed);
  return copy_sse42(dst.subspan(head + body), src.subspan(head + body),
                    seed);
}

#pragma GCC diagnostic pop

constexpr Crc32cImpl kVpclmulCrc = {"vpclmul", crc32c_vpclmul,
                                    crc32c_copy_vpclmul};

#endif  // __x86_64__

}  // namespace

std::vector<const Crc32cImpl*> supported_crc32c_impls() {
  std::vector<const Crc32cImpl*> impls = {&kTableCrc};
#if defined(__x86_64__)
  __builtin_cpu_init();  // may run before static constructors
  if (__builtin_cpu_supports("sse4.2")) {
    impls.push_back(&kSse42Crc);
    if (cpu_has_avx512() && cpu_has_vpclmulqdq()) impls.push_back(&kVpclmulCrc);
  }
#endif
  return impls;
}

std::uint32_t crc32c(ByteSpan data, std::uint32_t seed) {
  static const auto run = supported_crc32c_impls().back()->run;
  return run(data, seed);
}

std::uint32_t crc32c_copy(MutableByteSpan dst, ByteSpan src,
                          std::uint32_t seed) {
  DBLREP_CHECK_EQ(dst.size(), src.size());
  static const auto copy = supported_crc32c_impls().back()->copy;
  return copy(dst, src, seed);
}

std::string hex_preview(ByteSpan data, std::size_t max_bytes) {
  static const char* digits = "0123456789abcdef";
  const std::size_t n = std::min(data.size(), max_bytes);
  std::string out;
  out.reserve(2 * n + 3);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(digits[data[i] >> 4]);
    out.push_back(digits[data[i] & 0xf]);
  }
  if (n < data.size()) out += "...";
  return out;
}

std::string format_bytes(double bytes) {
  static const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  int unit = 0;
  while (bytes >= 1024.0 && unit < 5) {
    bytes /= 1024.0;
    ++unit;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, units[unit]);
  return buf;
}

}  // namespace dblrep
