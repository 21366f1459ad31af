#include "common/bytes.h"

#include <algorithm>
#include <array>
#include <cstdio>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "common/check.h"

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
// Both implementations run the raw CRC register (no pre/post inversion)
// and wrap it as ~run(~seed): that is what makes chained seeds work.

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

constexpr Crc32cImpl kTableCrc = {"table", crc32c_table};

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

/// Feeding n zero bytes multiplies a raw CRC register by x^(8n) mod P, and
/// the register is linear in its input, so the register after a‖b is
/// shift_|b|(register after a) ^ (register after b from 0) -- the
/// arithmetic of zlib's crc32_combine. The product is linear in the
/// register too, so it is tabled one register byte at a time.
class ZeroShift {
 public:
  explicit ZeroShift(std::size_t n) {
    std::uint32_t op = 1u << 31;     // x^0
    std::uint32_t square = 1u << 23;  // x^8, squared per bit of n
    for (; n != 0; n >>= 1) {
      if (n & 1) op = multmodp(square, op);
      square = multmodp(square, square);
    }
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

constexpr Crc32cImpl kSse42Crc = {"sse42", crc32c_sse42};

#endif  // __x86_64__

}  // namespace

std::vector<const Crc32cImpl*> supported_crc32c_impls() {
  std::vector<const Crc32cImpl*> impls = {&kTableCrc};
#if defined(__x86_64__)
  __builtin_cpu_init();  // may run before static constructors
  if (__builtin_cpu_supports("sse4.2")) impls.push_back(&kSse42Crc);
#endif
  return impls;
}

std::uint32_t crc32c(ByteSpan data, std::uint32_t seed) {
  static const auto run = supported_crc32c_impls().back()->run;
  return run(data, seed);
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
