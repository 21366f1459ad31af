// Byte-buffer helpers shared by the coding and data-plane layers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace dblrep {

/// Owning byte buffer. Blocks are dense and fixed-size, so a plain vector is
/// the right representation; views are passed as std::span.
using Buffer = std::vector<std::uint8_t>;

using ByteSpan = std::span<const std::uint8_t>;
using MutableByteSpan = std::span<std::uint8_t>;

/// Immutable, reference-counted bytes: the form a stored block travels in
/// through reads and repairs. Copying one shares the bytes (a reference
/// count, no memcpy), so a DataNode hands out the block it stores and a
/// plan executor reads it in place. Nothing writes through a SharedBlock,
/// so any number of threads may read one. It is a contiguous range and
/// converts to ByteSpan; the view is valid while some SharedBlock holds
/// the bytes.
class SharedBlock {
 public:
  SharedBlock() = default;

  /// Takes ownership of `bytes` without copying them. Implicit, so a
  /// Buffer goes wherever a block does; pass an lvalue only to copy.
  SharedBlock(Buffer bytes);  // NOLINT(google-explicit-constructor)

  SharedBlock(const SharedBlock&) = default;
  SharedBlock& operator=(const SharedBlock&) = default;
  /// Moving empties the source, so a moved-from block never views bytes it
  /// no longer holds.
  SharedBlock(SharedBlock&& other) noexcept
      : owner_(std::move(other.owner_)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  SharedBlock& operator=(SharedBlock&& other) noexcept {
    owner_ = std::move(other.owner_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  /// A block of `size` uninitialized bytes, for a writer that fills every
  /// byte through `fill` before the block is shared: one allocation and no
  /// zero fill.
  static SharedBlock uninitialized(std::size_t size, MutableByteSpan& fill);

  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint8_t* begin() const { return data_; }
  const std::uint8_t* end() const { return data_ + size_; }

  /// Byte-wise equality with any contiguous bytes (a block, a Buffer).
  friend bool operator==(const SharedBlock& a, ByteSpan b);

 private:
  std::shared_ptr<const void> owner_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// dst ^= src, element-wise. Sizes must match. The compiler vectorizes this
/// loop; it is the hot kernel for XOR parities and partial parities.
void xor_into(MutableByteSpan dst, ByteSpan src);

/// out = a ^ b into a fresh buffer.
Buffer xor_buffers(ByteSpan a, ByteSpan b);

/// Deterministic pseudo-random buffer (seeded), for tests and workloads.
Buffer random_buffer(std::size_t size, std::uint64_t seed);

/// CRC-32C (Castagnoli), the checksum HDFS uses per chunk. Every DataNode
/// read and write runs it over the whole block, so it must keep up with
/// memcpy: the implementation is chosen once by CPUID, like the GF kernels
/// (best supported wins). Chaining holds for every implementation:
/// crc32c(a‖b) == crc32c(b, crc32c(a)).
std::uint32_t crc32c(ByteSpan data, std::uint32_t seed = 0);

/// One compiled CRC-32C implementation. All return identical values:
///
///  * "table" -- portable byte-at-a-time table loop. Always available.
///  * "sse42" -- three interleaved SSE4.2 `crc32` streams (x86-64), merged
///    by a precomputed shift; one stream below a few hundred bytes.
struct Crc32cImpl {
  const char* name;
  std::uint32_t (*run)(ByteSpan data, std::uint32_t seed);
};

/// Implementations compiled in and supported by this CPU, slowest first;
/// crc32c() runs the last one.
std::vector<const Crc32cImpl*> supported_crc32c_impls();

/// Lowercase hex of the first `max_bytes` bytes (debugging aid).
std::string hex_preview(ByteSpan data, std::size_t max_bytes = 16);

/// "1.5 GiB"-style rendering of byte counts for report tables.
std::string format_bytes(double bytes);

}  // namespace dblrep
