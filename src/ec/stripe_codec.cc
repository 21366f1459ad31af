#include "ec/stripe_codec.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>

#include "gf/gf256.h"

namespace dblrep::ec {

namespace {

/// This thread's parity buffer, at least `size` bytes. 64-byte aligned: the
/// kernels' streaming stores then cover every parity block without head or
/// tail fixups. Uninitialised, because matrix_apply_batch overwrites every
/// byte. It grows to the largest batch the thread has encoded and is reused
/// after that.
std::uint8_t* parity_buffer(std::size_t size) {
  static constexpr std::align_val_t kAlignment{64};
  struct AlignedFree {
    void operator()(std::uint8_t* p) const {
      ::operator delete[](p, kAlignment);
    }
  };
  thread_local std::unique_ptr<std::uint8_t[], AlignedFree> buffer;
  thread_local std::size_t capacity = 0;
  if (capacity < size) {
    buffer.reset(
        static_cast<std::uint8_t*>(::operator new[](size, kAlignment)));
    capacity = size;
  }
  return buffer.get();
}

}  // namespace

std::size_t StripeCodec::stripe_count(std::size_t length,
                                      std::size_t block_size) const {
  DBLREP_CHECK_GT(block_size, 0u);
  const std::size_t per_stripe = stripe_bytes(block_size);
  return length == 0 ? 0 : (length + per_stripe - 1) / per_stripe;
}

std::size_t StripeCodec::batch_stripes(std::size_t block_size) const {
  DBLREP_CHECK_GT(block_size, 0u);
  const std::size_t per_stripe = stripe_bytes(block_size);
  return std::clamp<std::size_t>(kBatchTargetBytes / per_stripe,
                                 std::size_t{1}, kMaxBatchStripes);
}

Status StripeCodec::encode_batch(
    ByteSpan data, std::size_t block_size,
    const std::function<Status(std::size_t, std::span<const ByteSpan>)>&
        sink) const {
  DBLREP_CHECK_GT(block_size, 0u);
  DBLREP_CHECK_EQ(block_size % code_->sub_chunks(), 0u);
  const std::size_t unit_size = block_size / code_->sub_chunks();
  const std::size_t units = code_->data_units();
  const std::size_t num_parity = code_->num_symbols() - units;
  const std::size_t per_stripe = stripe_bytes(block_size);
  const std::size_t stripes = stripe_count(data.size(), block_size);
  const std::size_t max_batch = batch_stripes(block_size);

  std::vector<ByteSpan> data_views;
  std::vector<MutableByteSpan> parity_views;
  std::vector<ByteSpan> symbols;
  Buffer ragged;  // the final stripe's partial units, zero-padded
  for (std::size_t base = 0; base < stripes; base += max_batch) {
    const std::size_t batch = std::min(max_batch, stripes - base);
    data_views.clear();
    parity_views.clear();

    // Sources for every stripe in the batch, in group order: stripe s
    // occupies data_views[s*units, (s+1)*units). Full units are zero-copy
    // views into the caller's data; only the ragged tail of the final
    // stripe is staged, unit i at offset i * unit_size of `ragged`.
    for (std::size_t s = 0; s < batch; ++s) {
      const std::size_t stripe_begin = (base + s) * per_stripe;
      for (std::size_t i = 0; i < units; ++i) {
        const std::size_t begin = stripe_begin + i * unit_size;
        if (begin + unit_size <= data.size()) {
          data_views.push_back(data.subspan(begin, unit_size));
          continue;
        }
        if (ragged.empty()) ragged.resize(units * unit_size);
        const MutableByteSpan staged(ragged.data() + i * unit_size, unit_size);
        if (begin < data.size()) {
          std::memcpy(staged.data(), data.data() + begin, data.size() - begin);
        }
        data_views.push_back(staged);
      }
    }

    // One fused coefficient pass over the whole batch: the parity
    // coefficient block (and its per-coefficient kernel tables) is walked
    // once per 32 KiB chunk across all stripes instead of once per stripe.
    std::uint8_t* parity = parity_buffer(batch * num_parity * unit_size);
    for (std::size_t j = 0; j < batch * num_parity; ++j) {
      parity_views.emplace_back(parity + j * unit_size, unit_size);
    }
    gf::matrix_apply_batch(code_->parity_coeffs(), data_views, parity_views,
                           batch);

    for (std::size_t s = 0; s < batch; ++s) {
      symbols.assign(data_views.begin() + s * units,
                     data_views.begin() + (s + 1) * units);
      symbols.insert(symbols.end(), parity_views.begin() + s * num_parity,
                     parity_views.begin() + (s + 1) * num_parity);
      DBLREP_RETURN_IF_ERROR(sink(base + s, symbols));
    }
  }
  return Status::ok();
}

}  // namespace dblrep::ec
