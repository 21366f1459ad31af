#include "ec/stripe_codec.h"

#include <algorithm>
#include <cstring>

#include "gf/gf256.h"

namespace dblrep::ec {

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
        sink) {
  DBLREP_CHECK_GT(block_size, 0u);
  DBLREP_CHECK_EQ(block_size % code_->sub_chunks(), 0u);
  const std::size_t unit_size = block_size / code_->sub_chunks();
  const std::size_t units = code_->data_units();
  const std::size_t num_parity = code_->num_symbols() - units;
  const std::size_t per_stripe = stripe_bytes(block_size);
  const std::size_t stripes = stripe_count(data.size(), block_size);
  const std::size_t max_batch = batch_stripes(block_size);

  for (std::size_t base = 0; base < stripes; base += max_batch) {
    const std::size_t batch = std::min(max_batch, stripes - base);
    arena_.reset();
    data_views_.clear();
    parity_views_.clear();

    // Sources for every stripe in the batch, in group order: stripe s
    // occupies data_views_[s*units, (s+1)*units). Full units are zero-copy
    // views into the caller's data; only the ragged tail of the final
    // stripe is staged through the arena (zero-filled on alloc).
    for (std::size_t s = 0; s < batch; ++s) {
      const std::size_t stripe_begin = (base + s) * per_stripe;
      for (std::size_t i = 0; i < units; ++i) {
        const std::size_t begin = stripe_begin + i * unit_size;
        if (begin + unit_size <= data.size()) {
          data_views_.push_back(data.subspan(begin, unit_size));
          continue;
        }
        MutableByteSpan staged = arena_.alloc(unit_size);
        if (begin < data.size()) {
          std::memcpy(staged.data(), data.data() + begin,
                      data.size() - begin);
        }
        data_views_.push_back(staged);
      }
    }

    // One fused coefficient pass over the whole batch: the parity
    // coefficient block (and its per-coefficient kernel tables) is walked
    // once per 32 KiB chunk across all stripes instead of once per stripe.
    // Uninitialized on purpose: matrix_apply_batch fully overwrites rows.
    MutableByteSpan parity_block =
        arena_.alloc_uninit(batch * num_parity * unit_size);
    for (std::size_t j = 0; j < batch * num_parity; ++j) {
      parity_views_.push_back(
          parity_block.subspan(j * unit_size, unit_size));
    }
    gf::matrix_apply_batch(code_->parity_coeffs(), data_views_, parity_views_,
                           batch);

    for (std::size_t s = 0; s < batch; ++s) {
      symbol_views_.assign(data_views_.begin() + s * units,
                           data_views_.begin() + (s + 1) * units);
      symbol_views_.insert(
          symbol_views_.end(), parity_views_.begin() + s * num_parity,
          parity_views_.begin() + (s + 1) * num_parity);
      DBLREP_RETURN_IF_ERROR(sink(base + s, symbol_views_));
    }
  }
  return Status::ok();
}

}  // namespace dblrep::ec
