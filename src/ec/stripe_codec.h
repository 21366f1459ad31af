// StripeCodec: streaming encoder over a CodeScheme.
//
// CodeScheme::encode() allocates one vector<Buffer> per call and copies
// systematic blocks; fine for tests, wrong for the data plane. The codec's
// one entry point, encode_batch(), instead:
//
//  * serves systematic symbols as zero-copy views straight into the
//    caller's contiguous file data (only the final, zero-padded partial
//    stripe is staged, in a buffer local to the call),
//  * fuses encode across stripes: one gf::matrix_apply_batch pass computes
//    the parity symbols of up to batch_stripes() stripes at once, so the
//    generator-matrix coefficient block and its per-coefficient tables
//    stay hot in L1/L2 across the batch instead of being re-streamed per
//    stripe, and per-call setup (views, dispatch) is paid once per batch,
//  * writes each batch's parity into one buffer per thread, which grows to
//    the largest batch that thread has encoded and is reused after that,
//    so encoding an N-stripe file allocates no parity memory per stripe.
//
// MiniDfs::store_stripes is its data-plane caller: every stripe written,
// bulk or streamed, goes through encode_batch, on a codec built on the
// stack.
//
// A codec holds only its scheme (immutable after construction), so it is
// free to build and any number of threads may share one.
#pragma once

#include <functional>
#include <span>

#include "common/bytes.h"
#include "common/status.h"
#include "ec/code.h"

namespace dblrep::ec {

class StripeCodec {
 public:
  /// Cross-stripe batching targets roughly this much logical data per
  /// fused kernel call; small stripes (tests, small blocks) batch up to
  /// kMaxBatchStripes, large stripes degrade gracefully to one per call.
  static constexpr std::size_t kBatchTargetBytes = 4 * 1024 * 1024;
  static constexpr std::size_t kMaxBatchStripes = 32;

  explicit StripeCodec(const CodeScheme& code) : code_(&code) {}

  const CodeScheme& code() const { return *code_; }

  /// Logical bytes one stripe carries.
  std::size_t stripe_bytes(std::size_t block_size) const {
    return code_->data_blocks() * block_size;
  }

  /// Stripes needed to hold `length` logical bytes.
  std::size_t stripe_count(std::size_t length, std::size_t block_size) const;

  /// Stripes encode_batch fuses per kernel call for this block size (>= 1).
  std::size_t batch_stripes(std::size_t block_size) const;

  /// Encodes all stripes covering `data` (up to batch_stripes() of them
  /// fused into one gf::matrix_apply_batch pass), then hands each stripe's
  /// num_symbols symbol views, in symbol order, to
  /// `sink(stripe_index, symbols)` in stripe order. Each view is
  /// block_size / sub_chunks() bytes (a full block for alpha == 1
  /// schemes); systematic views alias `data` where possible, parity views
  /// point into this thread's parity buffer. stripe_index counts from 0
  /// within `data`; the views are valid until the sink returns (a sink
  /// must consume its stripe before returning). A sink must not call
  /// encode_batch on its own thread. Stops and propagates the first sink
  /// error. `data` may cover any number of stripes; the final one may be
  /// ragged (zero-padded). block_size must be divisible by sub_chunks().
  Status encode_batch(
      ByteSpan data, std::size_t block_size,
      const std::function<Status(std::size_t, std::span<const ByteSpan>)>&
          sink) const;

 private:
  const CodeScheme* code_;
};

}  // namespace dblrep::ec
