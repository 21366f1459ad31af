#include "gf/gf256.h"

#include <array>

#include "common/check.h"
#include "gf/kernel.h"
#include "gf/kernel_tables.h"

namespace dblrep::gf {

namespace {

struct Tables {
  // exp_[i] = alpha^i for i in [0, 510) so mul can skip one modular
  // reduction: exp_[log a + log b] is always in range.
  std::array<Elem, 512> exp_{};
  std::array<unsigned, 256> log_{};
  // mul_table_[a][b] = a*b; 64 KiB, used by the slice kernels so each byte
  // costs one load from a row pointer.
  std::array<std::array<Elem, 256>, 256> mul_table_{};

  Tables() {
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      exp_[i] = static_cast<Elem>(x);
      log_[x] = i;
      x <<= 1;
      if (x & 0x100u) x ^= kPrimitivePoly;
    }
    for (unsigned i = 255; i < 512; ++i) exp_[i] = exp_[i - 255];
    log_[0] = 0;  // never read; log of zero is a contract violation
    for (int a = 0; a < 256; ++a) {
      for (int b = 0; b < 256; ++b) {
        if (a == 0 || b == 0) {
          mul_table_[a][b] = 0;
        } else {
          mul_table_[a][b] = exp_[log_[a] + log_[b]];
        }
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

Elem mul(Elem a, Elem b) { return tables().mul_table_[a][b]; }

Elem div(Elem a, Elem b) {
  DBLREP_CHECK_NE(static_cast<int>(b), 0);
  if (a == 0) return 0;
  const auto& t = tables();
  return t.exp_[t.log_[a] + 255 - t.log_[b]];
}

Elem inv(Elem a) {
  DBLREP_CHECK_NE(static_cast<int>(a), 0);
  const auto& t = tables();
  return t.exp_[255 - t.log_[a]];
}

Elem pow(Elem a, unsigned power) {
  if (power == 0) return 1;
  if (a == 0) return 0;
  const auto& t = tables();
  const unsigned exponent = (t.log_[a] * (power % 255u)) % 255u;
  return t.exp_[exponent];
}

Elem exp_alpha(unsigned power) { return tables().exp_[power % 255u]; }

unsigned log_alpha(Elem a) {
  DBLREP_CHECK_NE(static_cast<int>(a), 0);
  return tables().log_[a];
}

namespace detail {

const std::uint8_t* mul_row(Elem coeff) {
  return tables().mul_table_[coeff].data();
}

}  // namespace detail

void addmul_slice(MutableByteSpan dst, ByteSpan src, Elem coeff) {
  active_kernel().addmul_slice(dst, src, coeff);
}

void mul_slice(MutableByteSpan dst, ByteSpan src, Elem coeff) {
  active_kernel().mul_slice(dst, src, coeff);
}

void scale_slice(MutableByteSpan dst, Elem coeff) {
  active_kernel().scale_slice(dst, coeff);
}

void matrix_apply(std::span<const Elem> coeffs,
                  std::span<const ByteSpan> sources,
                  std::span<const MutableByteSpan> outputs) {
  matrix_apply_batch_with(active_kernel(), coeffs, sources, outputs, 1);
}

void matrix_apply_batch(std::span<const Elem> coeffs,
                        std::span<const ByteSpan> sources,
                        std::span<const MutableByteSpan> outputs,
                        std::size_t groups) {
  matrix_apply_batch_with(active_kernel(), coeffs, sources, outputs, groups);
}

void xor_fold_slice(MutableByteSpan dst, std::span<const ByteSpan> sources,
                    bool non_temporal) {
  active_kernel().xor_fold_slice(dst, sources, non_temporal);
}

}  // namespace dblrep::gf
