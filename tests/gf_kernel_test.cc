// Cross-kernel equivalence property tests: every GF kernel backend (scalar
// table, SSSE3/AVX2/AVX-512 split-table, GFNI affine, and their shared
// word-XOR coefficient-1 path) must be bit-identical for every coefficient,
// for odd and unaligned slice lengths, with and without streaming stores,
// and under the documented aliasing contracts. Kernels the host cannot run
// never appear in supported_kernels(); the RunsOrSkips tests below make
// that absence visible as a GTEST_SKIP instead of silent green.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "gf/gf256.h"
#include "gf/kernel.h"

namespace dblrep::gf {
namespace {

// Lengths chosen to straddle every kernel boundary: empty, sub-word, one
// byte short of / exactly / one byte past the 64-byte double-vector mark,
// and a large odd size that exercises main loop + tail together.
const std::vector<std::size_t> kLengths = {0, 1, 63, 64, 65, 4095};

Buffer pattern_buffer(std::size_t size, std::uint64_t seed) {
  return random_buffer(size, seed);
}

/// Ground truth from the scalar single-element API, one byte at a time.
Buffer reference_mul(const Buffer& src, Elem coeff) {
  Buffer out(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) out[i] = mul(coeff, src[i]);
  return out;
}

class KernelParamTest : public ::testing::TestWithParam<const GfKernel*> {};

TEST_P(KernelParamTest, MulSliceMatchesReferenceForEveryCoefficient) {
  const GfKernel& kernel = *GetParam();
  for (std::size_t n : kLengths) {
    const Buffer src = pattern_buffer(n, 7 + n);
    for (int c = 0; c < 256; ++c) {
      const auto coeff = static_cast<Elem>(c);
      Buffer dst(n, 0xaa);
      kernel.mul_slice(dst, src, coeff);
      EXPECT_EQ(dst, reference_mul(src, coeff))
          << kernel.name << " mul_slice coeff=" << c << " n=" << n;
    }
  }
}

TEST_P(KernelParamTest, AddmulSliceMatchesReferenceForEveryCoefficient) {
  const GfKernel& kernel = *GetParam();
  for (std::size_t n : kLengths) {
    const Buffer src = pattern_buffer(n, 11 + n);
    const Buffer base = pattern_buffer(n, 13 + n);
    for (int c = 0; c < 256; ++c) {
      const auto coeff = static_cast<Elem>(c);
      Buffer dst = base;
      kernel.addmul_slice(dst, src, coeff);
      const Buffer product = reference_mul(src, coeff);
      Buffer expected = base;
      for (std::size_t i = 0; i < n; ++i) expected[i] ^= product[i];
      EXPECT_EQ(dst, expected)
          << kernel.name << " addmul_slice coeff=" << c << " n=" << n;
    }
  }
}

TEST_P(KernelParamTest, ScaleSliceMatchesMulSlice) {
  const GfKernel& kernel = *GetParam();
  for (std::size_t n : kLengths) {
    const Buffer src = pattern_buffer(n, 17 + n);
    for (int c = 0; c < 256; ++c) {
      const auto coeff = static_cast<Elem>(c);
      Buffer dst = src;
      kernel.scale_slice(dst, coeff);
      EXPECT_EQ(dst, reference_mul(src, coeff))
          << kernel.name << " scale_slice coeff=" << c << " n=" << n;
    }
  }
}

TEST_P(KernelParamTest, XorSliceMatchesWordReference) {
  const GfKernel& kernel = *GetParam();
  for (std::size_t n : kLengths) {
    const Buffer src = pattern_buffer(n, 19 + n);
    const Buffer base = pattern_buffer(n, 23 + n);
    Buffer dst = base;
    kernel.xor_slice(dst, src);
    Buffer expected = base;
    for (std::size_t i = 0; i < n; ++i) expected[i] ^= src[i];
    EXPECT_EQ(dst, expected) << kernel.name << " xor_slice n=" << n;
  }
}

TEST_P(KernelParamTest, UnalignedSlicesMatchReference) {
  // Vector kernels use unaligned loads; prove it by offsetting both ends.
  const GfKernel& kernel = *GetParam();
  const std::size_t n = 1021;
  Buffer src_storage = pattern_buffer(n + 3, 29);
  Buffer dst_storage = pattern_buffer(n + 5, 31);
  const ByteSpan src = ByteSpan(src_storage).subspan(3, n);
  const MutableByteSpan dst = MutableByteSpan(dst_storage).subspan(1, n);
  const Buffer base(dst.begin(), dst.end());
  kernel.addmul_slice(dst, src, 0x8e);
  const Buffer product = reference_mul(Buffer(src.begin(), src.end()), 0x8e);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(dst[i], static_cast<std::uint8_t>(base[i] ^ product[i]))
        << kernel.name << " unaligned addmul at " << i;
  }
}

TEST_P(KernelParamTest, ExactAliasingIsAllowed) {
  // dst == src (the scale_slice case) is element-wise safe by contract.
  const GfKernel& kernel = *GetParam();
  const std::size_t n = 257;
  const Buffer base = pattern_buffer(n, 37);

  Buffer buf = base;
  kernel.mul_slice(buf, buf, 0x53);
  EXPECT_EQ(buf, reference_mul(base, 0x53)) << kernel.name;

  // dst ^= c * dst == (1 + c) * dst in GF(2^8).
  buf = base;
  kernel.addmul_slice(buf, buf, 0x53);
  EXPECT_EQ(buf, reference_mul(base, add(1, 0x53))) << kernel.name;
}

TEST_P(KernelParamTest, MatrixApplyMatchesRowByRowReference) {
  const GfKernel& kernel = *GetParam();
  const std::size_t k = 5;
  const std::size_t rows = 4;
  for (std::size_t n : kLengths) {
    std::vector<Buffer> sources_storage;
    std::vector<ByteSpan> sources;
    for (std::size_t i = 0; i < k; ++i) {
      sources_storage.push_back(pattern_buffer(n, 41 + i));
      sources.emplace_back(sources_storage.back());
    }
    // Coefficients cover the interesting classes: zero rows, all-ones
    // (XOR parity), and general multipliers.
    std::vector<Elem> coeffs(rows * k);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < k; ++c) {
        coeffs[r * k + c] = static_cast<Elem>(
            r == 0 ? 0 : r == 1 ? 1 : (37 * r + 11 * c + 3) % 256);
      }
    }
    std::vector<Buffer> outputs_storage(rows, Buffer(n, 0x55));
    std::vector<MutableByteSpan> outputs;
    for (auto& out : outputs_storage) outputs.emplace_back(out);
    matrix_apply_batch_with(kernel, coeffs, sources, outputs, 1);

    for (std::size_t r = 0; r < rows; ++r) {
      Buffer expected(n, 0);
      for (std::size_t c = 0; c < k; ++c) {
        const Buffer product = reference_mul(sources_storage[c], coeffs[r * k + c]);
        for (std::size_t i = 0; i < n; ++i) expected[i] ^= product[i];
      }
      EXPECT_EQ(outputs_storage[r], expected)
          << kernel.name << " matrix_apply row " << r << " n=" << n;
    }
  }
}

TEST_P(KernelParamTest, XorFoldMatchesReferenceForEverySourceCount) {
  const GfKernel& kernel = *GetParam();
  for (std::size_t n : kLengths) {
    for (std::size_t num_sources = 1; num_sources <= 5; ++num_sources) {
      std::vector<Buffer> storage;
      std::vector<ByteSpan> sources;
      Buffer expected(n, 0);
      for (std::size_t s = 0; s < num_sources; ++s) {
        storage.push_back(pattern_buffer(n, 47 + 7 * s + n));
        sources.emplace_back(storage.back());
        for (std::size_t i = 0; i < n; ++i) expected[i] ^= storage[s][i];
      }
      for (const bool nt : {false, true}) {
        Buffer dst(n, 0xcc);  // fold overwrites: stale bytes must vanish
        kernel.xor_fold_slice(dst, sources, nt);
        EXPECT_EQ(dst, expected)
            << kernel.name << " xor_fold sources=" << num_sources
            << " n=" << n << " nt=" << nt;
      }
    }
  }
}

TEST_P(KernelParamTest, XorFoldUnalignedHeadsAndRaggedTails) {
  // The streaming-store path peels a scalar head up to the vector
  // alignment and a word tail after the streamed interior; misalign dst
  // and every source differently so head, interior, and tail all carry
  // data, with and without the hint.
  const GfKernel& kernel = *GetParam();
  const std::size_t n = 3 * 1024 + 7;
  std::vector<Buffer> storage;
  std::vector<ByteSpan> sources;
  for (std::size_t s = 0; s < 3; ++s) {
    storage.push_back(pattern_buffer(n + s + 1, 53 + s));
    sources.push_back(ByteSpan(storage.back()).subspan(s + 1, n));
  }
  Buffer expected(n, 0);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t i = 0; i < n; ++i) expected[i] ^= sources[s][i];
  }
  for (const bool nt : {false, true}) {
    Buffer dst_storage(n + 5, 0x11);
    const MutableByteSpan dst = MutableByteSpan(dst_storage).subspan(5, n);
    kernel.xor_fold_slice(dst, sources, nt);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(dst[i], expected[i])
          << kernel.name << " unaligned fold at " << i << " nt=" << nt;
    }
  }
}

TEST_P(KernelParamTest, MatrixApplyBatchMatchesPerGroupApply) {
  // The fused cross-stripe path must be byte-identical to applying the
  // same coefficient block group by group.
  const GfKernel& kernel = *GetParam();
  const std::size_t k = 4;
  const std::size_t rows = 3;
  const std::size_t groups = 3;
  for (std::size_t n : kLengths) {
    std::vector<Elem> coeffs(rows * k);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < k; ++c) {
        coeffs[r * k + c] = static_cast<Elem>(
            r == 0 ? 1 : (59 * r + 17 * c + 5) % 256);
      }
    }
    std::vector<Buffer> sources_storage;
    std::vector<ByteSpan> sources;
    for (std::size_t i = 0; i < groups * k; ++i) {
      sources_storage.push_back(pattern_buffer(n, 61 + i));
      sources.emplace_back(sources_storage.back());
    }
    std::vector<Buffer> batch_storage(groups * rows, Buffer(n, 0x44));
    std::vector<MutableByteSpan> batch_outputs;
    for (auto& out : batch_storage) batch_outputs.emplace_back(out);
    matrix_apply_batch_with(kernel, coeffs, sources, batch_outputs, groups);

    for (std::size_t g = 0; g < groups; ++g) {
      std::vector<Buffer> single_storage(rows, Buffer(n, 0x99));
      std::vector<MutableByteSpan> single_outputs;
      for (auto& out : single_storage) single_outputs.emplace_back(out);
      matrix_apply_batch_with(
          kernel, coeffs,
          std::span<const ByteSpan>(sources.data() + g * k, k),
          single_outputs, 1);
      for (std::size_t r = 0; r < rows; ++r) {
        EXPECT_EQ(batch_storage[g * rows + r], single_storage[r])
            << kernel.name << " batch group " << g << " row " << r
            << " n=" << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSupportedKernels, KernelParamTest,
    ::testing::ValuesIn(supported_kernels()),
    [](const ::testing::TestParamInfo<const GfKernel*>& info) {
      return std::string(info.param->name);
    });

TEST(GfKernelDispatch, ScalarKernelIsAlwaysSupported) {
  EXPECT_NE(find_kernel("scalar"), nullptr);
  EXPECT_EQ(find_kernel("no-such-kernel"), nullptr);
}

TEST(GfKernelDispatch, SetActiveKernelRoutesFreeFunctions) {
  const GfKernel& original = active_kernel();
  for (const GfKernel* kernel : supported_kernels()) {
    ASSERT_TRUE(set_active_kernel(kernel->name));
    EXPECT_EQ(active_kernel().name, kernel->name);
    // The gf256.h free functions must follow the switch.
    const Buffer src = pattern_buffer(100, 43);
    Buffer dst(100, 0);
    mul_slice(dst, src, 0x1d);
    EXPECT_EQ(dst, reference_mul(src, 0x1d)) << kernel->name;
  }
  EXPECT_FALSE(set_active_kernel("no-such-kernel"));
  ASSERT_TRUE(set_active_kernel(original.name));
}

// One visible skip per hardware-gated kernel: the param suite only
// instantiates kernels the host supports, so without these a machine
// lacking (say) GFNI would report green with the kernel never executed.
TEST(GfKernelDispatch, Ssse3RunsOrSkips) {
  if (find_kernel("ssse3") == nullptr) {
    GTEST_SKIP() << "host lacks SSSE3; kernel excluded from the param suite";
  }
  const GfKernel& original = active_kernel();
  EXPECT_TRUE(set_active_kernel("ssse3"));
  ASSERT_TRUE(set_active_kernel(original.name));
}

TEST(GfKernelDispatch, Avx2RunsOrSkips) {
  if (find_kernel("avx2") == nullptr) {
    GTEST_SKIP() << "host lacks AVX2; kernel excluded from the param suite";
  }
  const GfKernel& original = active_kernel();
  EXPECT_TRUE(set_active_kernel("avx2"));
  ASSERT_TRUE(set_active_kernel(original.name));
}

TEST(GfKernelDispatch, Avx512RunsOrSkips) {
  if (find_kernel("avx512") == nullptr) {
    GTEST_SKIP() << "host lacks AVX-512F/BW/VL or OS ZMM state; kernel "
                    "excluded from the param suite";
  }
  const GfKernel& original = active_kernel();
  EXPECT_TRUE(set_active_kernel("avx512"));
  ASSERT_TRUE(set_active_kernel(original.name));
}

TEST(GfKernelDispatch, GfniRunsOrSkips) {
  if (find_kernel("gfni") == nullptr) {
    GTEST_SKIP() << "host lacks GFNI (or the AVX-512 it rides on); kernel "
                    "excluded from the param suite";
  }
  const GfKernel& original = active_kernel();
  EXPECT_TRUE(set_active_kernel("gfni"));
  ASSERT_TRUE(set_active_kernel(original.name));
}

TEST(GfKernelDispatch, ForcedKernelIsTheActiveOne) {
  // DBLREP_GF_KERNEL names the kernel every free function routes through,
  // and without it dispatch picks the fastest supported one. A forced
  // name this host cannot run falls back; that must fail the per-kernel
  // test variants, not pass them on some other kernel.
  const char* forced = std::getenv("DBLREP_GF_KERNEL");
  const std::string expected = forced != nullptr && *forced != '\0'
                                   ? forced
                                   : supported_kernels().back()->name;
  EXPECT_EQ(active_kernel().name, expected);
}

TEST(SliceOpStats, NonTemporalRemovesRfoFromModeledTraffic) {
  // The modeled accounting behind the bench's NT routing gate: an
  // all-ones parity row streams from kNonTemporalMinBytes up, paying the
  // write only; 64 bytes shorter it is a regular store, paying write +
  // read-for-ownership. The model is kernel-independent, so this holds
  // even on scalar-only hosts (where the hint is ignored at execution but
  // the routing -- which is what the model audits -- is identical). Both
  // routes must still write the XOR of the sources.
  for (const std::size_t n :
       {kNonTemporalMinBytes, kNonTemporalMinBytes - 64}) {
    const bool streams = n >= kNonTemporalMinBytes;
    std::vector<Buffer> storage;
    std::vector<ByteSpan> sources;
    Buffer expected(n, 0);
    for (std::size_t s = 0; s < 3; ++s) {
      storage.push_back(pattern_buffer(n, 67 + s));
      sources.emplace_back(storage.back());
      for (std::size_t i = 0; i < n; ++i) expected[i] ^= storage.back()[i];
    }
    const std::vector<Elem> coeffs = {1, 1, 1};
    Buffer out(n, 0xcc);  // the fold overwrites: stale bytes must vanish
    std::vector<MutableByteSpan> outputs = {MutableByteSpan(out)};

    reset_slice_op_stats();
    matrix_apply(coeffs, sources, outputs);
    const SliceOpStats stats = slice_op_stats();

    SCOPED_TRACE("n=" + std::to_string(n));
    EXPECT_EQ(out, expected) << active_kernel().name;
    EXPECT_EQ(stats.src_bytes_read, 3 * n);
    EXPECT_EQ(stats.dst_bytes_written, n);
    EXPECT_EQ(stats.rfo_bytes_read, streams ? 0u : n);
    EXPECT_EQ(stats.nt_bytes_written, streams ? n : 0u);
  }
}

#ifndef NDEBUG
TEST(GfKernelDispatch, PartialOverlapTripsDebugCheck) {
  Buffer buf(128, 1);
  MutableByteSpan dst = MutableByteSpan(buf).subspan(0, 64);
  ByteSpan src = ByteSpan(buf).subspan(32, 64);
  EXPECT_THROW(mul_slice(dst, src, 2), ContractViolation);
  EXPECT_THROW(addmul_slice(dst, src, 2), ContractViolation);
}
#endif

}  // namespace
}  // namespace dblrep::gf
