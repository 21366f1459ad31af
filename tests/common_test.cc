// Tests for src/common: status/result, bytes, rng, stats, tables.
#include <gtest/gtest.h>

#include <set>

#include "common/bytes.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"

namespace dblrep {
namespace {

// ---------------------------------------------------------------- check.h

TEST(Check, PassingCheckDoesNothing) { DBLREP_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsContractViolation) {
  EXPECT_THROW(DBLREP_CHECK(false), ContractViolation);
}

TEST(Check, MessageCarriesExpressionAndOperands) {
  try {
    DBLREP_CHECK_EQ(2 + 2, 5);
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2"), std::string::npos);
    EXPECT_NE(what.find("lhs=4"), std::string::npos);
    EXPECT_NE(what.find("rhs=5"), std::string::npos);
  }
}

TEST(Check, ComparisonMacrosHonorBoundaries) {
  DBLREP_CHECK_LE(3, 3);
  DBLREP_CHECK_GE(3, 3);
  EXPECT_THROW(DBLREP_CHECK_LT(3, 3), ContractViolation);
  EXPECT_THROW(DBLREP_CHECK_GT(3, 3), ContractViolation);
  EXPECT_THROW(DBLREP_CHECK_NE(3, 3), ContractViolation);
}

// --------------------------------------------------------------- status.h

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s = data_loss_error("stripe 7 gone");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.to_string(), "DATA_LOSS: stripe 7 gone");
}

TEST(Status, EveryFactoryMapsToItsCode) {
  EXPECT_EQ(not_found_error("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(unavailable_error("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(invalid_argument_error("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(already_exists_error("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(failed_precondition_error("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(corruption_error("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(resource_exhausted_error("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(internal_error("x").code(), StatusCode::kInternal);
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r = not_found_error("nope");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, ValueOnErrorIsContractViolation) {
  Result<int> r = internal_error("boom");
  EXPECT_THROW((void)r.value(), ContractViolation);
}

TEST(Result, ConstructingFromOkStatusIsContractViolation) {
  EXPECT_THROW(Result<int>{Status::ok()}, ContractViolation);
}

// ---------------------------------------------------------------- bytes.h

TEST(Bytes, XorIntoIsInvolutive) {
  Buffer a = random_buffer(1024 + 7, 1);  // odd size exercises the tail loop
  const Buffer a_orig = a;
  const Buffer b = random_buffer(1024 + 7, 2);
  xor_into(a, b);
  EXPECT_NE(a, a_orig);
  xor_into(a, b);
  EXPECT_EQ(a, a_orig);
}

TEST(Bytes, XorBuffersMatchesManualXor) {
  const Buffer a = random_buffer(33, 3);
  const Buffer b = random_buffer(33, 4);
  const Buffer c = xor_buffers(a, b);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(c[i], a[i] ^ b[i]);
}

TEST(Bytes, XorSizeMismatchIsContractViolation) {
  Buffer a(8), b(9);
  EXPECT_THROW(xor_into(a, b), ContractViolation);
}

TEST(Bytes, RandomBufferIsDeterministicPerSeed) {
  EXPECT_EQ(random_buffer(100, 7), random_buffer(100, 7));
  EXPECT_NE(random_buffer(100, 7), random_buffer(100, 8));
}

TEST(Bytes, Crc32cKnownVector) {
  // "123456789" -> 0xE3069283 is the canonical CRC-32C check value, for
  // crc32c() and for every implementation this CPU runs, the table first.
  const std::string s = "123456789";
  const ByteSpan span(reinterpret_cast<const std::uint8_t*>(s.data()),
                      s.size());
  EXPECT_EQ(crc32c(span), 0xE3069283u);
  const auto impls = supported_crc32c_impls();
  EXPECT_STREQ(impls.front()->name, "table");
  for (const Crc32cImpl* impl : impls) {
    EXPECT_EQ(impl->run(span, 0), 0xE3069283u) << impl->name;
  }
}

TEST(Bytes, EveryCrc32cImplMatchesTheTableAtEveryLengthAndOffset) {
  // Lengths 0-4096 and 65536 +- 0..15 at start offsets 0-15 reach the
  // one-stream path, both three-stream block sizes and every tail length
  // at every alignment. Each length is also checked split in half and
  // chained: crc(a‖b) == crc(b, crc(a)). The table reference for each
  // length chains the previous one over the new bytes, which keeps the
  // sweep linear in the table's (slow) time; the last one is checked
  // against the table's direct value.
  const auto impls = supported_crc32c_impls();
  const Crc32cImpl& table = *impls.front();
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 4096; ++len) lengths.push_back(len);
  for (std::size_t len = 65536 - 15; len <= 65536 + 15; ++len) {
    lengths.push_back(len);
  }
  constexpr std::size_t kOffsets = 16;
  const Buffer data = random_buffer(lengths.back() + kOffsets, 11);
  for (std::size_t offset = 0; offset < kOffsets; ++offset) {
    const ByteSpan base = ByteSpan(data).subspan(offset);
    std::uint32_t want = 0;  // the CRC of zero bytes
    std::size_t want_len = 0;
    for (const std::size_t len : lengths) {
      want = table.run(base.subspan(want_len, len - want_len), want);
      want_len = len;
      const ByteSpan a = base.first(len / 2);
      const ByteSpan b = base.subspan(len / 2, len - len / 2);
      for (const Crc32cImpl* impl : impls) {
        if (impl == &table) continue;
        ASSERT_EQ(impl->run(base.first(len), 0), want)
            << impl->name << " len " << len << " offset " << offset;
        ASSERT_EQ(impl->run(b, impl->run(a, 0)), want)
            << impl->name << " chained, len " << len << " offset " << offset;
      }
    }
    ASSERT_EQ(table.run(base.first(want_len), 0), want) << offset;
  }
}

TEST(Bytes, Crc32cDetectsSingleBitFlip) {
  Buffer data = random_buffer(256, 9);
  const std::uint32_t before = crc32c(data);
  data[100] ^= 0x40;
  EXPECT_NE(crc32c(data), before);
}

TEST(Bytes, HexPreviewTruncates) {
  const Buffer data{0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(hex_preview(data), "deadbeef");
  EXPECT_EQ(hex_preview(data, 2), "dead...");
}

TEST(Bytes, FormatBytesPicksUnits) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(3.0 * 1024 * 1024 * 1024), "3.00 GiB");
}

// ------------------------------------------------------------------ rng.h

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(2);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);  // all of -2..2 hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ExponentialHasRoughlyCorrectMean) {
  Rng rng(4);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    const auto sample = rng.sample_without_replacement(25, 10);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (auto v : sample) EXPECT_LT(v, 25u);
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(6);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// ---------------------------------------------------------------- stats.h

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZeroes) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_half_width(), 0.0);
}

TEST(Histogram, CountsAndQuantiles) {
  Histogram h({0.0, 10.0, 20.0, 30.0});
  for (double x : {-5.0, 1.0, 5.0, 9.0, 15.0, 25.0, 35.0}) h.add(x);
  EXPECT_EQ(h.total(), 7u);
  const auto& counts = h.counts();
  EXPECT_EQ(counts[0], 1u);  // underflow
  EXPECT_EQ(counts[1], 3u);  // [0,10)
  EXPECT_EQ(counts[2], 1u);  // [10,20)
  EXPECT_EQ(counts[3], 1u);  // [20,30)
  EXPECT_EQ(counts[4], 1u);  // overflow
  EXPECT_GT(h.quantile(0.5), 0.0);
  EXPECT_LE(h.quantile(0.5), 10.0);
}

TEST(Histogram, UnsortedBoundsRejected) {
  EXPECT_THROW(Histogram({1.0, 1.0}), ContractViolation);
  EXPECT_THROW(Histogram({2.0, 1.0}), ContractViolation);
}

TEST(RunningStat, MergeMatchesSequentialAdds) {
  // Split one sample stream across three "threads" and merge: count, sum,
  // mean, min/max exact; variance to combination-formula precision.
  const std::vector<double> all = {2.0, 4.0, 4.0, 4.0, 5.0,
                                   5.0, 7.0, 9.0, -1.0, 12.5};
  RunningStat whole;
  for (double x : all) whole.add(x);
  RunningStat parts[3];
  for (std::size_t i = 0; i < all.size(); ++i) parts[i % 3].add(all[i]);
  RunningStat merged;
  for (const auto& part : parts) merged.merge(part);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-9);
}

TEST(RunningStat, MergeWithEmptySides) {
  RunningStat a;
  RunningStat b;
  b.add(3.0);
  b.add(5.0);
  a.merge(b);  // empty <- populated
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  RunningStat empty;
  a.merge(empty);  // populated <- empty is a no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
}

TEST(Histogram, MergeAddsCountsBucketwise) {
  Histogram a({0.0, 10.0, 20.0});
  Histogram b({0.0, 10.0, 20.0});
  a.add(5.0);
  a.add(15.0);
  b.add(5.0);
  b.add(25.0);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.counts()[1], 2u);  // [0,10)
  EXPECT_EQ(a.counts()[2], 1u);  // [10,20)
  EXPECT_EQ(a.counts()[3], 1u);  // overflow
  Histogram mismatched({0.0, 5.0});
  EXPECT_THROW(a.merge(mismatched), ContractViolation);
}

TEST(Histogram, LogSpacedCoversRangeMonotonically) {
  const Histogram h = Histogram::log_spaced(1.0, 1e6, 4);
  // 6 decades x 4 buckets each, within one bucket of rounding.
  EXPECT_GE(h.counts().size(), 24u);
  Histogram copy = h;
  copy.add(0.5);      // underflow
  copy.add(1e7);      // overflow
  copy.add(1234.5);   // interior
  EXPECT_EQ(copy.total(), 3u);
  EXPECT_EQ(copy.counts().front(), 1u);
  EXPECT_EQ(copy.counts().back(), 1u);
}

// ---------------------------------------------------------------- table.h

TEST(TextTable, AlignsAndRendersAllRows) {
  TextTable t({"code", "overhead"});
  t.add_row({"pentagon", "2.22x"});
  t.add_row({"3-rep", "3x"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("pentagon"), std::string::npos);
  EXPECT_NE(out.find("3-rep"), std::string::npos);
  EXPECT_NE(out.find("| code"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, ArityMismatchIsContractViolation) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(TextTable, CsvEscapesSpecials) {
  TextTable t({"name", "note"});
  t.add_row({"a,b", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Format, SciMatchesPaperStyle) {
  EXPECT_EQ(fmt_sci(1.2e9), "1.20e+09");
  EXPECT_EQ(fmt_sci(2.68e7), "2.68e+07");
}

TEST(Format, PercentAndDouble) {
  EXPECT_EQ(fmt_pct(0.938), "93.8%");
  EXPECT_EQ(fmt_double(2.2222, 2), "2.22");
}

}  // namespace
}  // namespace dblrep
