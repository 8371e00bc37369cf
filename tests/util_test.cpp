#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "rispp/util/csv.hpp"
#include "rispp/util/error.hpp"
#include "rispp/util/parse.hpp"
#include "rispp/util/rng.hpp"
#include "rispp/util/stats.hpp"
#include "rispp/util/table.hpp"

namespace {

using namespace rispp::util;

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, RangeInclusiveBounds) {
  Xoshiro256 rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceApproximatesProbability) {
  Xoshiro256 rng(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(ParseNumber, EdgesOfTheOneNumberRule) {
  // The maximum of the destination type is accepted, one more is not.
  EXPECT_EQ(parse_number<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_FALSE(parse_number<std::uint32_t>("4294967296"));
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_number<std::uint64_t>("18446744073709551616"));
  EXPECT_EQ(parse_number<std::int32_t>("-2147483648"),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_FALSE(parse_number<std::int32_t>("2147483648"));
  // The whole token, decimal digits only; no sign on an unsigned type.
  for (const char* bad :
       {"", " ", " 7", "7 ", "\t7", "+7", "-7", "-0", "7abc", "0x10", "1.5"})
    EXPECT_FALSE(parse_number<std::uint64_t>(bad)) << "'" << bad << "'";
  EXPECT_EQ(parse_number<std::int64_t>("-7"), -7);
  EXPECT_FALSE(parse_number<std::int64_t>("+7"));
  // Reals: finite only.
  EXPECT_EQ(parse_number<double>("-0.25"), -0.25);
  EXPECT_EQ(parse_number<double>("1e3"), 1000.0);
  for (const char* bad : {"", " 1", "+1", "1,5", "nan", "inf", "-inf", "1e400",
                          "0x1p3"})
    EXPECT_FALSE(parse_number<double>(bad)) << "'" << bad << "'";
  try {
    (void)require_number<unsigned>("-1", "--jobs");
    FAIL() << "signed count accepted";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.what(), "invalid number for --jobs: '-1'");
  }
}

TEST(Accumulator, BasicMoments) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.total(), 40.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  // Population variance is 4; sample variance 32/7.
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Accumulator, EmptyThrowsOnMinMax) {
  Accumulator a;
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_THROW(a.min(), PreconditionError);
  EXPECT_THROW(a.max(), PreconditionError);
}

TEST(Accumulator, MergeMatchesSequential) {
  Accumulator all, left, right;
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 10;
    all.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_NEAR(left.min(), all.min(), 0.0);
  EXPECT_NEAR(left.max(), all.max(), 0.0);
}

TEST(Accumulator, MergeWithEmptyIsIdentity) {
  Accumulator a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
}

TEST(Accumulator, MergeEmptyWithEmptyStaysEmpty) {
  Accumulator a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_THROW(a.min(), PreconditionError);
  // Still usable after the empty merge.
  a.add(5.0);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
}

TEST(Accumulator, MergeEmptyIntoNonEmptyPreservesMinMax) {
  Accumulator a, empty;
  a.add(-2.0);
  a.add(7.0);
  a.merge(empty);
  // min_/max_ of a default-constructed accumulator are 0 — they must not
  // leak into the merged extrema.
  EXPECT_DOUBLE_EQ(a.min(), -2.0);
  EXPECT_DOUBLE_EQ(a.max(), 7.0);
  EXPECT_DOUBLE_EQ(a.total(), 5.0);
  Accumulator b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.min(), -2.0);
  EXPECT_DOUBLE_EQ(b.max(), 7.0);
}

TEST(Accumulator, MergeTwoSingleSamplesGivesTwoSampleVariance) {
  Accumulator a, b;
  a.add(2.0);
  b.add(6.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);  // n−1 denominator, n = 1
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 4.0);
  // Sample variance of {2, 6}: ((2−4)² + (6−4)²) / 1 = 8.
  EXPECT_DOUBLE_EQ(a.variance(), 8.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 6.0);
}

TEST(Accumulator, MergeSingleIntoManyMatchesSequential) {
  Accumulator merged, sequential, single;
  for (double x : {1.0, 2.0, 3.0}) {
    merged.add(x);
    sequential.add(x);
  }
  single.add(10.0);
  sequential.add(10.0);
  merged.merge(single);
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_NEAR(merged.mean(), sequential.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), sequential.variance(), 1e-12);
}

TEST(LogHistogram, PowerOfTwoBuckets) {
  LogHistogram h;
  h.add(0);    // bucket 0 holds exactly {0}
  h.add(1);    // bucket 1: [1, 2)
  h.add(5);    // bucket 3: [4, 8)
  h.add(544);  // bucket 10: [512, 1024)
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 544u);
  EXPECT_DOUBLE_EQ(h.mean(), 550.0 / 4.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.bucket_lower(0), 0u);
  EXPECT_EQ(h.bucket_upper(0), 1u);
  EXPECT_EQ(h.bucket_lower(10), 512u);
  EXPECT_EQ(h.bucket_upper(10), 1024u);
}

TEST(LogHistogram, PercentileBracketsNearestRank) {
  LogHistogram h;
  for (int i = 0; i < 99; ++i) h.add(20);  // bucket [16, 32)
  h.add(544);                              // bucket [512, 1024)
  EXPECT_EQ(h.percentile(0.5), (PercentileBound{16.0, 32.0}));
  EXPECT_EQ(h.percentile(0.99), (PercentileBound{16.0, 32.0}));
  EXPECT_EQ(h.percentile(1.0), (PercentileBound{512.0, 1024.0}));

  // A sample of 2^63 or more lands in the last bucket, [2^63, 2^64).
  LogHistogram top;
  top.add(UINT64_MAX);
  EXPECT_EQ(top.percentile(1.0), (PercentileBound{0x1p63, 0x1p64}));
  EXPECT_EQ(top.bucket_lower(64), std::uint64_t{1} << 63);
  EXPECT_THROW(top.bucket_upper(64), PreconditionError);
}

TEST(LogHistogram, PercentileRejectsBadArguments) {
  LogHistogram h;
  EXPECT_THROW(h.percentile(0.5), PreconditionError);  // empty histogram
  h.add(7);
  EXPECT_THROW(h.percentile(0.0), PreconditionError);  // q must be in (0, 1]
  EXPECT_THROW(h.percentile(1.5), PreconditionError);
}

TEST(TextTable, AlignsAndGroups) {
  TextTable t{"name", "value"};
  t.add_row({"a", TextTable::grouped(1234567)});
  t.add_row({"bb", TextTable::num(3.14159, 2)});
  const auto s = t.str();
  EXPECT_NE(s.find("1,234,567"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, PadsMultiByteCellsByCodePoints) {
  // "→" is three UTF-8 bytes but one column: the next column of its row
  // must line up with the ASCII row's.
  TextTable t{"edge", "cycles"};
  t.add_row({"a→b", "10"});
  t.add_row({"abc", "20"});
  EXPECT_EQ(t.str(),
            "edge  cycles\n"
            "------------\n"
            "a→b   10    \n"
            "abc   20    \n");
}

TEST(TextTable, GroupedNegative) {
  EXPECT_EQ(TextTable::grouped(-1234), "-1,234");
  EXPECT_EQ(TextTable::grouped(0), "0");
  EXPECT_EQ(TextTable::grouped(999), "999");
}

TEST(Csv, EscapesSpecials) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row("plain", "with,comma", "with\"quote");
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Csv, VariadicNumbers) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row("k", 42, 1.5);
  EXPECT_NE(os.str().find("k,42,"), std::string::npos);
}

}  // namespace
