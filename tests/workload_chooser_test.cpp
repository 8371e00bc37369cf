/// Chooser distributions: domain safety, determinism, and the statistical
/// shape properties the phased generator's traffic shaping relies on.

#include <gtest/gtest.h>

#include <vector>

#include "rispp/util/error.hpp"
#include "rispp/util/rng.hpp"
#include "rispp/workload/chooser.hpp"

namespace {

using rispp::util::PreconditionError;
using rispp::util::Xoshiro256;
using rispp::workload::Chooser;

std::vector<std::uint64_t> histogram(const Chooser& c, std::size_t n,
                                     std::size_t samples,
                                     std::uint64_t seed = 1) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> counts(n, 0);
  for (std::size_t i = 0; i < samples; ++i) {
    const auto pick = c.pick(rng);
    EXPECT_LT(pick, n);
    ++counts[pick];
  }
  return counts;
}

TEST(Chooser, FactoriesValidate) {
  EXPECT_THROW(Chooser::uniform(0), PreconditionError);
  EXPECT_THROW(Chooser::zipfian(0), PreconditionError);
  EXPECT_THROW(Chooser::zipfian(4, 0.0), PreconditionError);
  EXPECT_THROW(Chooser::zipfian(4, 1.0), PreconditionError);
  EXPECT_THROW(Chooser::hot_set(0, 0.1, 0.9), PreconditionError);
  EXPECT_THROW(Chooser::hot_set(4, 0.0, 0.9), PreconditionError);
  EXPECT_THROW(Chooser::hot_set(4, 0.5, 1.5), PreconditionError);
  EXPECT_THROW(Chooser::weighted({}), PreconditionError);
  EXPECT_THROW(Chooser::weighted({0.0, 0.0}), PreconditionError);
  EXPECT_THROW(Chooser::weighted({1.0, -1.0}), PreconditionError);
}

TEST(Chooser, PicksAreDeterministicPerSeed) {
  for (const auto& c :
       {Chooser::uniform(16), Chooser::zipfian(16, 0.9),
        Chooser::hot_set(16, 0.25, 0.8), Chooser::weighted({1, 2, 3, 4})}) {
    Xoshiro256 a(99), b(99);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(c.pick(a), c.pick(b));
  }
}

TEST(Chooser, UniformCoversTheDomainEvenly) {
  const std::size_t n = 8, samples = 80000;
  const auto counts = histogram(Chooser::uniform(n), n, samples);
  for (const auto c : counts) {
    EXPECT_GT(c, samples / n * 8 / 10);
    EXPECT_LT(c, samples / n * 12 / 10);
  }
}

TEST(ChooserProperty, ZipfianPreservesFrequencyRanking) {
  // The defining property: rank 0 is the most popular and popularity is
  // monotone non-increasing in rank (allowing sampling noise between
  // adjacent far-tail ranks, whose expected counts are nearly equal).
  for (const double theta : {0.5, 0.8, 0.99}) {
    const std::size_t n = 12, samples = 120000;
    const auto counts = histogram(Chooser::zipfian(n, theta), n, samples,
                                  /*seed=*/42);
    for (std::size_t i = 0; i + 1 < n; ++i)
      EXPECT_GE(counts[i] + counts[i] / 4 + 50, counts[i + 1])
          << "rank " << i << " vs " << i + 1 << " at theta " << theta;
    // Head dominance is strict and large.
    EXPECT_GT(counts[0], 2 * counts[n - 1]) << "theta " << theta;
    // Rank 0's share grows with skew: at theta=0.99 it must clearly beat
    // the uniform share.
    if (theta == 0.99) {
      EXPECT_GT(counts[0], samples / n * 3);
    }
  }
}

TEST(ChooserProperty, ZipfianSkewOrdersHeadShare) {
  const std::size_t n = 12, samples = 120000;
  const auto mild = histogram(Chooser::zipfian(n, 0.5), n, samples, 7);
  const auto steep = histogram(Chooser::zipfian(n, 0.99), n, samples, 7);
  EXPECT_GT(steep[0], mild[0]);
}

TEST(ChooserProperty, HotSetRespectsHotFraction) {
  const std::size_t n = 20, samples = 100000;
  const double fraction = 0.2, probability = 0.85;
  const auto chooser = Chooser::hot_set(n, fraction, probability);
  EXPECT_EQ(chooser.hot_count(), 4u);
  const auto counts = histogram(chooser, n, samples, 5);
  std::uint64_t hot = 0;
  for (std::size_t i = 0; i < chooser.hot_count(); ++i) hot += counts[i];
  const double hot_share = static_cast<double>(hot) / samples;
  EXPECT_NEAR(hot_share, probability, 0.02);
  // Within each group picks are uniform: every hot index clearly beats
  // every cold index at these parameters.
  std::uint64_t min_hot = counts[0], max_cold = 0;
  for (std::size_t i = 0; i < chooser.hot_count(); ++i)
    min_hot = std::min(min_hot, counts[i]);
  for (std::size_t i = chooser.hot_count(); i < n; ++i)
    max_cold = std::max(max_cold, counts[i]);
  EXPECT_GT(min_hot, max_cold);
}

TEST(ChooserProperty, HotSetSmallFractionStillHasOneHotIndex) {
  const auto chooser = Chooser::hot_set(3, 0.01, 0.9);
  EXPECT_EQ(chooser.hot_count(), 1u);
  const auto counts = histogram(chooser, 3, 30000, 3);
  EXPECT_GT(counts[0], counts[1] + counts[2]);
}

TEST(Chooser, WeightedFollowsTheWeights) {
  const std::size_t samples = 90000;
  const auto counts =
      histogram(Chooser::weighted({1.0, 2.0, 6.0}), 3, samples, 11);
  EXPECT_NEAR(static_cast<double>(counts[0]) / samples, 1.0 / 9, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / samples, 2.0 / 9, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / samples, 6.0 / 9, 0.01);
}

TEST(Chooser, WeightedSkipsZeroWeightIndices) {
  const auto counts =
      histogram(Chooser::weighted({0.0, 1.0, 0.0, 1.0}), 4, 20000, 13);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_GT(counts[1], 0u);
  EXPECT_GT(counts[3], 0u);
}

TEST(Chooser, DescribeNamesTheShape) {
  EXPECT_EQ(Chooser::uniform(4).describe(), "uniform over 4");
  EXPECT_EQ(Chooser::zipfian(8, 0.9).describe(), "zipfian(0.9) over 8");
  EXPECT_EQ(Chooser::hot_set(10, 0.2, 0.9).describe(),
            "hotset(0.2,0.9) over 10");
  EXPECT_EQ(Chooser::weighted({1, 1}).describe(), "weighted over 2");
}

}  // namespace
