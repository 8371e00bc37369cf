#include <gtest/gtest.h>

#include "rispp/cfg/probability.hpp"
#include "rispp/util/rng.hpp"

namespace {

using namespace rispp::cfg;

TEST(ReachProbability, TargetItselfIsOne) {
  BBGraph g;
  const auto a = g.add_block("a");
  const auto b = g.add_block("b");
  g.add_edge(a, b, 1);
  const auto p = reach_probability_scc(g, {b});
  EXPECT_DOUBLE_EQ(p[b], 1.0);
  EXPECT_DOUBLE_EQ(p[a], 1.0);  // only path leads to b
}

TEST(ReachProbability, BranchSplitsProbability) {
  //      a --0.75--> b(target)
  //        \-0.25--> c
  BBGraph g;
  const auto a = g.add_block("a", 1, 100);
  const auto b = g.add_block("b", 1, 75);
  const auto c = g.add_block("c", 1, 25);
  g.add_edge(a, b, 75);
  g.add_edge(a, c, 25);
  const auto p = reach_probability_scc(g, {b});
  EXPECT_NEAR(p[a], 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(p[b], 1.0);
  EXPECT_DOUBLE_EQ(p[c], 0.0);
}

TEST(ReachProbability, SerialBranchesMultiply) {
  // a → (0.5) b → (0.5) t; reach(a) = 0.25.
  BBGraph g;
  const auto a = g.add_block("a", 1, 4);
  const auto b = g.add_block("b", 1, 2);
  const auto t = g.add_block("t", 1, 1);
  const auto x = g.add_block("x", 1, 2);
  const auto y = g.add_block("y", 1, 1);
  g.add_edge(a, b, 2);
  g.add_edge(a, x, 2);
  g.add_edge(b, t, 1);
  g.add_edge(b, y, 1);
  const auto p = reach_probability_scc(g, {t});
  EXPECT_NEAR(p[a], 0.25, 1e-12);
  EXPECT_NEAR(p[b], 0.5, 1e-12);
}

TEST(ReachProbability, LoopWithExitGeometricSeries) {
  // loop: head → body (q = 0.9) → head; head → target (0.1 each visit).
  // Markov: p(head) satisfies p = 0.1·1 + 0.9·p(body), p(body) = p(head)
  // → p(head) = 1 (the loop eventually exits to the target a.s.).
  BBGraph g;
  const auto head = g.add_block("head", 1, 10);
  const auto body = g.add_block("body", 1, 9);
  const auto target = g.add_block("t", 1, 1);
  g.add_edge(head, body, 9);
  g.add_edge(head, target, 1);
  g.add_edge(body, head, 9);
  const auto p = reach_probability_scc(g, {target});
  EXPECT_NEAR(p[head], 1.0, 1e-9);
  EXPECT_NEAR(p[body], 1.0, 1e-9);
}

TEST(ReachProbability, LoopWithTwoExitsSplits) {
  // Loop exits to target with 0.1 and to elsewhere with 0.1 per iteration;
  // staying has 0.8. p(head) = 0.1 + 0.8·p(head) → 0.5.
  BBGraph g;
  const auto head = g.add_block("head", 1, 10);
  const auto target = g.add_block("t", 1, 1);
  const auto other = g.add_block("o", 1, 1);
  g.add_edge(head, head, 8);
  g.add_edge(head, target, 1);
  g.add_edge(head, other, 1);
  const auto p = reach_probability_scc(g, {target});
  EXPECT_NEAR(p[head], 0.5, 1e-9);
}

TEST(ReachProbability, SccMatchesIterativeOnRandomGraphs) {
  rispp::util::Xoshiro256 rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    BBGraph g;
    const int n = 3 + static_cast<int>(rng.below(25));
    for (int i = 0; i < n; ++i) {
      std::string name = "b";
      name += std::to_string(i);
      g.add_block(std::move(name), 1 + rng.below(50));
    }
    const int edges = n + static_cast<int>(rng.below(static_cast<std::uint64_t>(2 * n)));
    for (int e = 0; e < edges; ++e)
      g.add_edge(static_cast<BlockId>(rng.below(n)),
                 static_cast<BlockId>(rng.below(n)), 1 + rng.below(20));
    std::vector<BlockId> targets{static_cast<BlockId>(rng.below(n))};
    const auto scc_p = reach_probability_scc(g, targets);
    const auto iter_p = reach_probability_iterative(g, targets);
    for (int i = 0; i < n; ++i)
      EXPECT_NEAR(scc_p[i], iter_p[i], 1e-6) << "trial " << trial << " block " << i;
  }
}

TEST(ReachProbability, ProbabilitiesAreWellFormed) {
  rispp::util::Xoshiro256 rng(99);
  BBGraph g;
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    std::string name = "b";
    name += std::to_string(i);
    g.add_block(std::move(name));
  }
  for (int e = 0; e < 120; ++e)
    g.add_edge(static_cast<BlockId>(rng.below(n)),
               static_cast<BlockId>(rng.below(n)), 1 + rng.below(9));
  const auto p = reach_probability_scc(g, {5, 17});
  for (int i = 0; i < n; ++i) {
    EXPECT_GE(p[i], 0.0);
    EXPECT_LE(p[i], 1.0);
  }
  EXPECT_DOUBLE_EQ(p[5], 1.0);
  EXPECT_DOUBLE_EQ(p[17], 1.0);
}

TEST(ExpectedExecutions, ProfileEstimator) {
  BBGraph g;
  const auto a = g.add_block("a", 1, 10);   // forecast site, executed 10×
  const auto use = g.add_block("u", 1, 50); // usage site, 2 SIs per exec
  g.add_edge(a, use, 10);
  g.add_si_usage(use, 0, 2);
  // 100 total invocations over 10 forecasts → 10 per reach.
  EXPECT_DOUBLE_EQ(expected_si_executions(g, 0, a), 10.0);
  EXPECT_DOUBLE_EQ(expected_si_executions(g, 0, use), 2.0);
}

TEST(ExpectedExecutions, ZeroProfileGivesZero) {
  BBGraph g;
  const auto a = g.add_block("a", 1, 0);
  g.add_si_usage(a, 0, 1);
  EXPECT_DOUBLE_EQ(expected_si_executions(g, 0, a), 0.0);
}

}  // namespace
