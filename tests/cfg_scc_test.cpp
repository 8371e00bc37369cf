#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "rispp/cfg/scc.hpp"
#include "rispp/util/rng.hpp"

namespace {

using namespace rispp::cfg;

TEST(Tarjan, StraightLineIsAllSingletons) {
  BBGraph g;
  const auto a = g.add_block("a");
  const auto b = g.add_block("b");
  const auto c = g.add_block("c");
  g.add_edge(a, b);
  g.add_edge(b, c);
  const auto scc = tarjan_scc(g);
  EXPECT_EQ(scc.component_count(), 3u);
  EXPECT_FALSE(scc.in_cycle(g, a));
  EXPECT_FALSE(scc.in_cycle(g, b));
  EXPECT_FALSE(scc.in_cycle(g, c));
}

TEST(Tarjan, SimpleLoopIsOneComponent) {
  BBGraph g;
  const auto head = g.add_block("head");
  const auto body = g.add_block("body");
  const auto exit = g.add_block("exit");
  g.add_edge(head, body);
  g.add_edge(body, head);
  g.add_edge(head, exit);
  const auto scc = tarjan_scc(g);
  EXPECT_EQ(scc.component_count(), 2u);
  EXPECT_EQ(scc.component_of[head], scc.component_of[body]);
  EXPECT_NE(scc.component_of[head], scc.component_of[exit]);
  EXPECT_TRUE(scc.in_cycle(g, head));
  EXPECT_FALSE(scc.in_cycle(g, exit));
}

TEST(Tarjan, SelfLoopCountsAsCycle) {
  BBGraph g;
  const auto a = g.add_block("a");
  g.add_edge(a, a);
  const auto scc = tarjan_scc(g);
  EXPECT_EQ(scc.component_count(), 1u);
  EXPECT_TRUE(scc.in_cycle(g, a));
}

TEST(Tarjan, ComponentIdsAreReverseTopological) {
  // Edge between distinct components must point to a smaller component id.
  BBGraph g;
  const auto a = g.add_block("a");
  const auto b = g.add_block("b");
  const auto c = g.add_block("c");
  const auto d = g.add_block("d");
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, b);  // {b,c} is an SCC
  g.add_edge(c, d);
  const auto scc = tarjan_scc(g);
  for (const auto& e : g.edges()) {
    const auto cf = scc.component_of[e.from];
    const auto ct = scc.component_of[e.to];
    if (cf != ct) {
      EXPECT_GT(cf, ct);
    }
  }
}

TEST(Tarjan, NestedLoopsCollapse) {
  // Outer loop containing an inner loop, all mutually reachable → one SCC.
  BBGraph g;
  const auto outer = g.add_block("outer");
  const auto inner = g.add_block("inner");
  const auto latch = g.add_block("latch");
  const auto exit = g.add_block("exit");
  g.add_edge(outer, inner);
  g.add_edge(inner, inner);
  g.add_edge(inner, latch);
  g.add_edge(latch, outer);
  g.add_edge(latch, exit);
  const auto scc = tarjan_scc(g);
  EXPECT_EQ(scc.component_of[outer], scc.component_of[inner]);
  EXPECT_EQ(scc.component_of[inner], scc.component_of[latch]);
  EXPECT_NE(scc.component_of[outer], scc.component_of[exit]);
}

TEST(Tarjan, DisconnectedGraphCovered) {
  BBGraph g;
  const auto a = g.add_block("a");
  const auto b = g.add_block("b");
  (void)a;
  (void)b;
  const auto scc = tarjan_scc(g);
  EXPECT_EQ(scc.component_count(), 2u);
  // Every block assigned, members partition the blocks.
  std::set<BlockId> seen;
  for (const auto& comp : scc.members)
    for (auto m : comp) EXPECT_TRUE(seen.insert(m).second);
  EXPECT_EQ(seen.size(), g.block_count());
}

TEST(Tarjan, RandomGraphsPartitionAndOrder) {
  rispp::util::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    BBGraph g;
    const int n = 2 + static_cast<int>(rng.below(30));
    for (int i = 0; i < n; ++i) {
      std::string name = "b";
      name += std::to_string(i);
      g.add_block(std::move(name));
    }
    const int edges = static_cast<int>(rng.below(static_cast<std::uint64_t>(3 * n)));
    for (int e = 0; e < edges; ++e)
      g.add_edge(static_cast<BlockId>(rng.below(n)),
                 static_cast<BlockId>(rng.below(n)));
    const auto scc = tarjan_scc(g);
    // Partition property.
    std::set<BlockId> seen;
    for (const auto& comp : scc.members) {
      EXPECT_FALSE(comp.empty());
      for (auto m : comp) EXPECT_TRUE(seen.insert(m).second);
    }
    EXPECT_EQ(seen.size(), g.block_count());
    // Reverse-topological ids on the condensation.
    for (const auto& e : g.edges()) {
      const auto cf = scc.component_of[e.from];
      const auto ct = scc.component_of[e.to];
      if (cf != ct) {
        EXPECT_GT(cf, ct);
      }
    }
  }
}

TEST(Condensation, AggregatesEdgeCounts) {
  BBGraph g;
  const auto a = g.add_block("a");
  const auto b = g.add_block("b");
  const auto c = g.add_block("c");
  g.add_edge(a, b, 10);
  g.add_edge(b, a, 9);     // {a,b} SCC — intra edges dropped
  g.add_edge(a, c, 3);
  g.add_edge(b, c, 4);     // both cross to c's component → aggregated
  const auto scc = tarjan_scc(g);
  const auto cond = condense(g, scc);
  ASSERT_EQ(cond.edges.size(), 1u);
  EXPECT_EQ(cond.edges[0].count, 7u);
  EXPECT_EQ(cond.topo_order.size(), scc.component_count());
  // Topological order: sources first.
  EXPECT_EQ(cond.topo_order.front(), scc.component_of[a]);
}

}  // namespace
