/// Graph-driven workload generation: Markov-walk fidelity to the profile,
/// determinism, forecast emission, truncation reporting, and the end-to-end
/// speed-up on AES — all through the TraceSource seam.

#include <gtest/gtest.h>

#include "rispp/aes/graph.hpp"
#include "rispp/cfg/dot.hpp"
#include "rispp/forecast/forecast_pass.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/workload/trace_source.hpp"

namespace {

using rispp::workload::TraceSource;
using rispp::workload::WalkParams;
using rispp::workload::WalkStats;

struct AesSetup {
  rispp::isa::SiLibrary lib = rispp::aes::si_library();
  rispp::aes::AesGraphIds ids{};
  rispp::cfg::BBGraph graph;
  rispp::forecast::FcPlan plan;

  explicit AesSetup(std::uint64_t blocks = 500) {
    graph = rispp::aes::build_graph(blocks, &ids);
    rispp::forecast::ForecastConfig cfg;
    cfg.atom_containers = 6;
    cfg.alpha = 0.05;
    plan = rispp::forecast::run_forecast_pass(graph, lib, cfg);
  }

  rispp::sim::Trace walk(const WalkParams& p, WalkStats* stats = nullptr) {
    auto tasks =
        TraceSource::make_graph_walk(graph, plan, borrow(lib), p, stats)
            ->tasks();
    EXPECT_EQ(tasks.size(), 1u);
    return std::move(tasks[0].trace);
  }
};

TEST(GraphWalk, DeterministicPerSeed) {
  AesSetup s(100);
  WalkParams p;
  p.seed = 3;
  const auto a = s.walk(p);
  const auto b = s.walk(p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].cycles, b[i].cycles);
    EXPECT_EQ(a[i].si_index, b[i].si_index);
  }
  p.seed = 4;
  const auto c = s.walk(p);
  // Different seed → (almost surely) different walk length on this graph.
  EXPECT_NE(a.size(), c.size());
}

TEST(GraphWalk, ReachesTheSinkAndCountsMatchStructure) {
  // The AES graph is a chain of loops with fixed trip proportions: 9 rounds
  // per block, one final round per block. The walk's SI mix must reflect
  // that regardless of the random seed.
  AesSetup s(400);
  WalkParams p;
  p.seed = 11;
  p.max_steps = 200000;
  WalkStats stats;
  const auto trace = s.walk(p, &stats);
  EXPECT_TRUE(stats.reached_sink);
  EXPECT_FALSE(stats.truncated);
  EXPECT_GT(stats.si_invocations, 0u);

  std::uint64_t subbytes = 0, mixcols = 0;
  for (const auto& op : trace) {
    if (op.kind != rispp::sim::TraceOp::Kind::Si) continue;
    if (op.si_index == s.lib.index_of("SUBBYTES")) subbytes += op.count;
    if (op.si_index == s.lib.index_of("MIXCOLUMNS")) mixcols += op.count;
  }
  // SUBBYTES fires in the 9 round bodies and the final round per block:
  // expect the 10:9 ratio within Markov-walk noise.
  ASSERT_GT(mixcols, 0u);
  const double ratio = static_cast<double>(subbytes) / mixcols;
  EXPECT_NEAR(ratio, 10.0 / 9.0, 0.15);
}

TEST(GraphWalk, ForecastsFireAtPlanBlocks) {
  AesSetup s(300);
  ASSERT_GT(s.plan.total_points(), 0u);
  WalkParams p;
  WalkStats stats;
  const auto trace = s.walk(p, &stats);
  EXPECT_GT(stats.forecasts, 0u);
  // With release_at_sinks, every forecasted SI is released at the end.
  std::set<std::size_t> forecasted, released;
  for (const auto& op : trace) {
    if (op.kind == rispp::sim::TraceOp::Kind::Forecast)
      forecasted.insert(op.si_index);
    if (op.kind == rispp::sim::TraceOp::Kind::Release)
      released.insert(op.si_index);
  }
  EXPECT_EQ(forecasted, released);
}

TEST(GraphWalk, SilencedForecastsEmitNone) {
  AesSetup s(300);
  WalkParams p;
  p.emit_forecasts = false;
  WalkStats stats;
  const auto trace = s.walk(p, &stats);
  EXPECT_EQ(stats.forecasts, 0u);
  for (const auto& op : trace)
    EXPECT_NE(op.kind, rispp::sim::TraceOp::Kind::Forecast);
}

TEST(GraphWalk, EndToEndForecastingBeatsSilence) {
  AesSetup s(800);
  auto run = [&](bool forecasts) {
    WalkParams p;
    p.seed = 5;
    p.emit_forecasts = forecasts;
    rispp::sim::SimConfig cfg;
    cfg.rt.atom_containers = 6;
    rispp::sim::Simulator sim(borrow(s.lib), cfg);
    TraceSource::make_graph_walk(s.graph, s.plan, borrow(s.lib), p)
        ->add_to(sim);
    return sim.run().total_cycles;
  };
  const auto with_fc = run(true);
  const auto without_fc = run(false);
  EXPECT_LT(with_fc, without_fc);
  // MIXCOLUMNS alone accounts for >40 % of the software time; hardware
  // execution must shave a substantial chunk.
  EXPECT_LT(static_cast<double>(with_fc), 0.8 * static_cast<double>(without_fc));
}

TEST(GraphWalk, MaxStepsBoundsInfiniteLoopsAndReportsTruncation) {
  rispp::cfg::BBGraph g;
  const auto a = g.add_block("spin", 10, 1);
  g.add_edge(a, a, 1);
  const auto lib = rispp::aes::si_library();
  WalkParams p;
  p.max_steps = 50;
  WalkStats stats;
  const auto tasks =
      TraceSource::make_graph_walk(g, {}, borrow(lib), p, &stats)->tasks();
  const auto& trace = tasks.at(0).trace;
  EXPECT_EQ(stats.steps, 50u);
  EXPECT_FALSE(stats.reached_sink);
  // The step budget ran out with the loop still spinning: a truncation.
  EXPECT_TRUE(stats.truncated);
  // All compute merges into one op.
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].cycles, 500u);
}

TEST(GraphWalk, SourceRefreshesStatsOnEveryCall) {
  AesSetup s(100);
  WalkParams p;
  p.seed = 7;
  WalkStats stats;
  const auto source =
      TraceSource::make_graph_walk(s.graph, s.plan, borrow(s.lib), p, &stats);
  (void)source->tasks();
  const auto first = stats;
  stats = WalkStats{};
  (void)source->tasks();
  EXPECT_EQ(stats.steps, first.steps);
  EXPECT_EQ(stats.si_invocations, first.si_invocations);
  EXPECT_EQ(stats.forecasts, first.forecasts);
  EXPECT_EQ(stats.reached_sink, first.reached_sink);
  EXPECT_EQ(stats.truncated, first.truncated);
}

TEST(Dot, RendersBlocksEdgesAndHighlights) {
  AesSetup s(200);
  rispp::cfg::DotOptions opt;
  opt.si_name = [&](std::size_t i) { return s.lib.at(i).name(); };
  opt.highlight.insert(s.ids.mixcolumns);
  const auto dot = rispp::cfg::to_dot(s.graph, opt);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("mixcolumns"), std::string::npos);
  EXPECT_NE(dot.find("MIXCOLUMNS x1"), std::string::npos);  // SI usage label
  EXPECT_NE(dot.find("penwidth=3"), std::string::npos);     // highlight
  EXPECT_NE(dot.find("->"), std::string::npos);
  // Every block appears.
  for (rispp::cfg::BlockId b = 0; b < s.graph.block_count(); ++b) {
    std::string node = "b";
    node += std::to_string(b);
    node += " [";
    EXPECT_NE(dot.find(node), std::string::npos);
  }
}

}  // namespace
