#include "rispp/workload/graph_walk.hpp"

#include <set>
#include <utility>

#include "rispp/util/error.hpp"
#include "rispp/util/rng.hpp"
#include "rispp/workload/trace_source.hpp"

namespace rispp::workload {

namespace {

/// Walks `g` from its entry and builds the corresponding trace. Adjacent
/// compute contributions are merged so the trace stays compact.
sim::Trace walk(const cfg::BBGraph& g, const forecast::FcPlan& plan,
                const isa::SiLibrary& lib, const WalkParams& params,
                WalkStats* stats) {
  g.validate();
  util::Xoshiro256 rng(params.seed);

  sim::Trace trace;
  WalkStats local;
  std::uint64_t pending_compute = 0;
  std::set<std::size_t> forecasted_sis;

  auto flush_compute = [&] {
    if (pending_compute > 0) {
      trace.push_back(sim::TraceOp::compute(pending_compute));
      pending_compute = 0;
    }
  };

  cfg::BlockId current = g.entry();
  for (std::uint64_t step = 0; step < params.max_steps; ++step) {
    ++local.steps;
    const auto& block = g.block(current);

    // Forecast points of this block fire *before* its body executes — the
    // whole point is lead time.
    if (params.emit_forecasts) {
      if (const auto* fb = plan.find(current)) {
        flush_compute();
        for (const auto& p : fb->points) {
          RISPP_REQUIRE(p.si_index < lib.size(),
                        "forecast plan references unknown SI");
          trace.push_back(sim::TraceOp::forecast(
              p.si_index, p.expected_executions, p.probability));
          forecasted_sis.insert(p.si_index);
          ++local.forecasts;
        }
      }
    }

    pending_compute += block.cycles;
    for (const auto& u : block.si_usages) {
      flush_compute();
      trace.push_back(sim::TraceOp::si(u.si_index, u.per_execution));
      local.si_invocations += u.per_execution;
    }

    // Choose the successor by profiled probability.
    const auto& outs = g.out_edges(current);
    if (outs.empty()) {
      local.reached_sink = true;
      break;
    }
    double pick = rng.uniform01();
    cfg::BlockId next = g.edges()[outs.back()].to;
    for (auto ei : outs) {
      const double p = g.edge_probability(ei);
      if (pick < p) {
        next = g.edges()[ei].to;
        break;
      }
      pick -= p;
    }
    current = next;
  }
  flush_compute();
  // The loop either broke at a sink or exhausted its step budget with exits
  // still available — the latter is a truncation, not a completion.
  local.truncated = !local.reached_sink && local.steps >= params.max_steps;

  if (params.release_at_sinks && local.reached_sink) {
    for (auto si : forecasted_sis)
      trace.push_back(sim::TraceOp::release(si));
  }
  if (stats) *stats = local;
  return trace;
}

class GraphWalkSource final : public TraceSource {
 public:
  GraphWalkSource(cfg::BBGraph g, forecast::FcPlan plan,
                  std::shared_ptr<const isa::SiLibrary> lib, WalkParams params,
                  WalkStats* stats, std::string task_name)
      : graph_(std::move(g)),
        plan_(std::move(plan)),
        lib_(std::move(lib)),
        params_(params),
        stats_(stats),
        task_name_(std::move(task_name)) {
    RISPP_REQUIRE(lib_ != nullptr, "graph-walk source needs an SI library");
  }

  std::vector<sim::TaskDef> tasks() const override {
    std::vector<sim::TaskDef> out;
    out.push_back({task_name_, walk(graph_, plan_, *lib_, params_, stats_)});
    return out;
  }

  std::string describe() const override {
    return "graph walk over " + std::to_string(graph_.block_count()) +
           " blocks (seed " + std::to_string(params_.seed) + ", max_steps " +
           std::to_string(params_.max_steps) + ")";
  }

 private:
  cfg::BBGraph graph_;
  forecast::FcPlan plan_;
  std::shared_ptr<const isa::SiLibrary> lib_;
  WalkParams params_;
  WalkStats* stats_;
  std::string task_name_;
};

}  // namespace

std::unique_ptr<TraceSource> TraceSource::make_graph_walk(
    const cfg::BBGraph& g, const forecast::FcPlan& plan,
    std::shared_ptr<const isa::SiLibrary> lib, WalkParams params,
    WalkStats* stats, std::string task_name) {
  return std::make_unique<GraphWalkSource>(g, plan, std::move(lib), params,
                                           stats, std::move(task_name));
}

}  // namespace rispp::workload
