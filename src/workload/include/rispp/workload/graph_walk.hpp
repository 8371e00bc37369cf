#pragma once
/// \file graph_walk.hpp
/// \brief Graph-driven workload generation: closes the platform's loop from
/// the compile-time artifacts to the cycle simulator.
///
/// The paper's flow is: profile the application → insert Forecast points
/// into its BB graph (§4) → at run time, FCs fire as control flow passes
/// them (§5). This module executes exactly that: it walks a profiled
/// BBGraph as a Markov chain (profiled edge probabilities), and emits a
/// simulator trace in which every block contributes its body cycles and SI
/// invocations, and every FC block of the plan fires its forecasts.
///
/// The result: run_forecast_pass() output can be *executed*, not just
/// inspected — the AES end-to-end experiment (bench/aes_end_to_end) runs on
/// this. The walk itself is TraceSource::make_graph_walk (trace_source.hpp);
/// this header holds its parameters and statistics.

#include <cstdint>

namespace rispp::workload {

struct WalkParams {
  std::uint64_t seed = 1;        ///< Markov-walk randomness (deterministic)
  std::uint64_t max_steps = 1'000'000;  ///< hard stop for cyclic graphs
  bool emit_forecasts = true;    ///< false → FC blocks are silent (ablation)
  /// Release every active forecast of an SI when the walk leaves its last
  /// usage region — approximated by emitting releases at sink blocks.
  bool release_at_sinks = true;
};

struct WalkStats {
  std::uint64_t steps = 0;            ///< blocks visited
  std::uint64_t si_invocations = 0;
  std::uint64_t forecasts = 0;
  bool reached_sink = false;          ///< walk ended at a block with no exits
  /// The walk was cut short: max_steps ran out before any sink was reached.
  /// Distinct from `!reached_sink` alone so callers can tell "the budget
  /// truncated a longer walk" from other non-sink terminations.
  bool truncated = false;
};

}  // namespace rispp::workload
