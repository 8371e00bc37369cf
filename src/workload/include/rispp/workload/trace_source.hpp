#pragma once
/// \file trace_source.hpp
/// \brief The unified trace-producer seam: every way a simulator workload
/// comes to exist, behind one interface.
///
/// Before this seam, every bench plumbed its own trace supply: fig06/fig11
/// hand-built TraceOp vectors inline, the AES experiment called the
/// graph-walk free function, the explorer parsed trace files, and the sweep
/// evaluator hard-coded its H.264 constructors. A TraceSource is the common
/// currency instead: *something that deterministically produces a multi-task
/// workload*. Simulators, benches and the experiment evaluator consume any
/// of them identically (`add_to`, or `tasks()` when the host wants to
/// post-process, e.g. jitter), so a new producer — like the phased
/// generator — plugs into every consumer at once.
///
/// Producers:
///   make_fixed       a hand-built task list (e.g. the fig11 scenario)
///   make_fig06       the paper's Fig-6 two-task run-time scenario
///   make_from_text   the §2 trace text format, from a string
///   make_from_file   the §2 trace text format, from a file
///   make_graph_walk  a Markov walk over a forecast-annotated BB graph
///   make_phased      the declarative phased generator (§8 configs)
///   make_generated   a library-derived sliding-hot-window workload (the
///                    companion of isa::LibraryGenerator; generated.hpp)
///
/// Contract: `tasks()` is a pure function of the source's construction
/// state — calling it twice yields identical task lists (byte-identical
/// through sim::write_tasks). Stats out-parameters passed at construction
/// are refreshed on every tasks() call.

#include <memory>
#include <string>
#include <vector>

#include "rispp/cfg/graph.hpp"
#include "rispp/forecast/forecast_pass.hpp"
#include "rispp/isa/si_library.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/sim/trace.hpp"
#include "rispp/workload/generated.hpp"
#include "rispp/workload/graph_walk.hpp"
#include "rispp/workload/phased.hpp"

namespace rispp::workload {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Produces the workload. Deterministic: same source, same result.
  virtual std::vector<sim::TaskDef> tasks() const = 0;
  /// One-line human-readable description of where the traces come from.
  virtual std::string describe() const = 0;

  /// The uniform consumption path: adds every produced task to `sim`, in
  /// production order (task ids follow list positions).
  void add_to(sim::Simulator& sim) const;

  /// Wraps an already-built task list (hand-written scenarios).
  static std::unique_ptr<TraceSource> make_fixed(
      std::vector<sim::TaskDef> tasks, std::string label = "fixed");

  /// The Fig-6 scenario (make_fixed, label "fig06"): tasks A and B on the
  /// H.264 SIs, named in `lib`. A forecasts SATD_4x4 and runs it in 120
  /// bursts; B forecasts HT_2x2, later the more important HT_4x4, then
  /// releases HT_4x4 and runs HT_2x2 once more. Label ops mark the paper's
  /// T0–T3 points; they cost no cycles, so the event stream does not depend
  /// on them. bench/fig06_runtime_scenario, the fig06 goldens and the
  /// kernel and profiler benches all run this one definition.
  static std::unique_ptr<TraceSource> make_fig06(const isa::SiLibrary& lib);

  /// Parses the §2 trace text format; SI names resolve against `lib`.
  static std::unique_ptr<TraceSource> make_from_text(
      const std::string& text, std::shared_ptr<const isa::SiLibrary> lib);
  static std::unique_ptr<TraceSource> make_from_file(
      const std::string& path, std::shared_ptr<const isa::SiLibrary> lib);

  /// Markov-walks `g` under `plan` (single task named `task_name`). The
  /// graph and plan are copied in — the source owns everything it needs.
  /// When `stats` is non-null it is filled on every tasks() call.
  static std::unique_ptr<TraceSource> make_graph_walk(
      const cfg::BBGraph& g, const forecast::FcPlan& plan,
      std::shared_ptr<const isa::SiLibrary> lib, WalkParams params,
      WalkStats* stats = nullptr, std::string task_name = "walk");

  /// The phased generator. When `stats` is non-null it is filled on every
  /// tasks() call.
  static std::unique_ptr<TraceSource> make_phased(
      PhasedWorkload workload, PhasedStats* stats = nullptr);

  /// The library-derived workload for synthetic libraries: derives a phased
  /// config from `lib` itself (make_generated_config) and generates through
  /// the phased machinery — forecast-annotated, byte-deterministic in
  /// (lib, params). When `stats` is non-null it is filled on every tasks()
  /// call.
  static std::unique_ptr<TraceSource> make_generated(
      std::shared_ptr<const isa::SiLibrary> lib,
      const GeneratedWorkloadParams& params, PhasedStats* stats = nullptr);
};

}  // namespace rispp::workload
