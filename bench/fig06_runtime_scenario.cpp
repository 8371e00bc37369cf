/// Fig 6 — "Scenario of the H.264 showing the run-time architecture
/// capabilities".
///
/// Two quasi-parallel tasks share six Atom Containers:
///   T0  steady state — Task A's SATD_4x4 runs on its Molecule; Task B's
///       SI0 (HT_2x2 here) executes on the shared Transform atom.
///   T1  Task B forecasts the more important SI1 (HT_4x4) — reallocation:
///       containers rotate to HT's wide Molecule, Task A falls back to the
///       software Molecule.
///   T2  SI1 is forecasted to be no longer needed — release triggers
///       re-rotation towards SATD_4x4.
///   T3  Task B's SI0 still executes in hardware on containers that now
///       'belong' to Task A (the Transform atom is shared).
///   T4  a container completes — SATD_4x4 switches from SW to its minimal
///       hardware Molecule.
///   T5  another container completes — SATD_4x4 upgrades to a faster
///       Molecule.
///
/// The bench prints the simulator timeline and a condensed view of the
/// manager's obs::Event stream.

#include <iostream>
#include <map>

#include "rispp/obs/profiler.hpp"
#include "rispp/obs/report.hpp"
#include "rispp/obs/trace_export.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/table.hpp"
#include "rispp/workload/trace_source.hpp"

int main(int argc, char** argv) try {
  using namespace rispp::sim;
  using rispp::util::TextTable;

  const auto lib = rispp::isa::SiLibrary::h264();
  const auto trace_out = rispp::obs::trace_out_arg(argc, argv);
  const auto report_out = rispp::obs::report_out_arg(argc, argv);
  SimConfig cfg;
  cfg.rt.atom_containers = 6;
  cfg.quantum = 25000;
  const auto meta = make_trace_meta(lib, cfg, {"A", "B"});
  // The recorder keeps the stream for the condensed trace below and the
  // trace file; the profiler streams the run report only when asked for.
  rispp::obs::TraceRecorder recorder;
  rispp::obs::Profiler profiler(meta);
  rispp::obs::TeeSink tee(&recorder, report_out ? &profiler : nullptr);
  cfg.rt.sink = &tee;
  Simulator sim(borrow(lib), cfg);
  rispp::workload::TraceSource::make_fig06(lib)->add_to(sim);
  const auto r = sim.run();

  TextTable timeline{"cycle", "task", "event"};
  timeline.set_title("Fig 6: scenario timeline markers");
  for (const auto& e : r.timeline)
    timeline.add_row({TextTable::grouped(static_cast<long long>(e.at)), e.task,
                      e.text});
  std::cout << timeline.str() << "\n";

  // Condensed manager trace: forecasts, releases, each rotation's start and
  // finish, and the first execution after each latency change (the
  // SW→HW→faster-HW upgrades of T4/T5). A rotation row's cycle is its
  // transfer window's start or end, "cycles" the transfer time and
  // "booked" the cycle the manager scheduled it at.
  using rispp::obs::EventKind;
  TextTable events{"cycle", "event", "SI",     "atom",
                   "AC",    "task",  "cycles", "booked"};
  events.set_title("Run-time manager event trace (condensed)");
  const auto label = [](std::int64_t index, const std::string& name) {
    return index >= 0 ? name : std::string("-");
  };
  std::map<std::int64_t, std::uint64_t> last_cycles;  // latency by SI
  for (const auto& e : recorder.events()) {
    std::string kind = rispp::obs::to_string(e.kind);
    bool rotation = false;
    switch (e.kind) {
      case EventKind::SiExecuted: {
        // Only print executions whose latency changed — the upgrade points.
        auto& last = last_cycles[e.si];
        if (last == e.cycles) continue;
        last = e.cycles;
        kind += e.hardware ? " (hw)" : " (sw)";
        break;
      }
      case EventKind::RotationStarted:
      case EventKind::RotationFinished:
        rotation = true;
        break;
      case EventKind::ForecastSeen:
      case EventKind::ForecastReleased:
        break;
      default:
        continue;
    }
    events.add_row({
        TextTable::grouped(static_cast<long long>(e.at)),
        kind,
        label(e.si, meta.si_name(e.si)),
        label(e.atom, meta.atom_name(e.atom)),
        label(e.container, std::to_string(e.container)),
        label(e.task, meta.task_name(e.task)),
        e.cycles ? std::to_string(e.cycles) : "-",
        rotation ? TextTable::grouped(static_cast<long long>(e.prev_cycles))
                 : "-",
    });
  }
  std::cout << events.str() << "\n";

  TextTable stats{"SI", "invocations", "hw", "sw"};
  stats.set_title("Execution mix");
  for (const auto& [name, st] : r.per_si)
    stats.add_row({name, std::to_string(st.invocations),
                   std::to_string(st.hw_invocations),
                   std::to_string(st.sw_invocations)});
  std::cout << stats.str();
  std::cout << "Rotations performed: " << r.rotations << "\n";

  if (trace_out) {
    rispp::obs::write_trace_file(*trace_out, recorder.events(), meta);
    std::cout << "Trace (" << recorder.events().size() << " events) written to "
              << *trace_out
              << " — open .json output in chrome://tracing or Perfetto,\n"
                 "or profile .csv output with tools/rispp_report.\n";
  }
  if (report_out) {
    rispp::obs::write_report_file(*report_out, profiler.finalize("fig06"));
    std::cout << "Run report written to " << *report_out
              << " — render or diff it with tools/rispp_report.\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
