/// AES end-to-end — the full platform loop on the Fig-3 application:
/// profiled BB graph → compile-time forecast pass (§4) → graph-driven
/// execution against the run-time system (§5) on the cycle simulator.
///
/// Compares (a) forecasts silenced (nothing ever rotates), (b) the paper's
/// Rep-based trimming, and (c) the minimal-Molecule trimming extension
/// (DESIGN.md §6): Rep averages over spatially unrolled Molecules, so it
/// can trim SIs whose minimal Molecules would coexist fine. Walk lengths
/// vary with the Markov seed, so results aggregate several walks. Also
/// emits the Fig-3 graph as Graphviz DOT with FC blocks highlighted.

#include <fstream>
#include <iostream>

#include "rispp/aes/graph.hpp"
#include "rispp/cfg/dot.hpp"
#include "rispp/forecast/forecast_pass.hpp"
#include "rispp/obs/profiler.hpp"
#include "rispp/obs/report.hpp"
#include "rispp/obs/trace_export.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/table.hpp"
#include "rispp/workload/trace_source.hpp"

namespace {

struct Aggregate {
  double cycles = 0;
  double hw_fraction = 0;
  std::uint64_t rotations = 0;
  std::uint64_t si_invocations = 0;
};

Aggregate run(const rispp::cfg::BBGraph& g, const rispp::forecast::FcPlan& plan,
              const rispp::isa::SiLibrary& lib, bool forecasts,
              unsigned containers) {
  Aggregate agg;
  std::uint64_t hw = 0, total = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    rispp::workload::WalkParams wp;
    wp.seed = seed;
    wp.emit_forecasts = forecasts;
    rispp::workload::WalkStats stats;
    const auto source = rispp::workload::TraceSource::make_graph_walk(
        g, plan, borrow(lib), wp, &stats, "aes");
    rispp::sim::SimConfig cfg;
    cfg.rt.atom_containers = containers;
    rispp::sim::Simulator sim(borrow(lib), cfg);
    source->add_to(sim);
    const auto r = sim.run();
    agg.cycles += static_cast<double>(r.total_cycles);
    agg.rotations += r.rotations;
    agg.si_invocations += stats.si_invocations;
    for (const auto& [name, st] : r.per_si) {
      hw += st.hw_invocations;
      total += st.invocations;
    }
  }
  agg.hw_fraction = total ? static_cast<double>(hw) / total : 0.0;
  return agg;
}

}  // namespace

int main(int argc, char** argv) try {
  using rispp::util::TextTable;
  const auto lib = rispp::aes::si_library();
  const auto g = rispp::aes::build_graph(/*blocks=*/2000);

  auto make_plan = [&](rispp::forecast::TrimMetric metric) {
    rispp::forecast::ForecastConfig fcfg;
    fcfg.atom_containers = 6;
    fcfg.alpha = 0.05;
    fcfg.trim_metric = metric;
    return rispp::forecast::run_forecast_pass(g, lib, fcfg);
  };
  const auto plan_rep = make_plan(rispp::forecast::TrimMetric::RepSup);
  const auto plan_min = make_plan(rispp::forecast::TrimMetric::MinimalSup);
  std::cout << "FC plan (Rep trimming, paper):     " << plan_rep.total_points()
            << " points\nFC plan (minimal-molecule trim):   "
            << plan_min.total_points() << " points\n\n";

  // DOT rendering of Fig 3 with FC blocks highlighted.
  rispp::cfg::DotOptions dot;
  dot.graph_name = "aes";
  dot.si_name = [&](std::size_t s) { return lib.at(s).name(); };
  for (const auto& fb : plan_min.blocks) dot.highlight.insert(fb.block);
  std::ofstream("fig03_aes_graph.dot") << rispp::cfg::to_dot(g, dot);

  TextTable t{"configuration", "cycles (5 walks)", "rotations", "HW fraction",
              "speed-up"};
  t.set_title("AES end-to-end at 6 atom containers");
  const auto base = run(g, plan_rep, lib, /*forecasts=*/false, 6);
  t.add_row({"FCs silenced (never rotates)",
             TextTable::grouped(static_cast<long long>(base.cycles)), "0",
             "0.0%", "1.00x"});
  const auto rep = run(g, plan_rep, lib, true, 6);
  t.add_row({"Rep-based trimming (paper)",
             TextTable::grouped(static_cast<long long>(rep.cycles)),
             std::to_string(rep.rotations),
             TextTable::num(rep.hw_fraction * 100, 1) + "%",
             TextTable::num(base.cycles / rep.cycles, 2) + "x"});
  const auto min = run(g, plan_min, lib, true, 6);
  t.add_row({"minimal-molecule trimming (ext.)",
             TextTable::grouped(static_cast<long long>(min.cycles)),
             std::to_string(min.rotations),
             TextTable::num(min.hw_fraction * 100, 1) + "%",
             TextTable::num(base.cycles / min.cycles, 2) + "x"});
  std::cout << t.str() << "\n";
  std::cout << "SI invocations across walks: " << rep.si_invocations
            << "\n(graph written to fig03_aes_graph.dot)\n";

  const auto trace_out = rispp::obs::trace_out_arg(argc, argv);
  const auto report_out = rispp::obs::report_out_arg(argc, argv);
  if (trace_out || report_out) {
    // One representative traced walk (seed 1, the paper's Rep trimming).
    rispp::workload::WalkParams wp;
    wp.seed = 1;
    wp.emit_forecasts = true;
    const auto source = rispp::workload::TraceSource::make_graph_walk(
        g, plan_rep, borrow(lib), wp, nullptr, "aes");
    rispp::obs::TraceRecorder recorder;
    rispp::sim::SimConfig cfg;
    cfg.rt.atom_containers = 6;
    cfg.rt.sink = &recorder;
    rispp::sim::Simulator sim(borrow(lib), cfg);
    source->add_to(sim);
    sim.run();
    const auto meta = make_trace_meta(lib, cfg, {"aes"});
    if (trace_out) {
      rispp::obs::write_trace_file(*trace_out, recorder.events(), meta);
      std::cout << "Trace (" << recorder.events().size() << " events, seed-1 "
                << "walk) written to " << *trace_out << "\n";
    }
    if (report_out) {
      rispp::obs::write_report_file(
          *report_out,
          rispp::obs::Profiler::profile(recorder.events(), meta, "aes"));
      std::cout << "Run report (seed-1 walk) written to " << *report_out
                << "\n";
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
