/// Microbenchmark — streaming-profiler overhead on the Fig-6 scenario.
///
/// The observability contract is that instrumentation stays within the
/// < 2 % tracing budget. This bench replays the fig06 two-task scenario
/// three ways — no sink at all, a null sink (the cost of event *emission*),
/// and a live obs::Profiler (emission + cycle attribution) — and reports
/// the wall-clock deltas. The profiler's marginal cost over the null sink
/// is the number the budget constrains. Results go to stdout and
/// BENCH_profiler.json.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>

#include "rispp/bench/meta_block.hpp"
#include "rispp/obs/profiler.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/parse.hpp"
#include "rispp/util/table.hpp"
#include "rispp/workload/trace_source.hpp"

namespace {

struct NullSink final : rispp::obs::EventSink {
  void on_event(const rispp::obs::Event&) override {}
};

/// Wall time of one full fig06 run with the given sink (nullptr = events
/// disabled entirely).
double run_ms(const rispp::isa::SiLibrary& lib, rispp::obs::EventSink* sink) {
  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = 6;
  cfg.quantum = 25000;
  cfg.rt.sink = sink;
  rispp::sim::Simulator sim(borrow(lib), cfg);
  rispp::workload::TraceSource::make_fig06(lib)->add_to(sim);
  const auto t0 = std::chrono::steady_clock::now();
  (void)sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) try {
  using rispp::util::TextTable;

  const char* out_path = "BENCH_profiler.json";
  int reps = 60;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = argv[i] + 6;
    if (arg.rfind("--reps=", 0) == 0)
      reps = rispp::util::require_number<int>(arg.substr(7), "--reps");
  }

  const auto lib = rispp::isa::SiLibrary::h264();
  NullSink null_sink;
  rispp::sim::SimConfig meta_cfg;
  meta_cfg.rt.atom_containers = 6;
  const auto meta = make_trace_meta(lib, meta_cfg, {"A", "B"});

  // Interleave the three configurations inside each repetition and keep the
  // per-configuration minimum: on a shared machine a load spike then hits
  // all three equally instead of biasing whichever block it lands in, and
  // best-of-N filters the remaining scheduler noise. The profiler is
  // stateful, so each repetition streams into a fresh one and finalize()
  // sees exactly one run.
  double bare = 1e300, null_ms = 1e300, prof_ms = 1e300;
  std::optional<rispp::obs::Profiler> profiler;
  for (int i = 0; i < reps; ++i) {
    bare = std::min(bare, run_ms(lib, nullptr));
    null_ms = std::min(null_ms, run_ms(lib, &null_sink));
    prof_ms = std::min(prof_ms, run_ms(lib, &profiler.emplace(meta)));
  }
  const auto report = profiler->finalize("fig06");

  const auto pct = [](double x, double base) {
    return base > 0 ? (x - base) / base * 100.0 : 0.0;
  };
  const double emission_pct = pct(null_ms, bare);
  const double profiler_pct = pct(prof_ms, null_ms);

  TextTable t{"configuration", "best wall [ms]", "overhead"};
  t.set_title("Profiler overhead on fig06 (best of " + std::to_string(reps) +
              " runs)");
  t.add_row({"no sink", TextTable::num(bare, 3), "-"});
  t.add_row({"null sink (emission only)", TextTable::num(null_ms, 3),
             TextTable::num(emission_pct, 2) + "% vs no sink"});
  t.add_row({"obs::Profiler (attribution)", TextTable::num(prof_ms, 3),
             TextTable::num(profiler_pct, 2) + "% vs null sink"});
  std::cout << t.str();
  std::cout << "Events profiled per run: " << report.counts.events
            << "; tracing budget: < 2% marginal cost for the profiler over "
               "the null sink.\n";

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"meta\": " << rispp::bench::meta_block("profiler_overhead")
       << ",\n"
       << "  \"scenario\": \"fig06\",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"events_per_run\": " << report.counts.events << ",\n"
       << "  \"no_sink_ms\": " << bare << ",\n"
       << "  \"null_sink_ms\": " << null_ms << ",\n"
       << "  \"profiler_ms\": " << prof_ms << ",\n"
       << "  \"emission_overhead_pct\": " << emission_pct << ",\n"
       << "  \"profiler_overhead_pct\": " << profiler_pct << ",\n"
       << "  \"budget_pct\": 2.0\n"
       << "}\n";
  std::cout << "Wrote " << out_path << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
