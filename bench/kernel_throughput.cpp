/// Kernel-throughput headline — simulated cycles per wall-clock second.
///
/// ROADMAP item 2's metric: how fast does the simulator kernel itself run?
/// The bench replays the Fig-6 two-task scenario (the same workload every
/// golden trace and the profiler bench use) plus a many-task contention
/// scenario, and reports simulated cycles / second, best-of-N so scheduler
/// noise on a shared host is filtered out. Results go to stdout and
/// BENCH_kernel.json; CI runs a small-rep smoke so the number stays wired.
///
/// Configurations measured per scenario:
///   * fast    — the default kernel (runnable-ring scheduler, cached wakeup
///               horizon, devirtualized policy dispatch, batched emission),
///   * legacy  — the seed-equivalent driving (linear O(T) task scan +
///               poll-every-switch), kept as a measurement mode,
///   * sink    — the fast kernel with a null EventSink attached (the
///               batched-emission path under load).
///
/// The fig06 result must stay behaviour-identical to the goldens: the bench
/// cross-checks total cycles and rotation counts between the fast and
/// legacy kernels and fails loudly on any mismatch, so the throughput
/// headline can never silently buy speed with changed behaviour.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "rispp/bench/meta_block.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/table.hpp"
#include "rispp/workload/trace_source.hpp"

namespace {

using namespace rispp::sim;

struct NullSink final : rispp::obs::EventSink {
  void on_event(const rispp::obs::Event&) override {}
};

/// Many-task contention: `tasks` round-robin tasks, every fourth one a
/// short early finisher so the scheduler keeps running over a mixed
/// done/runnable task vector — the shape that exposes an O(T) task scan.
void add_many_tasks(Simulator& sim, const rispp::isa::SiLibrary& lib,
                    int tasks) {
  const auto satd = lib.index_of("SATD_4x4");
  const auto dct = lib.index_of("DCT_4x4");
  for (int t = 0; t < tasks; ++t) {
    Trace tr;
    if (t % 4 == 0) {
      tr.push_back(TraceOp::compute(500));
    } else {
      tr.push_back(TraceOp::forecast(t % 2 ? satd : dct, 200));
      for (int i = 0; i < 6; ++i) {
        tr.push_back(TraceOp::compute(2000));
        tr.push_back(TraceOp::si(t % 2 ? satd : dct, 5));
      }
      tr.push_back(TraceOp::release(t % 2 ? satd : dct));
    }
    sim.add_task({"t" + std::to_string(t), std::move(tr)});
  }
}

enum class Scenario { Fig06, ManyTask };

struct Measurement {
  std::uint64_t sim_cycles = 0;
  std::uint64_t rotations = 0;
  double best_ms = 1e300;
  double cps = 0;  ///< simulated cycles per wall-clock second
};

Measurement measure(const rispp::isa::SiLibrary& lib, Scenario scenario,
                    int tasks, int reps, bool legacy,
                    rispp::obs::EventSink* sink) {
  Measurement m;
  for (int i = 0; i < reps; ++i) {
    SimConfig cfg;
    cfg.rt.atom_containers = 6;
    cfg.quantum = 25000;
    cfg.rt.sink = sink;
    if (legacy) {
      cfg.driving = Driving::PollEverySwitch;
      cfg.scheduler = Scheduler::LinearScan;
    }
    Simulator sim(borrow(lib), cfg);
    if (scenario == Scenario::Fig06)
      rispp::workload::TraceSource::make_fig06(lib)->add_to(sim);
    else
      add_many_tasks(sim, lib, tasks);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = sim.run();
    const auto t1 = std::chrono::steady_clock::now();
    const auto ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    m.best_ms = std::min(m.best_ms, ms);
    m.sim_cycles = r.total_cycles;
    m.rotations = r.rotations;
  }
  m.cps = m.best_ms > 0
              ? static_cast<double>(m.sim_cycles) / (m.best_ms / 1000.0)
              : 0;
  return m;
}

}  // namespace

int main(int argc, char** argv) try {
  using rispp::util::TextTable;

  const char* out_path = "BENCH_kernel.json";
  int reps = 40;
  int many = 512;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = argv[i] + 6;
    if (arg.rfind("--reps=", 0) == 0) reps = std::stoi(arg.substr(7));
    if (arg.rfind("--tasks=", 0) == 0) many = std::stoi(arg.substr(8));
  }

  const auto lib = rispp::isa::SiLibrary::h264();
  NullSink null_sink;

  const auto fig06 = measure(lib, Scenario::Fig06, 0, reps, false, nullptr);
  const auto fig06_legacy =
      measure(lib, Scenario::Fig06, 0, reps, true, nullptr);
  const auto fig06_sink =
      measure(lib, Scenario::Fig06, 0, reps, false, &null_sink);
  const auto mt = measure(lib, Scenario::ManyTask, many, reps, false, nullptr);
  const auto mt_legacy =
      measure(lib, Scenario::ManyTask, many, reps, true, nullptr);

  // The throughput headline is only honest while both kernels simulate the
  // exact same platform: identical cycle counts and rotation counts.
  if (fig06.sim_cycles != fig06_legacy.sim_cycles ||
      fig06.rotations != fig06_legacy.rotations ||
      mt.sim_cycles != mt_legacy.sim_cycles ||
      mt.rotations != mt_legacy.rotations) {
    std::cerr << "error: fast and legacy kernels diverged (cycles/rotations "
                 "mismatch) — throughput numbers would be meaningless\n";
    return 1;
  }

  TextTable t{"scenario", "kernel", "sim cycles", "best wall [ms]",
              "Mcycles/s"};
  t.set_title("Kernel throughput (best of " + std::to_string(reps) +
              " runs)");
  const auto row = [&](const char* sc, const char* k, const Measurement& m) {
    t.add_row({sc, k, TextTable::grouped(static_cast<long long>(m.sim_cycles)),
               TextTable::num(m.best_ms, 3), TextTable::num(m.cps / 1e6, 1)});
  };
  row("fig06", "fast", fig06);
  row("fig06", "legacy", fig06_legacy);
  row("fig06", "fast+sink", fig06_sink);
  row(("many-task (" + std::to_string(many) + ")").c_str(), "fast", mt);
  row(("many-task (" + std::to_string(many) + ")").c_str(), "legacy",
      mt_legacy);
  std::cout << t.str();
  std::cout << "fig06 speedup (fast vs legacy driving): "
            << TextTable::num(fig06.cps / fig06_legacy.cps, 2) << "x\n";

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"meta\": " << rispp::bench::meta_block("kernel_throughput")
       << ",\n"
       << "  \"scenario\": \"fig06\",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"fig06_sim_cycles\": " << fig06.sim_cycles << ",\n"
       << "  \"fig06_rotations\": " << fig06.rotations << ",\n"
       << "  \"fig06_cps\": " << fig06.cps << ",\n"
       << "  \"fig06_legacy_cps\": " << fig06_legacy.cps << ",\n"
       << "  \"fig06_sink_cps\": " << fig06_sink.cps << ",\n"
       << "  \"many_task_count\": " << many << ",\n"
       << "  \"many_task_sim_cycles\": " << mt.sim_cycles << ",\n"
       << "  \"many_task_cps\": " << mt.cps << ",\n"
       << "  \"many_task_legacy_cps\": " << mt_legacy.cps << "\n"
       << "}\n";
  std::cout << "Wrote " << out_path << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
