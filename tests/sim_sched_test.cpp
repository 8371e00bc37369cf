/// Scheduler-overhaul tests: the runnable-task ring and the cached wakeup
/// horizon must match the reference host's linear O(T) scan and polling at
/// every switch (tests/reference_host.hpp) at stress scale, TaskSwitch
/// events must only appear for quanta that consume cycles, and the batched
/// emission path must hold up across concurrent simulators (run under TSan
/// via the `concurrency` label).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "rispp/obs/event.hpp"
#include "rispp/sim/simulator.hpp"
#include "reference_host.hpp"

namespace {

using namespace rispp::sim;
using rispp::isa::SiLibrary;
using rispp::obs::Event;
using rispp::obs::EventKind;
using rispp::obs::TraceRecorder;

/// Mixed stress workload: `count` tasks, every fourth a short early
/// finisher, every seventh pure bookkeeping (forecast + label only), the
/// rest forecast→execute→release loops — a ragged done/runnable mix that
/// exercises ring unlinking at scale.
std::vector<TaskDef> stress_tasks(const SiLibrary& lib, int count) {
  const auto satd = lib.index_of("SATD_4x4");
  const auto dct = lib.index_of("DCT_4x4");
  std::vector<TaskDef> tasks;
  for (int t = 0; t < count; ++t) {
    Trace tr;
    if (t % 7 == 0) {
      tr.push_back(TraceOp::forecast(t % 2 ? satd : dct, 50));
      tr.push_back(TraceOp::label("bookkeeping-only task"));
    } else if (t % 4 == 0) {
      tr.push_back(TraceOp::compute(500));
    } else {
      tr.push_back(TraceOp::forecast(t % 2 ? satd : dct, 200));
      for (int i = 0; i < 5; ++i) {
        tr.push_back(TraceOp::compute(2000));
        tr.push_back(TraceOp::si(t % 2 ? satd : dct, 4));
      }
      tr.push_back(TraceOp::release(t % 2 ? satd : dct));
    }
    std::string name = "t";
    name += std::to_string(t);
    tasks.push_back({std::move(name), std::move(tr)});
  }
  return tasks;
}

void add_stress_tasks(Simulator& sim, const SiLibrary& lib, int count) {
  for (auto& task : stress_tasks(lib, count)) sim.add_task(std::move(task));
}

SimConfig stress_config() {
  SimConfig cfg;
  cfg.rt.atom_containers = 6;
  cfg.quantum = 3000;
  return cfg;
}

TEST(SchedulerDifferential, RingMatchesReferenceHostAt512Tasks) {
  const auto lib = SiLibrary::h264();
  reference_host::expect_same_run(borrow(lib), stress_config(),
                                  stress_tasks(lib, 512));
}

TEST(SchedulerDifferential, FastKernelMatchesSeedEquivalentDriving) {
  // Full fast path (ring + wakeup-horizon cache) against the full
  // seed-equivalent path (the reference host's linear scan and
  // poll-every-switch): identical behaviour, not just identical totals.
  const auto lib = SiLibrary::h264();
  reference_host::expect_same_run(borrow(lib), stress_config(),
                                  stress_tasks(lib, 96));
}

TEST(SchedulerDifferential, RerunAfterCompletionIsANoop) {
  // A second run() starts with every task finished: the ring is built
  // empty and the result must be the settled state, not a crash or replay.
  const auto lib = SiLibrary::h264();
  SimConfig cfg;
  cfg.rt.atom_containers = 4;
  Simulator sim(borrow(lib), cfg);
  add_stress_tasks(sim, lib, 8);
  const auto first = sim.run();
  const auto second = sim.run();
  EXPECT_EQ(second.total_cycles, first.total_cycles);
  EXPECT_EQ(second.task_cycles, first.task_cycles);
}

TEST(TaskSwitchSuppression, ZeroWorkQuantaEmitNoSwitch) {
  const auto lib = SiLibrary::h264();
  const auto satd = lib.index_of("SATD_4x4");

  TraceRecorder recorder;
  SimConfig cfg;
  cfg.rt.atom_containers = 4;
  cfg.rt.sink = &recorder;
  Simulator sim(borrow(lib), cfg);

  Trace busy;  // task 0: three quanta of real work
  busy.push_back(TraceOp::compute(30000));
  Trace meta;  // task 1: pure bookkeeping, consumes zero cycles
  meta.push_back(TraceOp::forecast(satd, 100));
  meta.push_back(TraceOp::label("zero-work quantum"));
  meta.push_back(TraceOp::release(satd));
  sim.add_task({"busy", std::move(busy)});
  sim.add_task({"meta", std::move(meta)});
  const auto result = sim.run();

  // The seed recorded TaskSwitch(busy) → TaskSwitch(meta) → TaskSwitch(busy)
  // with a zero-length meta interval in the middle. Suppressed, the stream
  // reads as busy running straight through: exactly one switch, and no
  // switch ever points at the zero-work task.
  std::vector<Event> switches;
  for (const auto& e : recorder.events())
    if (e.kind == EventKind::TaskSwitch) switches.push_back(e);
  ASSERT_EQ(switches.size(), 1u);
  EXPECT_EQ(switches[0].task, 0);
  EXPECT_EQ(switches[0].at, 0u);

  // The bookkeeping itself still happened and still carries its task id.
  bool saw_forecast = false;
  for (const auto& e : recorder.events())
    if (e.kind == EventKind::ForecastSeen && e.task == 1) saw_forecast = true;
  EXPECT_TRUE(saw_forecast);
  ASSERT_EQ(result.task_cycles.size(), 2u);
  EXPECT_EQ(result.task_cycles[0], 30000u);  // busy
  EXPECT_EQ(result.task_cycles[1], 0u);      // meta
}

TEST(TaskSwitchSuppression, MidTraceZeroWorkTailIsSuppressed) {
  // A task whose *remaining* trace degenerates to bookkeeping stops
  // receiving switches from that point on, while its earlier worked quanta
  // still get them.
  const auto lib = SiLibrary::h264();
  const auto satd = lib.index_of("SATD_4x4");

  TraceRecorder recorder;
  SimConfig cfg;
  cfg.rt.atom_containers = 4;
  cfg.quantum = 1000;
  cfg.rt.sink = &recorder;
  Simulator sim(borrow(lib), cfg);

  Trace a;  // works for two quanta, then only a release remains
  a.push_back(TraceOp::compute(1500));
  a.push_back(TraceOp::release(satd));
  Trace b;
  b.push_back(TraceOp::compute(4000));
  sim.add_task({"a", std::move(a)});
  sim.add_task({"b", std::move(b)});
  (void)sim.run();

  // a@0 (work), b@1000, a@... (work: 500 cycles + release), b@...; after a
  // finishes, b runs alone — and a's final visit had work (the compute
  // tail), so it was announced. Count switches per task and assert no
  // zero-length interval: consecutive switches never share a timestamp.
  const auto& events = recorder.events();
  std::vector<Event> switches;
  for (const auto& e : events)
    if (e.kind == EventKind::TaskSwitch) switches.push_back(e);
  ASSERT_GE(switches.size(), 3u);
  for (std::size_t i = 1; i < switches.size(); ++i)
    EXPECT_LT(switches[i - 1].at, switches[i].at)
        << "zero-length task-switch interval leaked through at index " << i;
}

TEST(BatchedEmission, ConcurrentSimulatorsProduceIdenticalStreams) {
  // The sweep-engine shape: many simulators on their own threads, sharing
  // one immutable library snapshot, each with a private recorder fed
  // through the manager's EventBatch. TSan (ctest -L concurrency) checks
  // the batching layer introduced no shared mutable state; the equality
  // assertion checks batching stayed deterministic under contention.
  const auto lib = share(SiLibrary::h264());
  constexpr int kThreads = 8;
  std::vector<TraceRecorder> recorders(kThreads);
  std::vector<SimResult> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&, i] {
        auto cfg = stress_config();
        cfg.rt.sink = &recorders[i];
        Simulator sim(lib, cfg);
        add_stress_tasks(sim, *lib, 48);
        results[i] = sim.run();
      });
    for (auto& t : threads) t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[i].total_cycles, results[0].total_cycles);
    EXPECT_TRUE(recorders[i].events() == recorders[0].events())
        << "thread " << i << " saw a different event stream";
  }
  EXPECT_FALSE(recorders[0].events().empty());
}

}  // namespace
