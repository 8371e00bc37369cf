/// Cycle-attribution profiler: bucket math on hand-built streams, rotation
/// economics (queueing vs transfer, wasted rotations, occupancy timelines),
/// the upgrade staircase, the running totals behind the chrome exporter's
/// counter track, and the attribution invariant — per-task buckets sum
/// exactly to the run span — on the fig06 / fig11 / AES scenarios and under
/// seeded faults.

#include <gtest/gtest.h>

#include <algorithm>

#include "rispp/aes/graph.hpp"
#include "rispp/forecast/forecast_pass.hpp"
#include "rispp/hw/fault.hpp"
#include "rispp/obs/profiler.hpp"
#include "rispp/obs/report.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/error.hpp"
#include "rispp/workload/trace_source.hpp"

namespace {

using namespace rispp::obs;
using rispp::isa::borrow;

Event si_exec(std::uint64_t at, std::int32_t task, std::int64_t si,
              std::uint64_t cycles, bool hw) {
  return {.at = at, .kind = EventKind::SiExecuted, .task = task, .si = si,
          .cycles = cycles, .hardware = hw};
}

/// The tentpole invariant, re-checked from the outside: finalize() already
/// throws on violation, but assert the sums here so a silent change to the
/// check itself cannot pass.
void expect_attribution(const RunReport& r) {
  const auto span = r.span_cycles();
  BucketSet agg;
  for (const auto& t : r.tasks) {
    EXPECT_EQ(t.buckets.total(), span) << "task " << t.task << " (" << t.name
                                       << ") buckets do not sum to the span";
    agg.sw_exec += t.buckets.sw_exec;
    agg.hw_exec += t.buckets.hw_exec;
    agg.plain_compute += t.buckets.plain_compute;
    agg.rotation_stall += t.buckets.rotation_stall;
    agg.idle += t.buckets.idle;
  }
  EXPECT_EQ(agg, r.buckets);
  EXPECT_EQ(r.buckets.total(), span * r.tasks.size());
}

TEST(Profiler, EmptyAndInstantStreamsHaveZeroSpan) {
  // Regression (zero-span division): both degenerate streams must finalize
  // with utilization 0.0 rather than divide by span_cycles() == 0.
  const auto empty = Profiler::profile({}, {});
  EXPECT_EQ(empty.span_cycles(), 0u);
  EXPECT_DOUBLE_EQ(empty.port.utilization, 0.0);
  EXPECT_TRUE(empty.tasks.empty());

  const std::vector<Event> instant = {
      {.at = 42, .kind = EventKind::TaskSwitch, .task = 0}};
  const auto r = Profiler::profile(instant, {});
  EXPECT_EQ(r.span_cycles(), 0u);
  EXPECT_DOUBLE_EQ(r.port.utilization, 0.0);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_EQ(r.tasks[0].buckets.total(), 0u);
}

TEST(Profiler, BucketMathOnAlternatingSlices) {
  const std::vector<Event> events = {
      {.at = 0, .kind = EventKind::TaskSwitch, .task = 0},
      si_exec(100, 0, 0, 50, true),
      {.at = 1000, .kind = EventKind::TaskSwitch, .task = 1},
      si_exec(1200, 1, 0, 544, false),
      {.at = 2000, .kind = EventKind::TaskSwitch, .task = 0},
  };
  const auto r = Profiler::profile(events, {});
  EXPECT_EQ(r.span_cycles(), 2000u);
  ASSERT_EQ(r.tasks.size(), 2u);
  // Task 0 owned [0, 1000) and the empty final slice: 50 hw cycles, the
  // rest of its slices is plain compute, the other task's slice is idle.
  EXPECT_EQ(r.tasks[0].buckets,
            (BucketSet{0, 50, 950, 0, 1000}));
  // Task 1 owned [1000, 2000): one un-stalled SW execution (no rotation in
  // flight anywhere).
  EXPECT_EQ(r.tasks[1].buckets,
            (BucketSet{544, 0, 456, 0, 1000}));
  expect_attribution(r);
  EXPECT_EQ(r.counts.task_switches, 3u);

  // Sampled at the last switch (2000), the running totals hold both closed
  // slices as occupancy and no idle time: the core was never unowned.
  Profiler live;
  for (const auto& e : events) live.on_event(e);
  EXPECT_EQ(live.running_totals(), (BucketSet{544, 50, 1406, 0, 0}));
}

TEST(Profiler, UpgradeGapRunsFromTheLatestForecastToEachUpgrade) {
  const std::vector<Event> events = {
      {.at = 0, .kind = EventKind::ForecastSeen, .task = 0, .si = 0},
      {.at = 100, .kind = EventKind::ForecastSeen, .task = 0, .si = 0},
      // Upgrade 544 → 24: gap from the latest forecast (100).
      {.at = 400, .kind = EventKind::MoleculeUpgraded, .task = 0, .si = 0,
       .cycles = 24, .prev_cycles = 544, .hardware = true},
      // Atoms lost to another SI: a downgrade, no gap sample.
      {.at = 500, .kind = EventKind::MoleculeUpgraded, .task = 0, .si = 0,
       .cycles = 40, .prev_cycles = 24, .hardware = true},
      {.at = 900, .kind = EventKind::MoleculeUpgraded, .task = 0, .si = 0,
       .cycles = 20, .prev_cycles = 40, .hardware = true},
      // SI 1 was never forecast: its upgrade counts without a gap, and it
      // gets a report row although it never executed.
      {.at = 950, .kind = EventKind::MoleculeUpgraded, .task = 1, .si = 1,
       .cycles = 22, .prev_cycles = 298, .hardware = true},
  };
  const auto r = Profiler::profile(events, {});
  ASSERT_EQ(r.sis.size(), 2u);
  const auto& s0 = r.sis[0];
  EXPECT_EQ(s0.upgrades, 2u);
  EXPECT_EQ(s0.downgrades, 1u);
  ASSERT_EQ(s0.upgrade_gap.count, 2u);
  EXPECT_EQ(s0.upgrade_gap.min, 300u);
  EXPECT_EQ(s0.upgrade_gap.max, 800u);
  EXPECT_DOUBLE_EQ(s0.upgrade_gap.mean, 550.0);
  const auto& s1 = r.sis[1];
  EXPECT_EQ(s1.si, 1);
  EXPECT_EQ(s1.upgrades, 1u);
  EXPECT_EQ(s1.downgrades, 0u);
  EXPECT_EQ(s1.upgrade_gap.count, 0u);
  EXPECT_EQ(s1.all.count, 0u);
}

TEST(Profiler, OutOfRangeIdsAreRejectedNotAllocated) {
  // State is indexed by id: a corrupt stream must fail loudly instead of
  // growing a vector to its id.
  Profiler p;
  EXPECT_THROW(p.on_event(si_exec(0, 0, std::int64_t{1} << 40, 5, false)),
               rispp::util::PreconditionError);
  EXPECT_THROW(p.on_event(si_exec(0, -2, 0, 5, false)),
               rispp::util::PreconditionError);
  EXPECT_THROW(p.on_event({.at = 0, .kind = EventKind::AtomEvicted,
                           .container = -1, .atom = 0}),
               rispp::util::PreconditionError);
}

TEST(Profiler, StallRequiresAnInFlightRotationForTheSameSi) {
  const std::vector<Event> events = {
      // Booked at 5, transfer occupies the port over [10, 510).
      {.at = 10, .kind = EventKind::RotationStarted, .container = 1, .si = 0,
       .atom = 0, .cycles = 500, .prev_cycles = 5},
      si_exec(100, 0, 0, 544, false),  // inside the window → stall
      {.at = 510, .kind = EventKind::RotationFinished, .container = 1,
       .si = 0, .atom = 0, .cycles = 500, .prev_cycles = 5},
      si_exec(600, 0, 0, 544, false),  // after completion → plain SW
  };
  const auto r = Profiler::profile(events, {});
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_EQ(r.tasks[0].buckets.rotation_stall, 544u);
  EXPECT_EQ(r.tasks[0].buckets.sw_exec, 544u);
  expect_attribution(r);

  // Port economics: queueing is booking→start, transfer is the span.
  EXPECT_EQ(r.port.busy_cycles, 500u);
  ASSERT_EQ(r.port.queueing.count, 1u);
  EXPECT_EQ(r.port.queueing.min, 5u);
  ASSERT_EQ(r.port.transfer.count, 1u);
  EXPECT_EQ(r.port.transfer.min, 500u);
  EXPECT_EQ(r.counts.rotations, 1u);
}

TEST(Profiler, WastedRotationIsLoadedThenEvictedWithZeroUses) {
  const std::vector<Event> events = {
      {.at = 10, .kind = EventKind::RotationStarted, .container = 0, .si = 0,
       .atom = 0, .cycles = 100, .prev_cycles = 10},
      // Loaded at 110, never executed, given up at 300: wasted.
      {.at = 300, .kind = EventKind::AtomEvicted, .container = 0, .atom = 0},
      {.at = 400, .kind = EventKind::RotationStarted, .container = 0, .si = 1,
       .atom = 1, .cycles = 100, .prev_cycles = 400},
      // Loaded at 500, used once, still resident at stream end: not wasted
      // (the jury is still out when the trace ends).
      si_exec(600, 0, 1, 20, true),
  };
  const auto r = Profiler::profile(events, {});
  EXPECT_EQ(r.counts.wasted_rotations, 1u);
  EXPECT_EQ(r.counts.evictions, 1u);
  ASSERT_EQ(r.containers.size(), 1u);
  const auto& c = r.containers[0];
  EXPECT_EQ(c.rotations, 2u);
  EXPECT_EQ(c.wasted_rotations, 1u);
  ASSERT_EQ(c.occupancy.size(), 2u);
  EXPECT_EQ(c.occupancy[0].from, 110u);
  EXPECT_EQ(c.occupancy[0].to, 300u);
  EXPECT_EQ(c.occupancy[0].uses, 0u);
  EXPECT_EQ(c.occupancy[1].from, 500u);
  EXPECT_EQ(c.occupancy[1].to, 620u);  // stream end: SiExecuted span end
  EXPECT_EQ(c.occupancy[1].uses, 1u);
}

TEST(Profiler, CancelledBookingNeverTouchesThePort) {
  const std::vector<Event> events = {
      {.at = 50, .kind = EventKind::RotationStarted, .container = 1, .si = 0,
       .atom = 0, .cycles = 100, .prev_cycles = 0},
      // Tombstone arrives before the start cycle is reached (the manager's
      // guarantee): the booking dissolves without occupying the port.
      {.at = 10, .kind = EventKind::RotationCancelled, .container = 1,
       .atom = 0, .cycles = 100, .prev_cycles = 50},
  };
  const auto r = Profiler::profile(events, {});
  EXPECT_EQ(r.counts.rotations, 0u);
  EXPECT_EQ(r.counts.rotations_cancelled, 1u);
  EXPECT_EQ(r.port.busy_cycles, 0u);
  EXPECT_EQ(r.port.transfer.count, 0u);
  EXPECT_TRUE(r.containers.empty() || r.containers[0].occupancy.empty());
}

TEST(Profiler, FailedRotationOccupiesThePortButNeverBecomesResident) {
  const std::vector<Event> events = {
      {.at = 10, .kind = EventKind::RotationStarted, .container = 0, .si = 0,
       .atom = 0, .cycles = 100, .prev_cycles = 5},
      // The verdict is stamped at the booking's own completion cycle; the
      // profiler must not first promote the faulty transfer into residency.
      {.at = 110, .kind = EventKind::RotationFailed, .container = 0,
       .atom = 0, .cycles = 100, .prev_cycles = 10},
      {.at = 110, .kind = EventKind::AcQuarantined, .container = 0},
      si_exec(200, 0, 0, 544, false),
  };
  const auto r = Profiler::profile(events, {});
  EXPECT_EQ(r.counts.rotations, 0u);
  EXPECT_EQ(r.counts.rotations_failed, 1u);
  EXPECT_EQ(r.counts.acs_quarantined, 1u);
  EXPECT_EQ(r.port.busy_cycles, 100u);  // the port *was* occupied
  ASSERT_EQ(r.port.transfer.count, 1u);
  for (const auto& c : r.containers) EXPECT_TRUE(c.occupancy.empty());
  expect_attribution(r);
}

TEST(Profiler, ForecastLeadMeasuresSeenToFirstHardwareUse) {
  const std::vector<Event> events = {
      {.at = 0, .kind = EventKind::ForecastSeen, .task = 0, .si = 0},
      si_exec(100, 0, 0, 544, false),  // SW execution does not count
      si_exec(700, 0, 0, 24, true),    // first hardware use: lead = 700
      si_exec(900, 0, 0, 24, true),    // later uses do not re-sample
  };
  const auto r = Profiler::profile(events, {});
  ASSERT_EQ(r.sis.size(), 1u);
  ASSERT_EQ(r.sis[0].forecast_lead.count, 1u);
  EXPECT_EQ(r.sis[0].forecast_lead.min, 700u);
  EXPECT_EQ(r.sis[0].forecast_lead.max, 700u);
  EXPECT_EQ(r.sis[0].all.count, 3u);
  EXPECT_EQ(r.sis[0].hw.count, 2u);
  EXPECT_EQ(r.sis[0].sw.count, 1u);
}

TEST(ProfilerInvariant, Fig06Scenario) {
  const auto lib = rispp::isa::SiLibrary::h264();
  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = 6;
  cfg.quantum = 25000;
  const auto meta = make_trace_meta(lib, cfg, {"A", "B"});
  // Stream live through the profiler *and* record, so the replay path can
  // be checked against the streaming path below.
  TraceRecorder recorder;
  Profiler profiler(meta);
  TeeSink tee(&recorder, &profiler);
  cfg.rt.sink = &tee;
  rispp::sim::Simulator sim(borrow(lib), cfg);
  rispp::workload::TraceSource::make_fig06(lib)->add_to(sim);
  const auto result = sim.run();

  const auto r = profiler.finalize("fig06");
  expect_attribution(r);
  EXPECT_EQ(r.counts.rotations, result.rotations);
  EXPECT_GT(r.buckets.hw_exec, 0u);
  EXPECT_GT(r.buckets.rotation_stall, 0u);  // A's SW SATD during rotations

  // Streaming and replay are the same code path in different clothes: the
  // replayed report serializes to the same bytes.
  const auto replay = Profiler::profile(recorder.events(), meta, "fig06");
  EXPECT_EQ(write_report(replay), write_report(r));
}

TEST(ProfilerInvariant, Fig11UpgradeStaircase) {
  const auto lib = rispp::isa::SiLibrary::h264();
  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = 6;
  std::vector<std::string> task_names;
  Profiler profiler;  // default meta: indexed fallback names are fine here
  cfg.rt.sink = &profiler;
  rispp::sim::Simulator sim(borrow(lib), cfg);
  for (const auto& si : lib.sis()) {
    rispp::sim::Trace trace;
    trace.push_back(
        rispp::sim::TraceOp::forecast(lib.index_of(si.name()), 2000));
    for (int burst = 0; burst < 40; ++burst) {
      trace.push_back(rispp::sim::TraceOp::compute(20000));
      trace.push_back(rispp::sim::TraceOp::si(lib.index_of(si.name()), 50));
    }
    trace.push_back(
        rispp::sim::TraceOp::release(lib.index_of(si.name())));
    task_names.push_back(si.name());
    sim.add_task({si.name(), trace});
  }
  sim.run();
  const auto r = profiler.finalize("fig11");
  expect_attribution(r);
  EXPECT_EQ(r.tasks.size(), lib.size());
  EXPECT_EQ(r.sis.size(), lib.size());
  // Each SI was forecast and eventually reached hardware: a lead sample,
  // and every upgrade of the staircase after that forecast has a gap.
  for (const auto& si : r.sis) {
    EXPECT_EQ(si.forecast_lead.count, 1u);
    EXPECT_GT(si.upgrades, 0u);
    EXPECT_EQ(si.upgrade_gap.count, si.upgrades);
  }
}

TEST(ProfilerInvariant, AesGraphWalk) {
  const auto lib = rispp::aes::si_library();
  const auto g = rispp::aes::build_graph(/*blocks=*/500);
  rispp::forecast::ForecastConfig fcfg;
  fcfg.atom_containers = 6;
  fcfg.alpha = 0.05;
  const auto plan = rispp::forecast::run_forecast_pass(g, lib, fcfg);
  rispp::workload::WalkParams wp;
  wp.seed = 1;
  wp.emit_forecasts = true;
  const auto source = rispp::workload::TraceSource::make_graph_walk(
      g, plan, borrow(lib), wp, nullptr, "aes");

  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = 6;
  Profiler profiler(make_trace_meta(lib, cfg, {"aes"}));
  cfg.rt.sink = &profiler;
  rispp::sim::Simulator sim(borrow(lib), cfg);
  source->add_to(sim);
  sim.run();
  const auto r = profiler.finalize("aes");
  expect_attribution(r);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_EQ(r.tasks[0].name, "aes");
}

TEST(ProfilerInvariant, Fig06UnderSeededFaults) {
  // The fault_invariant_test configuration: every seed must yield a stream
  // whose failures/cancellations/quarantines the profiler attributes
  // without breaking the per-task sum — and whose failed transfers never
  // become occupancy segments.
  const auto lib = rispp::isa::SiLibrary::h264();
  std::uint64_t total_failed = 0;
  for (std::uint64_t seed : {3ull, 17ull, 4242ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    rispp::sim::SimConfig cfg;
    cfg.rt.atom_containers = 6;
    cfg.quantum = 25000;
    cfg.rt.faults = rispp::hw::FaultModel::probabilistic(seed, 0.2, 0.1, 0.1);
    cfg.rt.max_rotation_retries = 2;
    cfg.rt.retry_backoff_cycles = 2000;
    Profiler profiler(make_trace_meta(lib, cfg, {"A", "B"}));
    cfg.rt.sink = &profiler;
    rispp::sim::Simulator sim(borrow(lib), cfg);
    rispp::workload::TraceSource::make_fig06(lib)->add_to(sim);
    sim.run();
    const auto r = profiler.finalize("fig06-faults");
    expect_attribution(r);
    total_failed += r.counts.rotations_failed;
    // Occupancy timelines stay well-formed under retries and quarantine.
    for (const auto& c : r.containers) {
      std::uint64_t prev_to = 0;
      for (const auto& seg : c.occupancy) {
        EXPECT_LE(seg.from, seg.to) << "container " << c.container;
        EXPECT_GE(seg.from, prev_to) << "container " << c.container;
        prev_to = seg.to;
      }
    }
  }
  // 20% per-transfer failure across three seeded runs: the fault era was
  // actually exercised, not silently absent.
  EXPECT_GT(total_failed, 0u);
}

TEST(ProfilerInvariant, BucketSamplesAreMonotone) {
  // The chrome exporter's "cycle buckets" track: running_totals() sampled
  // after every task switch of the fig06 stream.
  const auto lib = rispp::isa::SiLibrary::h264();
  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = 6;
  cfg.quantum = 25000;
  TraceRecorder recorder;
  cfg.rt.sink = &recorder;
  rispp::sim::Simulator sim(borrow(lib), cfg);
  rispp::workload::TraceSource::make_fig06(lib)->add_to(sim);
  sim.run();

  struct Sample {
    std::uint64_t at = 0;
    BucketSet totals;
  };
  std::vector<Sample> samples;
  Profiler profiler(make_trace_meta(lib, cfg, {"A", "B"}));
  std::uint64_t first = ~std::uint64_t{0};
  for (const auto& e : recorder.events()) {
    profiler.on_event(e);
    first = std::min(first, e.at);
    if (e.kind != EventKind::TaskSwitch) continue;
    samples.push_back({e.at, profiler.running_totals()});
    // One core: at a switch every execution lies in a closed slice, so the
    // buckets partition the time elapsed since the stream began.
    EXPECT_EQ(samples.back().totals.total(), e.at - first) << "at " << e.at;
  }
  ASSERT_FALSE(samples.empty());
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].at, samples[i - 1].at);
    // Running totals only grow.
    EXPECT_GE(samples[i].totals.hw_exec, samples[i - 1].totals.hw_exec);
    EXPECT_GE(samples[i].totals.sw_exec, samples[i - 1].totals.sw_exec);
    EXPECT_GE(samples[i].totals.rotation_stall,
              samples[i - 1].totals.rotation_stall);
  }
}

}  // namespace
