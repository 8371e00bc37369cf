/// Observability layer: event sinks, exporters (golden
/// Chrome-trace file, CSV round-trip), the profiler's stream counts and
/// upgrade staircase, and end-to-end instrumentation of the simulator +
/// run-time manager.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rispp/obs/chrome_trace.hpp"
#include "rispp/obs/csv_trace.hpp"
#include "rispp/obs/json.hpp"
#include "rispp/obs/profiler.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/error.hpp"

namespace {

using namespace rispp::obs;
using rispp::util::PreconditionError;

Event si_exec(std::uint64_t at, std::int32_t task, std::int64_t si,
              std::uint64_t cycles, bool hw) {
  return {.at = at, .kind = EventKind::SiExecuted, .task = task, .si = si,
          .cycles = cycles, .hardware = hw};
}

TraceMeta tiny_meta() {
  TraceMeta meta;
  meta.clock_mhz = 100.0;
  meta.containers = 2;
  meta.task_names = {"A"};
  meta.si_names = {"SATD"};
  meta.atom_names = {"Transform"};
  return meta;
}

std::vector<Event> tiny_stream() {
  return {
      {.at = 0, .kind = EventKind::TaskSwitch, .task = 0},
      {.at = 0, .kind = EventKind::ForecastSeen, .task = 0, .si = 0},
      {.at = 10, .kind = EventKind::AtomEvicted, .task = 0, .container = 1,
       .atom = 0},
      {.at = 10, .kind = EventKind::RotationStarted, .task = 0, .container = 1,
       .si = 0, .atom = 0, .cycles = 500},
      {.at = 510, .kind = EventKind::RotationFinished, .task = 0,
       .container = 1, .si = 0, .atom = 0, .cycles = 500},
      si_exec(100, 0, 0, 544, false),
      si_exec(700, 0, 0, 24, true),
      {.at = 700, .kind = EventKind::MoleculeUpgraded, .task = 0, .si = 0,
       .cycles = 24, .prev_cycles = 544, .hardware = true},
  };
}

TEST(EventKindNames, RoundTrip) {
  for (const auto k :
       {EventKind::SiExecuted, EventKind::ForecastSeen,
        EventKind::ForecastReleased, EventKind::RotationStarted,
        EventKind::RotationFinished, EventKind::RotationCancelled,
        EventKind::MoleculeUpgraded, EventKind::TaskSwitch,
        EventKind::AtomEvicted}) {
    EventKind back{};
    ASSERT_TRUE(kind_from_string(to_string(k), back)) << to_string(k);
    EXPECT_EQ(back, k);
  }
  EventKind back{};
  EXPECT_FALSE(kind_from_string("frobnicated", back));
}

TEST(TraceMetaNames, FallBackToIndexed) {
  const auto meta = tiny_meta();
  EXPECT_EQ(meta.si_name(0), "SATD");
  EXPECT_EQ(meta.si_name(7), "si#7");
  EXPECT_EQ(meta.task_name(3), "task#3");
  EXPECT_EQ(meta.atom_name(-1), "atom#-1");
}

TEST(CsvTrace, RoundTripsEventsAndNames) {
  const auto events = tiny_stream();
  std::ostringstream os;
  write_csv_trace(os, events, tiny_meta());

  std::istringstream is(os.str());
  TraceMeta learned;
  const auto back = read_csv_trace(is, &learned);
  ASSERT_EQ(back.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(back[i], events[i]) << "event " << i;
  ASSERT_EQ(learned.task_names.size(), 1u);
  EXPECT_EQ(learned.task_names[0], "A");
  EXPECT_EQ(learned.si_names[0], "SATD");
  EXPECT_EQ(learned.atom_names[0], "Transform");
}

TEST(CsvTrace, RejectsMalformedInput) {
  const auto expect_rejected = [](const std::string& text) {
    std::istringstream is(text);
    EXPECT_THROW(read_csv_trace(is), PreconditionError) << text;
  };
  expect_rejected("not a header\n");
  const std::string header =
      "at,kind,task,container,si,atom,cycles,prev_cycles,hw,task_name,"
      "si_name,atom_name\n";
  expect_rejected(header + "1,task-switch,0,-1\n");            // short row
  expect_rejected(header + "1,warp-core,0,-1,-1,-1,0,0,0,,\n"); // bad kind
  expect_rejected(header + "x,task-switch,0,-1,-1,-1,0,0,0,,,\n");  // bad num
  expect_rejected(header + "-1,task-switch,0,-1,-1,-1,0,0,0,,,\n"); // neg at
}

TEST(ChromeTrace, GoldenFile) {
  // Pin the exact exporter output for a stream holding one event of every
  // kind: track metadata, microsecond conversion (64 MHz → cycles/64, so
  // cycle 1 needs all six decimals), span and instant shapes, a cancelled
  // booking (no span, queue counter only), a failed transfer and the
  // quarantine it caused, escaping of a task name with every character
  // class JSON must escape, and the appended counter tracks (port
  // busy/queue, cycle buckets).
  auto meta = tiny_meta();
  meta.clock_mhz = 64.0;
  meta.task_names = {"A", "B\"\\\n\t\x01"};
  const std::vector<Event> events = {
      {.at = 0, .kind = EventKind::TaskSwitch, .task = 0},
      {.at = 0, .kind = EventKind::ForecastSeen, .task = 0, .si = 0},
      {.at = 1, .kind = EventKind::AtomEvicted, .task = 0, .container = 1,
       .atom = 0},
      {.at = 1, .kind = EventKind::RotationStarted, .task = 0, .container = 1,
       .si = 0, .atom = 0, .cycles = 500},
      {.at = 501, .kind = EventKind::RotationFinished, .task = 0,
       .container = 1, .si = 0, .atom = 0, .cycles = 500},
      si_exec(100, 0, 0, 544, false),
      {.at = 700, .kind = EventKind::MoleculeUpgraded, .task = 0, .si = 0,
       .cycles = 24, .prev_cycles = 544, .hardware = true},
      si_exec(700, 0, 0, 24, true),
      {.at = 800, .kind = EventKind::TaskSwitch, .task = 1},
      {.at = 1000, .kind = EventKind::RotationStarted, .task = 1,
       .container = 0, .si = 0, .atom = 0, .cycles = 500,
       .prev_cycles = 900},
      {.at = 950, .kind = EventKind::RotationCancelled, .task = 1,
       .container = 0, .atom = 0, .cycles = 500, .prev_cycles = 1000},
      {.at = 1200, .kind = EventKind::RotationStarted, .task = 1,
       .container = 1, .si = 0, .atom = 0, .cycles = 500,
       .prev_cycles = 1100},
      {.at = 1700, .kind = EventKind::RotationFailed, .task = 1,
       .container = 1, .atom = 0, .cycles = 500, .prev_cycles = 1200},
      {.at = 1700, .kind = EventKind::AcQuarantined, .container = 1},
      {.at = 1800, .kind = EventKind::ForecastReleased, .task = 1, .si = 0},
      {.at = 2000, .kind = EventKind::TaskSwitch, .task = 0},
  };
  std::ostringstream os;
  write_chrome_trace(os, events, meta);
  const std::string expected = R"({"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"rispp"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"scheduler"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":0,"args":{"sort_index":0}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"task A"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":1,"args":{"sort_index":1}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"task B\"\\\n\t\u0001"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":2,"args":{"sort_index":2}},
{"name":"thread_name","ph":"M","pid":1,"tid":50,"args":{"name":"SelectMap port"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":50,"args":{"sort_index":50}},
{"name":"thread_name","ph":"M","pid":1,"tid":100,"args":{"name":"AC 0"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":100,"args":{"sort_index":100}},
{"name":"thread_name","ph":"M","pid":1,"tid":101,"args":{"name":"AC 1"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":101,"args":{"sort_index":101}},
{"name":"switch → A","cat":"sched","ph":"i","s":"t","ts":0,"pid":1,"tid":0,"args":{"task":"A"}},
{"name":"forecast SATD","cat":"forecast","ph":"i","s":"t","ts":0,"pid":1,"tid":1,"args":{"si":"SATD"}},
{"name":"evict Transform","cat":"rotation","ph":"i","s":"t","ts":0.015625,"pid":1,"tid":101,"args":{"atom":"Transform"}},
{"name":"rotate Transform","cat":"rotation","ph":"X","ts":0.015625,"dur":7.8125,"pid":1,"tid":101,"args":{"atom":"Transform","container":1,"cycles":500}},
{"name":"rotate Transform → AC 1","cat":"rotation","ph":"X","ts":0.015625,"dur":7.8125,"pid":1,"tid":50,"args":{"atom":"Transform","container":1,"cycles":500}},
{"name":"SATD","cat":"si","ph":"X","ts":1.5625,"dur":8.5,"pid":1,"tid":1,"args":{"cycles":544,"molecule":"sw"}},
{"name":"upgrade SATD","cat":"upgrade","ph":"i","s":"t","ts":10.9375,"pid":1,"tid":1,"args":{"from_cycles":544,"to_cycles":24,"molecule":"hw"}},
{"name":"SATD","cat":"si","ph":"X","ts":10.9375,"dur":0.375,"pid":1,"tid":1,"args":{"cycles":24,"molecule":"hw"}},
{"name":"switch → B\"\\\n\t\u0001","cat":"sched","ph":"i","s":"t","ts":12.5,"pid":1,"tid":0,"args":{"task":"B\"\\\n\t\u0001"}},
{"name":"cancel Transform","cat":"rotation","ph":"i","s":"t","ts":14.84375,"pid":1,"tid":100,"args":{"atom":"Transform"}},
{"name":"rotate Transform","cat":"rotation","ph":"X","ts":18.75,"dur":7.8125,"pid":1,"tid":101,"args":{"atom":"Transform","container":1,"cycles":500}},
{"name":"rotate Transform → AC 1","cat":"rotation","ph":"X","ts":18.75,"dur":7.8125,"pid":1,"tid":50,"args":{"atom":"Transform","container":1,"cycles":500}},
{"name":"fail Transform","cat":"fault","ph":"i","s":"t","ts":26.5625,"pid":1,"tid":101,"args":{"atom":"Transform","container":1}},
{"name":"quarantine AC 1","cat":"fault","ph":"i","s":"t","ts":26.5625,"pid":1,"tid":101,"args":{"container":1}},
{"name":"release SATD","cat":"forecast","ph":"i","s":"t","ts":28.125,"pid":1,"tid":2,"args":{"si":"SATD"}},
{"name":"switch → A","cat":"sched","ph":"i","s":"t","ts":31.25,"pid":1,"tid":0,"args":{"task":"A"}},
{"name":"port busy","cat":"counter","ph":"C","ts":0.015625,"pid":1,"args":{"busy":1}},
{"name":"port busy","cat":"counter","ph":"C","ts":7.828125,"pid":1,"args":{"busy":0}},
{"name":"port busy","cat":"counter","ph":"C","ts":18.75,"pid":1,"args":{"busy":1}},
{"name":"port busy","cat":"counter","ph":"C","ts":26.5625,"pid":1,"args":{"busy":0}},
{"name":"port queue","cat":"counter","ph":"C","ts":0,"pid":1,"args":{"queued":1}},
{"name":"port queue","cat":"counter","ph":"C","ts":0.015625,"pid":1,"args":{"queued":0}},
{"name":"port queue","cat":"counter","ph":"C","ts":14.0625,"pid":1,"args":{"queued":1}},
{"name":"port queue","cat":"counter","ph":"C","ts":14.84375,"pid":1,"args":{"queued":0}},
{"name":"port queue","cat":"counter","ph":"C","ts":17.1875,"pid":1,"args":{"queued":1}},
{"name":"port queue","cat":"counter","ph":"C","ts":18.75,"pid":1,"args":{"queued":0}},
{"name":"cycle buckets","cat":"counter","ph":"C","ts":0,"pid":1,"args":{"sw_exec":0,"hw_exec":0,"plain_compute":0,"rotation_stall":0,"idle":0}},
{"name":"cycle buckets","cat":"counter","ph":"C","ts":12.5,"pid":1,"args":{"sw_exec":0,"hw_exec":24,"plain_compute":232,"rotation_stall":544,"idle":0}},
{"name":"cycle buckets","cat":"counter","ph":"C","ts":31.25,"pid":1,"args":{"sw_exec":0,"hw_exec":24,"plain_compute":1432,"rotation_stall":544,"idle":0}}
]}
)";
  EXPECT_EQ(os.str(), expected);
}

TEST(ChromeTrace, CancelledRotationSpansAreDropped) {
  const std::vector<Event> events = {
      {.at = 10, .kind = EventKind::RotationStarted, .container = 0, .si = 0,
       .atom = 0, .cycles = 500},
      {.at = 510, .kind = EventKind::RotationFinished, .container = 0, .si = 0,
       .atom = 0, .cycles = 500},
      {.at = 20, .kind = EventKind::RotationCancelled, .container = 0,
       .atom = 0, .cycles = 500, .prev_cycles = 10},
  };
  std::ostringstream os;
  write_chrome_trace(os, events, tiny_meta());
  const auto json = os.str();
  EXPECT_EQ(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("cancel Transform"), std::string::npos);
}

TEST(ChromeTrace, FaultsAreInstantsAndNamesAreEscaped) {
  // A failed transfer and the quarantine it caused land on the container's
  // track as "fault" instants; names with quotes, backslashes and control
  // characters still yield valid JSON that parses back to the same name.
  auto meta = tiny_meta();
  meta.atom_names = {"Trans\"form\\\n\t\x01"};
  const std::vector<Event> events = {
      {.at = 10, .kind = EventKind::RotationStarted, .container = 1, .si = 0,
       .atom = 0, .cycles = 500},
      {.at = 510, .kind = EventKind::RotationFailed, .container = 1,
       .atom = 0, .cycles = 500, .prev_cycles = 10},
      {.at = 510, .kind = EventKind::AcQuarantined, .container = 1},
  };
  std::ostringstream os;
  write_chrome_trace(os, events, meta);
  const auto doc = json::parse(os.str());
  std::vector<std::string> faults;
  for (const auto& e : doc.at("traceEvents").items()) {
    const auto* cat = e.find("cat");
    if (cat == nullptr || cat->as_string() != "fault") continue;
    faults.push_back(e.at("name").as_string());
    EXPECT_EQ(e.at("ph").as_string(), "i");
    EXPECT_EQ(e.at("tid").as_u64(), 101u);  // AC 1's track
    EXPECT_EQ(e.at("args").at("container").as_u64(), 1u);
    if (const auto* atom = e.at("args").find("atom")) {
      EXPECT_EQ(atom->as_string(), meta.atom_names[0]);
    }
  }
  EXPECT_EQ(faults, (std::vector<std::string>{"fail " + meta.atom_names[0],
                                              "quarantine AC 1"}));
}

TEST(Profiler, AggregatesTinyStream) {
  const auto r = Profiler::profile(tiny_stream(), tiny_meta());
  EXPECT_EQ(r.counts.rotations, 1u);
  EXPECT_EQ(r.port.busy_cycles, 500u);
  EXPECT_EQ(r.counts.evictions, 1u);
  EXPECT_EQ(r.counts.task_switches, 1u);
  EXPECT_EQ(r.counts.forecasts, 1u);
  EXPECT_EQ(r.first_cycle, 0u);
  // Last timestamp is the SiExecuted span end 700 + 24.
  EXPECT_EQ(r.last_cycle, 724u);
  ASSERT_EQ(r.sis.size(), 1u);
  const auto& satd = r.sis[0];
  EXPECT_EQ(satd.name, "SATD");
  EXPECT_EQ(satd.all.count, 2u);
  EXPECT_EQ(satd.hw.count, 1u);
  EXPECT_EQ(satd.sw.count, 1u);
  EXPECT_EQ(satd.upgrades, 1u);
  EXPECT_EQ(satd.downgrades, 0u);
  // Forecast at 0, upgrade at 700.
  ASSERT_EQ(satd.upgrade_gap.count, 1u);
  EXPECT_EQ(satd.upgrade_gap.min, 700u);
  EXPECT_DOUBLE_EQ(satd.upgrade_gap.mean, 700.0);
  EXPECT_DOUBLE_EQ(r.port.utilization, 500.0 / 724.0);
}

/// End-to-end: a Fig-6-flavoured two-task scenario with a sink attached.
class InstrumentedSim : public ::testing::Test {
 protected:
  InstrumentedSim() : lib_(rispp::isa::SiLibrary::h264()) {
    cfg_.rt.atom_containers = 6;
    cfg_.quantum = 25000;
  }

  rispp::sim::SimResult run(rispp::obs::EventSink* sink) {
    cfg_.rt.sink = sink;
    rispp::sim::Simulator sim(borrow(lib_), cfg_);
    const auto satd = lib_.index_of("SATD_4x4");
    const auto ht = lib_.index_of("HT_4x4");
    rispp::sim::Trace a;
    a.push_back(rispp::sim::TraceOp::forecast(satd, 5000));
    for (int i = 0; i < 30; ++i) {
      a.push_back(rispp::sim::TraceOp::compute(10000));
      a.push_back(rispp::sim::TraceOp::si(satd, 50));
    }
    rispp::sim::Trace b;
    b.push_back(rispp::sim::TraceOp::compute(400000));
    b.push_back(rispp::sim::TraceOp::forecast(ht, 100000));
    for (int i = 0; i < 10; ++i) {
      b.push_back(rispp::sim::TraceOp::compute(40000));
      b.push_back(rispp::sim::TraceOp::si(ht, 100));
    }
    b.push_back(rispp::sim::TraceOp::release(ht));
    sim.add_task({"A", std::move(a)});
    sim.add_task({"B", std::move(b)});
    return sim.run();
  }

  rispp::isa::SiLibrary lib_;
  rispp::sim::SimConfig cfg_;
};

TEST_F(InstrumentedSim, SinkDoesNotPerturbSimulation) {
  rispp::obs::TraceRecorder recorder;
  const auto traced = run(&recorder);
  const auto plain = run(nullptr);
  EXPECT_EQ(traced.total_cycles, plain.total_cycles);
  EXPECT_EQ(traced.rotations, plain.rotations);
  EXPECT_FALSE(recorder.events().empty());
}

TEST_F(InstrumentedSim, RotationSpansMatchReconfigPortLatency) {
  rispp::obs::TraceRecorder recorder;
  run(&recorder);
  std::size_t rotation_spans = 0;
  for (const auto& e : recorder.events()) {
    if (e.kind != EventKind::RotationStarted) continue;
    ++rotation_spans;
    ASSERT_GE(e.atom, 0);
    const auto bytes =
        lib_.catalog().at(static_cast<std::size_t>(e.atom)).hardware
            .bitstream_bytes;
    EXPECT_EQ(e.cycles,
              cfg_.rt.port.rotation_time_cycles(bytes, cfg_.rt.clock_mhz));
  }
  EXPECT_GT(rotation_spans, 0u);
}

TEST_F(InstrumentedSim, StreamAgreesWithManagerAggregates) {
  rispp::obs::TraceRecorder recorder;
  const auto r = run(&recorder);
  const auto report = Profiler::profile(
      recorder.events(), make_trace_meta(lib_, cfg_, {"A", "B"}));
  EXPECT_EQ(report.counts.rotations, r.rotations);
  std::uint64_t invocations = 0;
  for (const auto& [name, st] : r.per_si) invocations += st.invocations;
  std::uint64_t traced_invocations = 0;
  for (const auto& si : report.sis) traced_invocations += si.all.count;
  EXPECT_EQ(traced_invocations, invocations);
  // Both tasks forecast once; HT_4x4 released once.
  EXPECT_EQ(report.counts.forecasts, 2u);
  EXPECT_EQ(report.counts.releases, 1u);
  // The SATD upgrade staircase must have fired at least once (SW → HW),
  // each upgrade after task A's forecast: one gap sample per upgrade.
  const auto satd_si = static_cast<std::int64_t>(lib_.index_of("SATD_4x4"));
  const auto satd =
      std::find_if(report.sis.begin(), report.sis.end(),
                   [&](const auto& s) { return s.si == satd_si; });
  ASSERT_NE(satd, report.sis.end());
  EXPECT_GT(satd->upgrades, 0u);
  EXPECT_EQ(satd->upgrade_gap.count, satd->upgrades);
  EXPECT_GT(satd->sw.count, 0u);
  EXPECT_GT(satd->hw.count, 0u);
}

TEST_F(InstrumentedSim, MetaNamesResolveAndExportersRun) {
  rispp::obs::TraceRecorder recorder;
  run(&recorder);
  const auto meta = make_trace_meta(lib_, cfg_, {"A", "B"});
  EXPECT_EQ(meta.si_names.size(), lib_.size());
  EXPECT_EQ(meta.containers, 6u);

  std::ostringstream json, csv;
  write_chrome_trace(json, recorder.events(), meta);
  write_csv_trace(csv, recorder.events(), meta);
  EXPECT_NE(json.str().find("\"SATD_4x4\""), std::string::npos);

  std::istringstream is(csv.str());
  TraceMeta learned;
  const auto back = read_csv_trace(is, &learned);
  EXPECT_EQ(back.size(), recorder.events().size());
}


// --- EventBatch / sink delivery contracts --------------------------------

/// Records which sink instance saw each event, in arrival order — the probe
/// for batch fan-out and unroll ordering.
struct TaggedSink final : EventSink {
  TaggedSink(int id, std::vector<std::pair<int, std::uint64_t>>& log)
      : id_(id), log_(&log) {}
  void on_event(const Event& e) override { log_->emplace_back(id_, e.at); }

  int id_;
  std::vector<std::pair<int, std::uint64_t>>* log_;
};

Event at(std::uint64_t t) {
  Event e;
  e.at = t;
  e.kind = EventKind::TaskSwitch;
  return e;
}

TEST(EventBatch, DestructorFlushesBufferedEventsDuringUnwind) {
  // The batch lives on an instrumented hot path; if the evaluator throws
  // mid-run, the buffered prefix must still reach the sink (the flight
  // recorder and torn-tail diagnostics depend on a complete stream).
  TraceRecorder recorder;
  EXPECT_THROW(
      {
        EventBatch batch(&recorder);
        batch.emit(at(1));
        batch.emit(at(2));
        throw std::runtime_error("evaluator died");
      },
      std::runtime_error);
  ASSERT_EQ(recorder.events().size(), 2u);
  EXPECT_EQ(recorder.events()[0].at, 1u);
  EXPECT_EQ(recorder.events()[1].at, 2u);
}

TEST(EventBatch, CapacityFlushPreservesEmissionOrder) {
  TraceRecorder recorder;
  EventBatch batch(&recorder);
  const std::size_t n = EventBatch::kCapacity + 5;
  for (std::size_t i = 0; i < n; ++i) batch.emit(at(i));
  // Capacity flush happened mid-stream; the tail is still buffered.
  EXPECT_EQ(recorder.events().size(), EventBatch::kCapacity);
  batch.flush();
  ASSERT_EQ(recorder.events().size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(recorder.events()[i].at, i);
}

TEST(TeeSink, BatchGoesToAFullyBeforeBAndInOrder) {
  std::vector<std::pair<int, std::uint64_t>> log;
  TaggedSink a(1, log), b(2, log);
  TeeSink tee(&a, &b);
  const std::vector<Event> events{at(10), at(20), at(30)};
  tee.on_batch(events);
  // Default on_batch unrolls to on_event, so the shared log shows a's whole
  // run first, then b's — each in emission order.
  const std::vector<std::pair<int, std::uint64_t>> want{
      {1, 10}, {1, 20}, {1, 30}, {2, 10}, {2, 20}, {2, 30}};
  EXPECT_EQ(log, want);
}

TEST(TeeSink, NullSidesAreSkipped) {
  std::vector<std::pair<int, std::uint64_t>> log;
  TaggedSink b(2, log);
  TeeSink tee(nullptr, &b);
  tee.on_event(at(1));
  tee.on_batch(std::vector<Event>{at(2)});
  const std::vector<std::pair<int, std::uint64_t>> want{{2, 1}, {2, 2}};
  EXPECT_EQ(log, want);
}

}  // namespace
