/// Host-telemetry unit tests: ScopedSpan binding semantics, the flight
/// recorder's bounded rings and dump schema ("rispp.flight/1"), the
/// signal-safe dump path, and the heartbeat JSONL records
/// ("rispp.telemetry/1"). The engine-level contracts (byte identity,
/// per-worker counters, dump-on-evaluator-throw) live in
/// exp_telemetry_test.cpp.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "rispp/obs/chrome_trace.hpp"
#include "rispp/obs/flight_recorder.hpp"
#include "rispp/obs/json.hpp"
#include "rispp/obs/telemetry.hpp"

namespace {

using namespace rispp::obs;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(ScopedSpan, IsANoOpWhenNoTelemetryIsBound) {
  ASSERT_EQ(Telemetry::bound(), nullptr);
  {
    ScopedSpan outer("outer");
    ScopedSpan inner("inner", "detail");
  }
  EXPECT_EQ(Telemetry::bound(), nullptr);
}

TEST(ScopedSpan, RecordsNestedSpansAgainstTheBoundTelemetry) {
  Telemetry tel(Telemetry::Config{});
  {
    Telemetry::Binding bind(tel, 0);
    ASSERT_EQ(Telemetry::bound(), &tel);
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner", "#42");
    }
  }
  EXPECT_EQ(Telemetry::bound(), nullptr);

  const auto spans = tel.spans();
  ASSERT_EQ(spans.size(), 2u);  // completion order: inner first
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].detail, "#42");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
  EXPECT_EQ(spans[0].thread, 0u);
}

TEST(ScopedSpan, BindingNestsAndRestoresThePreviousOwner) {
  Telemetry a(Telemetry::Config{});
  Telemetry b(Telemetry::Config{});
  Telemetry::Binding bind_a(a, 0);
  {
    Telemetry::Binding bind_b(b, 3);
    EXPECT_EQ(Telemetry::bound(), &b);
    ScopedSpan span("in_b");
  }
  EXPECT_EQ(Telemetry::bound(), &a);
  ASSERT_EQ(b.spans().size(), 1u);
  EXPECT_EQ(b.spans()[0].thread, 3u);
  EXPECT_TRUE(a.spans().empty());
}

TEST(ScopedSpan, KeepSpansOffStillFeedsTheFlightRing) {
  Telemetry::Config cfg;
  cfg.keep_spans = false;
  Telemetry tel(cfg);
  {
    Telemetry::Binding bind(tel, 0);
    ScopedSpan span("transient");
  }
  EXPECT_TRUE(tel.spans().empty());
  EXPECT_EQ(tel.flight().ring(0).pushed(), 2u);  // enter + exit
}

TEST(HostChromeTrace, SpansBecomeCompleteEventsOnePerThreadTrack) {
  // Wall-clock spans render as their own "rispp host" process (pid 2):
  // one named track per thread ordinal up to the highest one seen, and one
  // complete ("X") event per span with microsecond ts/dur and its depth.
  const std::vector<TelemetrySpan> spans = {
      {.name = "sweep", .start_ns = 0, .end_ns = 10000, .thread = 0},
      {.name = "point.sim", .detail = "#3", .start_ns = 1000,
       .end_ns = 3500, .thread = 2, .depth = 1},
  };
  std::ostringstream os;
  write_host_chrome_trace(os, spans);
  const auto doc = json::parse(os.str());
  std::vector<std::string> tracks;
  std::vector<const json::Value*> complete;
  for (const auto& e : doc.at("traceEvents").items()) {
    EXPECT_EQ(e.at("pid").as_u64(), 2u);
    const auto& name = e.at("name").as_string();
    if (name == "process_name")
      EXPECT_EQ(e.at("args").at("name").as_string(), "rispp host");
    else if (name == "thread_name")
      tracks.push_back(e.at("args").at("name").as_string());
    else
      complete.push_back(&e);
  }
  EXPECT_EQ(tracks,
            (std::vector<std::string>{"host", "worker 1", "worker 2"}));
  ASSERT_EQ(complete.size(), 2u);
  const auto& sim = *complete[1];
  EXPECT_EQ(sim.at("name").as_string(), "point.sim #3");
  EXPECT_EQ(sim.at("ph").as_string(), "X");
  EXPECT_EQ(sim.at("tid").as_u64(), 2u);
  EXPECT_EQ(sim.at("ts").token(), "1");
  EXPECT_EQ(sim.at("dur").token(), "2.5");
  EXPECT_EQ(sim.at("args").at("depth").as_u64(), 1u);
  EXPECT_EQ(complete[0]->at("dur").token(), "10");
}

TEST(HostChromeTrace, GoldenFile) {
  // Pin the exact host-trace bytes: the pid-2 process and per-thread track
  // metadata (thread 1 is named though it recorded nothing), an escaped
  // detail, and three-decimal microsecond ts/dur for durations of 0, 1,
  // 1500 and 123456789 ns.
  const std::vector<TelemetrySpan> spans = {
      {.name = "sweep", .start_ns = 0, .end_ns = 123456789, .thread = 0},
      {.name = "point", .detail = "#\"7\"\\\n\t", .start_ns = 1000,
       .end_ns = 1000, .thread = 2, .depth = 1},
      {.name = "point.sim", .start_ns = 2500, .end_ns = 2501, .thread = 2,
       .depth = 2},
      {.name = "sink.flush", .start_ns = 120000001, .end_ns = 120001501,
       .thread = 0, .depth = 1},
  };
  std::ostringstream os;
  write_host_chrome_trace(os, spans);
  const std::string expected = R"({"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"rispp host"}},
{"name":"thread_name","ph":"M","pid":2,"tid":0,"args":{"name":"host"}},
{"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"worker 1"}},
{"name":"thread_name","ph":"M","pid":2,"tid":2,"args":{"name":"worker 2"}},
{"name":"sweep","ph":"X","pid":2,"tid":0,"ts":0,"dur":123456.789,"args":{"depth":0}},
{"name":"point #\"7\"\\\n\t","ph":"X","pid":2,"tid":2,"ts":1,"dur":0,"args":{"depth":1}},
{"name":"point.sim","ph":"X","pid":2,"tid":2,"ts":2.5,"dur":0.001,"args":{"depth":2}},
{"name":"sink.flush","ph":"X","pid":2,"tid":0,"ts":120000.001,"dur":1.5,"args":{"depth":1}}
]}
)";
  EXPECT_EQ(os.str(), expected);
}

TEST(FlightRing, BoundsRetentionAndCountsDrops) {
  FlightRing ring;
  const std::size_t n = FlightRing::kCapacity + 37;
  for (std::size_t i = 0; i < n; ++i)
    ring.push(i, FlightEvent::Kind::Note, "evt", std::to_string(i));
  EXPECT_EQ(ring.pushed(), n);
  EXPECT_EQ(ring.retained(), FlightRing::kCapacity);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), FlightRing::kCapacity);
  // Oldest first, and the oldest surviving event is push #37.
  EXPECT_EQ(events.front().t_ns, 37u);
  EXPECT_EQ(events.back().t_ns, n - 1);
}

TEST(FlightRing, TruncatesOversizedDetail) {
  FlightRing ring;
  ring.push(1, FlightEvent::Kind::Note, "evt", std::string(200, 'x'));
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  const std::string detail = events[0].detail;
  EXPECT_EQ(detail, std::string(sizeof(FlightEvent{}.detail) - 1, 'x'));
}

TEST(FlightRecorder, DumpIsValidSortedJson) {
  FlightRecorder rec(2);
  rec.note(1, 30, "late", "");
  rec.note(0, 10, "early", "quote \" and\nnewline");
  rec.note(0, 20, "middle", "");
  std::ostringstream out;
  rec.dump(out, "unit test");

  const auto doc = json::parse(out.str());
  EXPECT_EQ(doc.at("schema").as_string(), "rispp.flight/1");
  EXPECT_EQ(doc.at("reason").as_string(), "unit test");
  EXPECT_EQ(doc.at("threads").as_u64(), 2u);
  EXPECT_EQ(doc.at("dropped_events").as_u64(), 0u);
  const auto& events = doc.at("events").items();
  ASSERT_EQ(events.size(), 3u);
  // Merged across rings, sorted by timestamp.
  EXPECT_EQ(events[0].at("name").as_string(), "early");
  EXPECT_EQ(events[0].at("detail").as_string(), "quote \" and\nnewline");
  EXPECT_EQ(events[1].at("name").as_string(), "middle");
  EXPECT_EQ(events[2].at("name").as_string(), "late");
  EXPECT_EQ(events[2].at("thread").as_u64(), 1u);
}

TEST(FlightRecorder, DumpToFileReportsFailureWithoutThrowing) {
  FlightRecorder rec(1);
  rec.note(0, 1, "evt", "");
  const auto path = temp_path("flight_ok.json");
  EXPECT_TRUE(rec.dump_to_file(path, "ok"));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(json::parse(buf.str()).at("reason").as_string(), "ok");
  EXPECT_FALSE(rec.dump_to_file("/nonexistent-dir/x/y.json", "bad"));
}

TEST(FlightRecorder, SignalSafeDumpMatchesTheSchema) {
  FlightRecorder rec(2);
  rec.note(0, 5, "alpha", "a \"quoted\" detail");
  rec.note(1, 7, "beta", "");
  const auto path = temp_path("flight_sigsafe.json");
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(rec.dump_signal_safe(fd, SIGSEGV));
  ::close(fd);

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = json::parse(buf.str());
  EXPECT_EQ(doc.at("schema").as_string(), "rispp.flight/1");
  EXPECT_EQ(doc.at("reason").as_string(), "signal 11");
  ASSERT_EQ(doc.at("events").items().size(), 2u);
  EXPECT_EQ(doc.at("events").items()[0].at("name").as_string(), "alpha");
}

TEST(FlightRecorderDeathTest, CrashHandlerDumpsAndPreservesTheSignal) {
  const auto path = temp_path("flight_crash.json");
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        FlightRecorder rec(1);
        rec.note(0, 1, "before_crash", "still here");
        rec.install_crash_handler(path);
        ::raise(SIGABRT);
      },
      testing::KilledBySignal(SIGABRT), "");
  // The child's handler wrote the dump before re-raising.
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "crash handler left no dump at " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = json::parse(buf.str());
  EXPECT_EQ(doc.at("schema").as_string(), "rispp.flight/1");
  EXPECT_EQ(doc.at("reason").as_string(), "signal 6");
  EXPECT_EQ(doc.at("events").items()[0].at("name").as_string(),
            "before_crash");
}

TEST(Telemetry, HeartbeatJsonCarriesTheDocumentedFields) {
  Telemetry tel(Telemetry::Config{});
  Telemetry::Binding bind(tel, 0);
  tel.begin_run(10, 2, 8);
  const auto doc = json::parse(tel.heartbeat_json(4));
  EXPECT_EQ(doc.at("schema").as_string(), "rispp.telemetry/1");
  EXPECT_EQ(doc.at("kind").as_string(), "heartbeat");
  EXPECT_EQ(doc.at("done").as_u64(), 4u);
  EXPECT_EQ(doc.at("total").as_u64(), 10u);
  EXPECT_NE(doc.find("elapsed_ms"), nullptr);
  EXPECT_NE(doc.find("rate_pps"), nullptr);
  EXPECT_NE(doc.find("eta_ms"), nullptr);
  EXPECT_NE(doc.find("rss_kib"), nullptr);
  // No workers attached: the array is present and empty.
  EXPECT_TRUE(doc.at("workers").items().empty());
}

TEST(Telemetry, HeartbeatCadenceAndLifecycleRecords) {
  std::ostringstream jsonl;
  Telemetry::Config cfg;
  cfg.heartbeat_every = 2;
  cfg.heartbeat_out = &jsonl;
  Telemetry tel(cfg);
  Telemetry::Binding bind(tel, 0);
  tel.begin_run(5, 1, 8);
  for (std::size_t done = 1; done <= 5; ++done) tel.on_progress(done);
  tel.end_run(5, 1);

  std::vector<rispp::obs::json::Value> records;
  std::istringstream lines(jsonl.str());
  std::string line;
  while (std::getline(lines, line)) records.push_back(json::parse(line));

  // start + heartbeats at done=2,4,5 + finish.
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records.front().at("kind").as_string(), "start");
  EXPECT_EQ(records.front().at("total").as_u64(), 5u);
  EXPECT_EQ(records[1].at("done").as_u64(), 2u);
  EXPECT_EQ(records[2].at("done").as_u64(), 4u);
  EXPECT_EQ(records[3].at("done").as_u64(), 5u);
  EXPECT_EQ(records.back().at("kind").as_string(), "finish");
  EXPECT_EQ(records.back().at("done").as_u64(), 5u);
  EXPECT_EQ(tel.heartbeats_emitted(), 3u);
}

TEST(Telemetry, RecordFailureDumpsToTheConfiguredPath) {
  Telemetry::Config cfg;
  cfg.flight_path = temp_path("flight_failure.json");
  Telemetry tel(cfg);
  Telemetry::Binding bind(tel, 0);
  tel.begin_run(3, 1, 8);
  const auto written = tel.record_failure("evaluator exception", "boom #2");
  EXPECT_EQ(written, cfg.flight_path);

  std::ifstream in(written);
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = json::parse(buf.str());
  EXPECT_EQ(doc.at("schema").as_string(), "rispp.flight/1");
  EXPECT_EQ(doc.at("reason").as_string(), "evaluator exception: boom #2");
}

TEST(Telemetry, RecordFailureWithoutAPathWritesNothing) {
  Telemetry tel(Telemetry::Config{});
  tel.begin_run(1, 1, 8);
  EXPECT_EQ(tel.record_failure("sink exception", "disk full"), "");
}

}  // namespace
