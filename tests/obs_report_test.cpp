/// Run-report serialization: the JSON substrate (ordered objects, token-
/// preserving numbers), byte-stable write→read→write round trips, the
/// checked-in fig06 report golden, the direct writer's edge cases against
/// the tree dumper, and the tolerance-aware diff used by `rispp_report
/// diff` and the CI regression gate.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "rispp/obs/csv_trace.hpp"
#include "rispp/obs/json.hpp"
#include "rispp/obs/profiler.hpp"
#include "rispp/obs/report.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/error.hpp"
#include "rispp/workload/trace_source.hpp"

namespace {

using namespace rispp::obs;
using rispp::util::PreconditionError;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string golden_path() {
  return std::string(RISPP_TEST_DATA_DIR) + "/fig06_report_golden.json";
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  auto v = json::Value::object();
  v.add("zebra", json::Value::number(std::uint64_t{1}));
  v.add("alpha", json::Value::number(std::uint64_t{2}));
  EXPECT_EQ(v.dump(), "{\"zebra\":1,\"alpha\":2}");
  EXPECT_EQ(v.at("alpha").as_u64(), 2u);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), PreconditionError);
}

TEST(Json, NumbersKeepTheirSourceToken) {
  // "0.10" must not reformat to "0.1" on a parse → dump round trip.
  const auto v = json::parse("[0.10, 1e3, -7]");
  EXPECT_EQ(v.dump(), "[0.10,1e3,-7]");
  EXPECT_DOUBLE_EQ(v.items()[0].as_double(), 0.1);
  EXPECT_DOUBLE_EQ(v.items()[1].as_double(), 1000.0);
  EXPECT_EQ(v.items()[2].as_i64(), -7);
}

TEST(Json, ParseRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\" 1}", "nul", "1.", "2e", "\"\\q\"",
        "[1] trailing", "{\"a\":1,}", "-", "1e+", "\"\\u12\"",
        "\"\\u00zz\"", "\"\\u-001\"", "\"\\u00e9\""}) {
    EXPECT_THROW(json::parse(bad), PreconditionError) << bad;
  }
}

TEST(Json, StringEscapesRoundTrip) {
  const auto v = json::parse(R"("line\n\ttab \"q\" \\ \u0041")");
  EXPECT_EQ(v.as_string(), "line\n\ttab \"q\" \\ A");
  EXPECT_EQ(json::escape("a\nb\"c\\d\x01"),
            "a\\nb\\\"c\\\\d\\u0001");
}

TEST(JsonWriter, MatchesTreeDumperInBothLayouts) {
  // The tree dumper is the writer's reference: the same document built
  // through both must serialize to the same bytes, pretty (dump(2)) and
  // compact (dump(-1)). The tree's reals are hand-written tokens, so this
  // also pins the six-decimal formatter: rounding (1.2345675 lies just
  // above the midpoint; 0.0078125 and 0.0234375 are exact ties, which
  // round to even), trimming to an integer, negative zero, and a value too
  // long for a small buffer.
  using json::Value;
  using json::Writer;
  constexpr auto u64_max = std::numeric_limits<std::uint64_t>::max();
  constexpr auto i64_min = std::numeric_limits<std::int64_t>::min();
  const double reals[] = {0.0000005, 1.2345675, 123456.999999951, -0.0,
                          1e70,      0.0078125, 0.0234375};
  const char* real_tokens[] = {
      "0", "1.234568", "123457", "-0",
      "10000000000000000725314363815292351261583744096465219555182101554790400",
      "0.007812", "0.023438"};
  const std::string text =
      "quote\" backslash\\ newline\n tab\t \x01\x1f \xe2\x86\x92";

  auto tree = Value::object();
  auto& ints = tree.add("ints", Value::array());
  ints.push_back(Value::number(std::uint64_t{0}));
  ints.push_back(Value::number(u64_max));
  ints.push_back(Value::number(i64_min));
  auto& real_items = tree.add("reals", Value::array());
  for (const char* token : real_tokens)
    real_items.push_back(Value::number(token));
  tree.add("text", Value::string(text));
  tree.add("none", Value::object());
  auto& rows = tree.add("rows", Value::array());
  auto& first = rows.push_back(Value::object());
  first.add("cells", Value::array()).push_back(Value::array());
  first.add("name", Value::string(""));
  rows.push_back(Value::object())
      .add("nested", Value::object())
      .add("deep", Value::array())
      .push_back(Value::number(std::int64_t{-1}));

  const auto write = [&](Writer& w) {
    w.begin_object();
    w.key("ints").begin_array();
    w.item().integer(std::uint64_t{0});
    w.item().integer(u64_max);
    w.item().integer(i64_min);
    w.end_array();
    w.key("reals").begin_array();
    for (const double x : reals) w.item().real(x, 6);
    w.end_array();
    w.key("text").str(text);
    w.key("none").begin_object();
    w.end_object();
    w.key("rows").begin_array();
    w.item().begin_object();
    w.key("cells").begin_array();
    w.item().begin_array();
    w.end_array();
    w.end_array();
    w.key("name").str("");
    w.end_object();
    w.item().begin_object();
    w.key("nested").begin_object();
    w.key("deep").begin_array();
    w.item().integer(-1);
    w.end_array();
    w.end_object();
    w.end_object();
    w.end_array();
    w.end_object();
  };
  const auto empty_object = [](Writer& w) {
    w.begin_object();
    w.end_object();
  };
  const auto empty_array = [](Writer& w) {
    w.begin_array();
    w.end_array();
  };

  const std::pair<std::function<void(Writer&)>, Value> docs[] = {
      {empty_object, Value::object()},
      {empty_array, Value::array()},
      {write, std::move(tree)}};
  for (const auto& [fill, reference] : docs) {
    SCOPED_TRACE(reference.dump());
    Writer pretty(Writer::Layout::Pretty);
    Writer compact(Writer::Layout::Compact);
    fill(pretty);
    fill(compact);
    EXPECT_EQ(pretty.take(), reference.dump(2));
    EXPECT_EQ(compact.take(), reference.dump(-1));
    // take() starts the writer over: the same calls give the same bytes.
    fill(compact);
    EXPECT_EQ(compact.take(), reference.dump(-1));
  }
  Writer w(Writer::Layout::Compact);
  EXPECT_THROW(w.real(std::numeric_limits<double>::infinity(), 6),
               PreconditionError);
}

/// The bench scenario (TraceSource::make_fig06, as
/// bench/fig06_runtime_scenario runs it) with a live Profiler sink — the
/// stream behind the checked-in golden.
RunReport run_fig06_report() {
  using namespace rispp::sim;
  const auto lib = rispp::isa::SiLibrary::h264();
  SimConfig cfg;
  cfg.rt.atom_containers = 6;
  cfg.quantum = 25000;
  Profiler profiler(make_trace_meta(lib, cfg, {"A", "B"}));
  cfg.rt.sink = &profiler;
  Simulator sim(borrow(lib), cfg);
  rispp::workload::TraceSource::make_fig06(lib)->add_to(sim);
  (void)sim.run();
  return profiler.finalize("fig06");
}

TEST(ReportGolden, Fig06MatchesCheckedInReportByteForByte) {
  const auto golden = read_file(golden_path());
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(write_report(run_fig06_report()), golden)
      << "fig06 run report diverged from tests/data/fig06_report_golden.json"
      << " — regenerate with bench/fig06_runtime_scenario --report-out= if"
      << " the change is intentional";
}

TEST(ReportGolden, CsvReplayIsTheSameCodePathAsLiveStreaming) {
  // `rispp_report profile` replays a CSV trace through exactly this call;
  // the replayed fig06 stream must serialize to the same bytes as the live
  // profiler run (the golden), names learned from the CSV columns.
  std::ifstream in(std::string(RISPP_TEST_DATA_DIR) + "/fig06_golden.csv");
  ASSERT_TRUE(in.good());
  TraceMeta learned;
  const auto events = read_csv_trace(in, &learned);
  const auto report = Profiler::profile(events, learned, "fig06");
  EXPECT_EQ(write_report(report), read_file(golden_path()));
}

TEST(ReportRoundTrip, WriteReadWriteIsByteStable) {
  const auto text = read_file(golden_path());
  const auto report = read_report(text);
  EXPECT_EQ(report.version, kReportVersion);
  EXPECT_EQ(report.scenario, "fig06");
  EXPECT_EQ(write_report(report), text);
}

TEST(ReportRoundTrip, RejectsForeignSchemaAndVersion) {
  EXPECT_THROW(read_report("not json"), PreconditionError);
  EXPECT_THROW(read_report("{}"), PreconditionError);
  EXPECT_THROW(
      read_report(R"({"schema":"other.format","version":1})"),
      PreconditionError);
  EXPECT_THROW(
      read_report(R"({"schema":"rispp.run_report","version":999})"),
      PreconditionError);
  EXPECT_THROW(read_report_file("/nonexistent/report.json"),
               PreconditionError);
}

/// Reports built by hand around the writer's edge cases. The tree dumper
/// (json::Value::dump(2)) is the layout oracle: the flight recorder and
/// the sweep summary still write through it, so a report that parses and
/// re-dumps to itself is in their layout.
RunReport empty_report() {
  RunReport r;
  r.scenario = "empty";  // no tasks, SIs or containers
  return r;
}

LatencyDigest full_digest(double mean) {
  LatencyDigest d;
  d.count = 3;
  d.min = 1;
  d.max = UINT64_MAX;
  d.mean = mean;
  d.p50 = {0.0000005, 1.2345675};
  d.p90 = {123456.999999951, 1e6};
  d.p99 = {-0.0, 2.5};
  return d;
}

RunReport edge_report() {
  RunReport r;
  r.scenario = "quote\" backslash\\ newline\n ctrl\x01";
  r.first_cycle = 0;
  r.last_cycle = UINT64_MAX;
  r.counts.events = UINT64_MAX;
  r.buckets.idle = UINT64_MAX;
  r.tasks.push_back({-1, "no task \"-1\"", {}});
  r.tasks.push_back({7, "t\\7\n", {1, 2, 3, 4, UINT64_MAX - 10}});
  SiReport si;
  si.si = 0;
  si.name = "SI \"\x01\"";
  si.all = full_digest(1.2345675);
  si.hw = full_digest(0.0000005);  // a full digest beside an empty one
  si.forecast_lead = full_digest(123456.999999951);
  si.upgrades = UINT64_MAX;
  si.upgrade_gap = full_digest(-0.0);
  r.sis.push_back(si);
  r.port.busy_cycles = 12;
  r.port.utilization = -0.0;
  r.port.transfer = full_digest(2.0);
  ContainerReport idle_ac;
  idle_ac.container = 0;  // never loaded: empty occupancy
  r.containers.push_back(idle_ac);
  ContainerReport ac;
  ac.container = 1;
  ac.rotations = UINT64_MAX;
  ac.occupancy.push_back({-1, "none\n", 0, UINT64_MAX, 0});
  ac.occupancy.push_back({3, "\\atom\"", 5, 9, 2});
  r.containers.push_back(ac);
  return r;
}

TEST(ReportWriter, EdgeCasesKeepTheTreeDumpersLayoutAndRoundTrip) {
  for (const auto& report : {empty_report(), edge_report()}) {
    SCOPED_TRACE(report.scenario);
    const auto text = write_report(report);
    EXPECT_EQ(json::parse(text).dump(2), text);
    EXPECT_EQ(write_report(read_report(text)), text);
  }
  const auto empty = write_report(empty_report());
  EXPECT_NE(empty.find("\"tasks\": [],\n  \"sis\": [],"), std::string::npos);
  EXPECT_NE(empty.find("\"containers\": []\n}\n"), std::string::npos);

  const auto text = write_report(edge_report());
  for (const char* token :
       {"\"count\": 0\n", "\"occupancy\": []", "\"task\": -1,",
        "\"atom\": -1,", "\"cycles\": 18446744073709551615\n",
        "\"utilization\": -0,", "\"mean\": 0,", "\"mean\": 1.234568,",
        "\"mean\": 123457,", "\"mean\": -0,", "\"mean\": 2,",
        "ctrl\\u0001\",", "quote\\\" backslash\\\\ newline\\n"})
    EXPECT_NE(text.find(token), std::string::npos) << token;
  // Only the numbers' text is checked above; the values survive too.
  const auto back = read_report(text);
  EXPECT_EQ(back.scenario, edge_report().scenario);
  EXPECT_EQ(back.span_cycles(), UINT64_MAX);
  EXPECT_EQ(back.sis.at(0).sw.count, 0u);
  EXPECT_EQ(back.containers.at(1).occupancy.at(0).atom, -1);
}

TEST(ReportWriter, NonFiniteDoublesThrow) {
  auto r = edge_report();
  r.port.utilization = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(write_report(r), PreconditionError);
  r = edge_report();
  r.sis.at(0).all.mean = std::numeric_limits<double>::infinity();
  EXPECT_THROW(write_report(r), PreconditionError);
}

TEST(ReportDiff, IdenticalReportsHaveNoDivergences) {
  const auto golden = json::parse(read_file(golden_path()));
  EXPECT_TRUE(diff_reports(golden, golden).empty());
}

TEST(ReportDiff, PerturbedCounterIsReportedWithItsPath) {
  const auto golden = json::parse(read_file(golden_path()));
  auto text = read_file(golden_path());
  const std::string needle = "\"rotations\": 8";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"rotations\": 9");
  const auto entries = diff_reports(golden, json::parse(text));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, "counts.rotations");
  EXPECT_EQ(entries[0].golden, "8");
  EXPECT_EQ(entries[0].candidate, "9");
  EXPECT_NEAR(entries[0].rel, 1.0 / 9.0, 1e-12);

  // A wide enough tolerance on that path swallows the drift; a tolerance
  // for an unrelated path does not.
  EXPECT_TRUE(diff_reports(golden, json::parse(text),
                           {{"counts.rotations", 0.2}})
                  .empty());
  EXPECT_FALSE(diff_reports(golden, json::parse(text),
                            {{"port.utilization", 0.2}})
                   .empty());
}

TEST(ReportDiff, LongestMatchingTolerancePatternWins) {
  auto golden = json::Value::object();
  golden.add("port", json::Value::object())
      .add("utilization", json::Value::number(std::string("0.50")));
  auto candidate = json::Value::object();
  candidate.add("port", json::Value::object())
      .add("utilization", json::Value::number(std::string("0.55")));
  // The generic rule would fail the 10% drift; the more specific (longer)
  // rule allows it — order in the list must not matter.
  EXPECT_TRUE(diff_reports(golden, candidate,
                           {{"utilization", 0.0},
                            {"port.utilization", 0.2}})
                  .empty());
  EXPECT_FALSE(diff_reports(golden, candidate,
                            {{"port.utilization", 0.01},
                             {"utilization", 0.5}})
                   .empty());
}

TEST(ReportDiff, StructuralDivergenceRendersAbsent) {
  const auto golden = json::parse(R"({"a":[1,2],"b":1})");
  const auto shorter = json::parse(R"({"a":[1],"b":1})");
  auto entries = diff_reports(golden, shorter);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, "a[1]");
  EXPECT_EQ(entries[0].candidate, "<absent>");

  const auto missing_key = json::parse(R"({"a":[1,2]})");
  entries = diff_reports(golden, missing_key);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].path, "b");
  EXPECT_EQ(entries[0].candidate, "<absent>");

  // Kind mismatch is structural regardless of tolerance.
  const auto wrong_kind = json::parse(R"({"a":[1,"2"],"b":1})");
  EXPECT_FALSE(diff_reports(golden, wrong_kind, {{"a", 1.0}}).empty());
}

TEST(ReportDiff, NumberTokensCompareByValueNotText) {
  // "1e3" and "1000" are the same number; the fast path is token equality
  // but the fallback must be numeric.
  const auto a = json::parse(R"({"x":1e3})");
  const auto b = json::parse(R"({"x":1000})");
  EXPECT_TRUE(diff_reports(a, b).empty());
}

}  // namespace
