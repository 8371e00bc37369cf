/// Experiment-engine tests: deterministic sweep plans and per-point seeds,
/// byte-identical ResultTables at any worker count, thread-safe sharing of
/// one immutable Platform, up-front plan validation, and the deprecated
/// session-API shims.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "rispp/exp/platform.hpp"
#include "rispp/exp/runner.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/exp/sweep.hpp"
#include "rispp/isa/io.hpp"
#include "rispp/obs/json.hpp"
#include "rispp/util/error.hpp"

namespace {

using namespace rispp::exp;
using rispp::util::Error;
using rispp::util::PreconditionError;

TEST(SweepPlan, GridEnumeratesLastAxisFastest) {
  Sweep sweep;
  sweep.axis("a", {"1", "2"}).axis("b", {"x", "y", "z"});
  const auto points = sweep.points();
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(sweep.size(), 6u);
  EXPECT_EQ(points[0].at("a"), "1");
  EXPECT_EQ(points[0].at("b"), "x");
  EXPECT_EQ(points[1].at("b"), "y");
  EXPECT_EQ(points[2].at("b"), "z");
  EXPECT_EQ(points[3].at("a"), "2");
  EXPECT_EQ(points[3].at("b"), "x");
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].index, i);
}

TEST(SweepPlan, SeedsAreDeterministicAndDistinct) {
  Sweep sweep;
  sweep.axis("a", {"1", "2", "3", "4"}).base_seed(42);
  const auto first = sweep.points();
  const auto again = sweep.points();
  ASSERT_EQ(first.size(), again.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].seed, again[i].seed) << i;
    EXPECT_EQ(first[i].seed, Sweep::derive_seed(42, i));
    for (std::size_t j = i + 1; j < first.size(); ++j)
      EXPECT_NE(first[i].seed, first[j].seed);
  }
  // A different base seed moves every point's stream.
  EXPECT_NE(Sweep::derive_seed(42, 0), Sweep::derive_seed(43, 0));
}

TEST(SweepPlan, ParseGridRoundTrips) {
  const auto sweep = Sweep::parse_grid("containers=4,8;workload=enc");
  ASSERT_EQ(sweep.axes().size(), 2u);
  EXPECT_EQ(sweep.axes()[0].name, "containers");
  EXPECT_EQ(sweep.axes()[0].values,
            (std::vector<std::string>{"4", "8"}));
  EXPECT_EQ(sweep.axes()[1].name, "workload");
  EXPECT_EQ(sweep.size(), 2u);
}

TEST(SweepPlan, ParseGridRejectsMalformedSpecs) {
  EXPECT_THROW(Sweep::parse_grid("noequals"), PreconditionError);
  EXPECT_THROW(Sweep::parse_grid("=4"), PreconditionError);
  EXPECT_THROW(Sweep::parse_grid("a=,"), PreconditionError);
  EXPECT_THROW(Sweep::parse_grid("a=1;a=2"), PreconditionError);
}

TEST(SweepPlan, GridAndExplicitModesCannotMix) {
  Sweep grid;
  grid.axis("a", {"1"});
  EXPECT_THROW(grid.add_point({{"b", "2"}}), PreconditionError);
  Sweep list;
  list.add_point({{"b", "2"}});
  EXPECT_THROW(list.axis("a", {"1"}), PreconditionError);
}

TEST(SweepPlan, PointAccessors) {
  Sweep sweep;
  sweep.add_point({{"n", "7"}, {"x", "1.5"}, {"s", "abc"}});
  const auto p = sweep.points().at(0);
  EXPECT_EQ(p.get_u64("n", 0), 7u);
  EXPECT_DOUBLE_EQ(p.get_f64("x", 0), 1.5);
  EXPECT_EQ(p.get("missing", "fallback"), "fallback");
  EXPECT_EQ(p.get_u64("missing", 9), 9u);
  EXPECT_THROW(p.at("missing"), PreconditionError);
  EXPECT_THROW(p.get_u64("s", 0), PreconditionError);
  EXPECT_THROW(p.get_f64("s", 0), PreconditionError);
  // The one number rule (util/parse.hpp): the whole value, no sign on a
  // count, no blanks, in range for the field, finite.
  Sweep bad;
  for (const char* v : {"-1", "+5", " 7", "7abc", "99999999999999999999999",
                        "nan", "1e400"})
    bad.add_point({{"v", v}});
  for (const auto& q : bad.points()) {
    SCOPED_TRACE(q.at("v"));
    EXPECT_THROW(q.get_u64("v", 0), PreconditionError);
    EXPECT_THROW(q.get_u32("v", 0), PreconditionError);
  }
  // As reals, -1 and 1e23 are numbers; the other five are not.
  for (const std::size_t k : {1, 2, 3, 5, 6})
    EXPECT_THROW(bad.point_at(k).get_f64("v", 0), PreconditionError) << k;
  Sweep wide;
  wide.add_point({{"n", "4294967296"}});
  EXPECT_EQ(wide.point_at(0).get_u64("n", 0), 4294967296u);
  EXPECT_THROW(wide.point_at(0).get_u32("n", 0), PreconditionError);
}

TEST(ResultTableTest, RowsSortByPointAndColumnsUnionInOrder) {
  ResultTable table;
  table.add({2, 22, {{"a", "1"}, {"c", "3"}}});
  table.add({0, 20, {{"a", "4"}, {"b", "5"}}});
  table.add({1, 21, {{"b", "6"}}});
  EXPECT_EQ(table.columns(),
            (std::vector<std::string>{"point", "seed", "a", "b", "c"}));
  EXPECT_EQ(table.csv(),
            "point,seed,a,b,c\n"
            "0,20,4,5,\n"
            "1,21,,6,\n"
            "2,22,1,,3\n");
  EXPECT_THROW(table.add({1, 0, {}}), PreconditionError);
}

TEST(ResultTableTest, JsonRendering) {
  ResultTable table;
  table.add({0, 9, {{"metric", "val\"ue"}}});
  EXPECT_EQ(table.json(),
            "{\n  \"columns\": [\"point\", \"seed\", \"metric\"],\n"
            "  \"rows\": [\n"
            "    {\"point\": 0, \"seed\": 9, \"metric\": \"val\\\"ue\"}\n"
            "  ]\n}\n");
  EXPECT_EQ(ResultTable{}.json(),
            "{\n  \"columns\": [\"point\", \"seed\"],\n  \"rows\": []\n}\n");
}

TEST(ResultTableTest, JsonCellsRoundTripEveryControlCharacter) {
  std::string cell;
  for (char c = 0x01; c < 0x20; ++c) cell += c;
  ResultTable table;
  table.add({0, 9, {{"metric", cell}}});
  const auto doc = rispp::obs::json::parse(table.json());
  EXPECT_EQ(doc.at("rows").items().at(0).at("metric").as_string(), cell);
  // Carriage return takes the generic \u00XX escape, as in reports and
  // traces.
  EXPECT_NE(table.json().find("\\u000d"), std::string::npos);
}

TEST(ResultTableTest, RaggedRowsRenderEmptyCellsInBothFormats) {
  ResultTable table;
  table.add({0, 10, {{"a", "1"}, {"b", "2"}}});
  table.add({1, 11, {}});  // a row with no cells at all
  table.add({2, 12, {{"b", "3"}}});
  EXPECT_EQ(table.csv(),
            "point,seed,a,b\n"
            "0,10,1,2\n"
            "1,11,,\n"
            "2,12,,3\n");
  // JSON rows carry only the cells they have; absent cells are absent keys.
  EXPECT_NE(table.json().find("{\"point\": 1, \"seed\": 11}"),
            std::string::npos);
}

TEST(ResultTableTest, DuplicateCellKeysCsvTakesFirstJsonKeepsBoth) {
  ResultTable table;
  table.add({0, 5, {{"m", "first"}, {"m", "second"}}});
  // The column union lists `m` once and CSV resolves it via the row's first
  // occurrence; JSON echoes cells verbatim, duplicates included.
  EXPECT_EQ(table.columns(),
            (std::vector<std::string>{"point", "seed", "m"}));
  EXPECT_EQ(table.csv(), "point,seed,m\n0,5,first\n");
  EXPECT_NE(table.json().find("\"m\": \"first\", \"m\": \"second\""),
            std::string::npos);
}

TEST(ResultTableTest, CsvQuotesCommasQuotesAndNewlines) {
  ResultTable table;
  table.add({0, 1,
             {{"plain", "x"},
              {"comma", "a,b"},
              {"quote", "say \"hi\""},
              {"newline", "two\nlines"}}});
  EXPECT_EQ(table.csv(),
            "point,seed,plain,comma,quote,newline\n"
            "0,1,x,\"a,b\",\"say \"\"hi\"\"\",\"two\nlines\"\n");
}

TEST(ResultTableTest, OutOfOrderAddsMatchAscendingAddsByteForByte) {
  const auto row = [](std::size_t p) {
    return ResultRow{p, 100 + p, {{"v", std::to_string(p)}}};
  };
  ResultTable ascending, shuffled;
  for (const std::size_t p : {0u, 1u, 2u, 3u, 4u, 5u}) ascending.add(row(p));
  for (const std::size_t p : {4u, 0u, 5u, 2u, 1u, 3u}) shuffled.add(row(p));
  EXPECT_EQ(shuffled.csv(), ascending.csv());
  EXPECT_EQ(shuffled.json(), ascending.json());
  // Duplicates are caught on both the append fast path and the sorted
  // insert fallback.
  EXPECT_THROW(ascending.add(row(5)), PreconditionError);
  EXPECT_THROW(ascending.add(row(2)), PreconditionError);
}

TEST(PlatformTest, BuiltinsAndParetoTables) {
  for (const auto& name : Platform::builtin_names()) {
    const auto platform = Platform::builtin(name);
    EXPECT_EQ(platform->name(), name);
    for (std::size_t s = 0; s < platform->library().size(); ++s) {
      const auto direct =
          platform->library().at(s).pareto_front(platform->catalog());
      ASSERT_EQ(platform->pareto(s).size(), direct.size());
      for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(platform->pareto(s)[i].cycles, direct[i].cycles);
        EXPECT_EQ(platform->pareto(s)[i].rotatable_atoms,
                  direct[i].rotatable_atoms);
      }
    }
  }
  EXPECT_THROW(Platform::builtin("nope"), PreconditionError);
}

TEST(PlatformTest, FromFileParsesOnce) {
  // Platform::resolve takes the NAME|FILE argument of every tool: a
  // built-in name is the shared snapshot, anything else a library file.
  const auto path = ::testing::TempDir() + "rispp_exp_lib.txt";
  {
    std::ofstream out(path);
    rispp::isa::write_si_library(out, rispp::isa::SiLibrary::h264());
  }
  const auto platform = Platform::resolve(path);
  EXPECT_EQ(platform->name(), path);
  EXPECT_EQ(platform->library().size(),
            rispp::isa::SiLibrary::h264().size());
  for (const auto& name : Platform::builtin_names())
    EXPECT_EQ(Platform::resolve(name), Platform::builtin(name));
  EXPECT_THROW(Platform::resolve("/nonexistent/lib.txt"), PreconditionError);
  EXPECT_THROW(Platform::resolve("h264_sad"), PreconditionError);
}

/// A cheap pure-ISA evaluator for scheduling-focused tests.
PointMetrics cheap_eval(const Platform& platform, const SweepPoint& point) {
  const auto& si = platform.library().find(point.at("si"));
  const auto best =
      si.best_with_budget(point.get_u64("budget", 0), platform.catalog());
  return {{"cycles",
           std::to_string(best ? best->cycles : si.software_cycles())}};
}

Sweep cheap_sweep(const Platform& platform) {
  Sweep sweep;
  std::vector<std::string> names;
  for (const auto& si : platform.library().sis()) names.push_back(si.name());
  sweep.axis("si", names)
      .axis("budget", {"0", "2", "4", "8", "16"})
      .base_seed(3);
  return sweep;
}

TEST(RunnerTest, ResultsAreByteIdenticalAtAnyWorkerCount) {
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  const auto serial = Runner(platform, {1}).run(sweep, cheap_eval);
  EXPECT_EQ(serial.size(), sweep.size());
  for (const unsigned jobs : {2u, 4u, 8u}) {
    const auto parallel = Runner(platform, {jobs}).run(sweep, cheap_eval);
    EXPECT_EQ(parallel.csv(), serial.csv()) << jobs << " workers";
    EXPECT_EQ(parallel.json(), serial.json()) << jobs << " workers";
  }
}

TEST(RunnerTest, JobsZeroMeansHardwareConcurrency) {
  const Runner runner(Platform::builtin("h264"), {0});
  EXPECT_GE(runner.jobs(), 1u);
}

TEST(RunnerTest, EvaluatorExceptionsPropagateToTheCaller) {
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  const auto faulty = [](const Platform& p, const SweepPoint& point) {
    if (point.index == 7) throw PreconditionError("point 7 is cursed");
    return cheap_eval(p, point);
  };
  for (const unsigned jobs : {1u, 4u})
    EXPECT_THROW(Runner(platform, {jobs}).run(sweep, faulty),
                 PreconditionError);
}

TEST(RunnerTest, ConcurrentRunnersShareOnePlatformSafely) {
  // Two full sweeps race on the same immutable snapshot; both must match
  // the serial reference (the sanitizer presets watch the memory accesses).
  const auto platform = Platform::builtin("h264_frame");
  Sweep sweep;
  sweep.axis("workload", {"enc", "dec"})
      .axis("containers", {"4", "8"})
      .axis("frames", {"1"})
      .axis("mb", {"8"});
  const auto reference = Runner(platform, {1}).run(sweep, run_sim_point);
  std::string a, b;
  std::thread ta([&] { a = Runner(platform, {2}).run(sweep, run_sim_point).csv(); });
  std::thread tb([&] { b = Runner(platform, {2}).run(sweep, run_sim_point).csv(); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, reference.csv());
  EXPECT_EQ(b, reference.csv());
}

TEST(StandardEval, SweepValidationFailsFastOnTypos) {
  const auto platform = Platform::builtin("h264");
  // Unknown policy key: rejected before any worker runs, with the
  // registered keys listed (the util::Error contract of rt::validate).
  Sweep bad_policy;
  bad_policy.axis("selector", {"greedy", "greedyy"});
  try {
    run_sim_sweep(platform, bad_policy, 2);
    FAIL() << "expected util::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("greedy"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("exhaustive"), std::string::npos);
  }
  Sweep bad_count;  // a signed count, not 2^32-1 Atom Containers
  bad_count.axis("workload", {"enc"}).axis("containers", {"-1"});
  EXPECT_THROW(validate_sim_sweep(bad_count), PreconditionError);
  Sweep bad_workload;
  bad_workload.axis("workload", {"doom"});
  EXPECT_THROW(validate_sim_sweep(bad_workload), PreconditionError);
  // A key the evaluator does not read is an error naming it, not an axis
  // silently run at the defaults: a misspelt knob, a removed one, and a
  // misspelt lib_* axis (which would still swap in a default library).
  const std::pair<const char*, const char*> unknown[] = {
      {"workload=enc;contaners=4", "'contaners'"},
      {"workload=enc;driving=poll-every-switch", "'driving'"},
      {"workload=generated;lib_atom=5", "'lib_atom'"}};
  for (const auto& [grid, key] : unknown) {
    try {
      validate_sim_sweep(Sweep::parse_grid(grid));
      ADD_FAILURE() << "expected PreconditionError for " << grid;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
          << e.what();
    }
  }
  // A report_dir that is not an existing directory fails up front, naming
  // it, instead of after the first point has run; a file is not a
  // directory either.
  const auto file = testing::TempDir() + "report_dir_is_a_file";
  std::ofstream(file) << "x";
  for (const auto& dir : {std::string("no_such_report_dir"), file}) {
    Sweep bad_dir;
    bad_dir.axis("workload", {"enc"})
        .axis("containers", {"4", "6"})
        .axis("report_dir", {dir});
    try {
      validate_sim_sweep(bad_dir);
      ADD_FAILURE() << "expected PreconditionError for " << dir;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + dir + "'"),
                std::string::npos)
          << e.what();
    }
  }
  Sweep good;
  good.axis("workload", {"enc"}).axis("replacement", {"lru", "mru"});
  EXPECT_NO_THROW(validate_sim_sweep(good));
  good.axis("report_dir", {testing::TempDir()});
  EXPECT_NO_THROW(validate_sim_sweep(good));
}

TEST(StandardEval, JitterDrawsFromThePointSeed) {
  const auto platform = Platform::builtin("h264");
  Sweep sweep;
  sweep.axis("workload", {"fig7"})
      .axis("mb", {"4"})
      .axis("jitter", {"0.2"});
  const auto first = run_sim_sweep(platform, sweep, 1);
  const auto again = run_sim_sweep(platform, sweep, 2);
  EXPECT_EQ(first.csv(), again.csv());  // same seeds → same jitter
  Sweep reseeded = sweep;
  reseeded.base_seed(99);
  const auto other = run_sim_sweep(platform, reseeded, 1);
  EXPECT_NE(other.rows().at(0).at("cycles"),
            first.rows().at(0).at("cycles"));
}

TEST(StandardEval, PerPointReportsAreByteIdenticalAtAnyWorkerCount) {
  // A `report_dir` axis makes every point drop a run report; the payload
  // carries only the point label (no paths, no times), so the bytes must
  // not depend on the worker count that produced them.
  const auto platform = Platform::builtin("h264_frame");
  const auto run_with = [&](unsigned jobs, const std::string& dir) {
    std::filesystem::create_directories(dir);
    Sweep sweep;
    sweep.axis("workload", {"enc", "dec"})
        .axis("containers", {"4", "6"})
        .axis("frames", {"1"})
        .axis("mb", {"8"})
        .axis("report_dir", {dir})
        .base_seed(1);
    (void)run_sim_sweep(platform, sweep, jobs);
    std::vector<std::string> reports;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      std::ifstream in(dir + "/point_" + std::to_string(i) + ".report.json",
                       std::ios::binary);
      EXPECT_TRUE(in.good()) << "missing report for point " << i;
      std::stringstream ss;
      ss << in.rdbuf();
      reports.push_back(ss.str());
    }
    return reports;
  };
  const auto serial = run_with(1, ::testing::TempDir() + "rispp_reports_j1");
  const auto parallel = run_with(4, ::testing::TempDir() + "rispp_reports_j4");
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_FALSE(serial[i].empty()) << i;
    EXPECT_EQ(serial[i], parallel[i]) << "report for point " << i
                                      << " depends on the worker count";
  }
  EXPECT_NE(serial[0].find("\"scenario\": \"point_0\""), std::string::npos);
}

TEST(StandardEval, GoldenSweepMatchesCheckedInCsv) {
  // The grid SweepArtifactsGolden runs through tools/rispp_sweep --jobs=2.
  auto sweep = Sweep::parse_grid(
      "workload=enc;frames=1;mb=20;containers=4,6;quantum=10000,30000");
  sweep.base_seed(1);
  const auto table =
      run_sim_sweep(Platform::builtin("h264_frame"), sweep, 2);
  std::ifstream in(std::string(RISPP_TEST_DATA_DIR) + "/sweep_golden.csv",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(table.csv(), golden.str());
}

}  // namespace
