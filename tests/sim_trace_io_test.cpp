/// The trace text format: parsing, error reporting, round-trips, and
/// execution equivalence with programmatically built traces.

#include <gtest/gtest.h>

#include <sstream>

#include "rispp/sim/simulator.hpp"
#include "rispp/sim/trace_io.hpp"

namespace {

using namespace rispp::sim;
using rispp::isa::SiLibrary;

const char* kTwoTasks = R"(
# Fig-6-flavoured two-task scenario
task A
  forecast SATD_4x4 256 0.9
  compute 30000
  si SATD_4x4 10
  label "A warmed up"
task B
  compute 50000
  si HT_2x2           # count defaults to 1
  release SATD_4x4
)";

TEST(TraceIo, ParsesTwoTasks) {
  const auto lib = SiLibrary::h264();
  const auto tasks = parse_tasks(kTwoTasks, lib);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].name, "A");
  ASSERT_EQ(tasks[0].trace.size(), 4u);
  EXPECT_EQ(tasks[0].trace[0].kind, TraceOp::Kind::Forecast);
  EXPECT_DOUBLE_EQ(tasks[0].trace[0].expected, 256.0);
  EXPECT_DOUBLE_EQ(tasks[0].trace[0].probability, 0.9);
  EXPECT_EQ(tasks[0].trace[2].count, 10u);
  EXPECT_EQ(tasks[0].trace[3].text, "A warmed up");
  ASSERT_EQ(tasks[1].trace.size(), 3u);
  EXPECT_EQ(tasks[1].trace[1].count, 1u);  // default count
  EXPECT_EQ(tasks[1].trace[2].kind, TraceOp::Kind::Release);
}

TEST(TraceIo, RoundTrip) {
  const auto lib = SiLibrary::h264();
  const auto tasks = parse_tasks(kTwoTasks, lib);
  std::ostringstream os;
  write_tasks(os, tasks, lib);
  const auto reparsed = parse_tasks(os.str(), lib);
  ASSERT_EQ(reparsed.size(), tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    ASSERT_EQ(reparsed[t].trace.size(), tasks[t].trace.size());
    for (std::size_t o = 0; o < tasks[t].trace.size(); ++o) {
      EXPECT_EQ(reparsed[t].trace[o].kind, tasks[t].trace[o].kind);
      EXPECT_EQ(reparsed[t].trace[o].cycles, tasks[t].trace[o].cycles);
      EXPECT_EQ(reparsed[t].trace[o].si_index, tasks[t].trace[o].si_index);
      EXPECT_EQ(reparsed[t].trace[o].count, tasks[t].trace[o].count);
      EXPECT_EQ(reparsed[t].trace[o].text, tasks[t].trace[o].text);
    }
  }
  // Canonical: second write identical.
  std::ostringstream os2;
  write_tasks(os2, reparsed, lib);
  EXPECT_EQ(os2.str(), os.str());
}

TEST(TraceIo, ForecastRealsRoundTripBitForBit) {
  // Reals are written in their shortest exact form: six significant digits
  // would read 0.123456789 back as 0.123457 and 1234567 as 1234570.
  const auto lib = SiLibrary::h264();
  const auto satd = lib.index_of("SATD_4x4");
  TaskDef task;
  task.name = "A";
  task.trace = {TraceOp::forecast(satd, 1234567.0, 0.123456789),
                TraceOp::forecast(satd, 0.1 + 0.2, 1.0 / 3.0),
                TraceOp::forecast(satd, 1e-7, 1.0)};
  std::ostringstream os;
  write_tasks(os, {task}, lib);
  const auto back = parse_tasks(os.str(), lib);
  ASSERT_EQ(back.size(), 1u);
  ASSERT_EQ(back[0].trace.size(), task.trace.size());
  for (std::size_t o = 0; o < task.trace.size(); ++o) {
    SCOPED_TRACE(o);
    EXPECT_EQ(back[0].trace[o].expected, task.trace[o].expected);
    EXPECT_EQ(back[0].trace[o].probability, task.trace[o].probability);
  }
  EXPECT_NE(os.str().find("forecast SATD_4x4 1234567 0.123456789\n"),
            std::string::npos)
      << os.str();
}

TEST(TraceIo, ParsedTraceExecutesLikeBuiltTrace) {
  const auto lib = SiLibrary::h264();
  const std::string text =
      "task t\n  forecast SATD_4x4 500\n  compute 500000\n  si SATD_4x4 100\n";
  const auto tasks = parse_tasks(text, lib);

  Trace built;
  built.push_back(TraceOp::forecast(lib.index_of("SATD_4x4"), 500));
  built.push_back(TraceOp::compute(500000));
  built.push_back(TraceOp::si(lib.index_of("SATD_4x4"), 100));

  auto run = [&](Trace trace) {
    Simulator sim(borrow(lib), {});
    sim.add_task({"t", std::move(trace)});
    return sim.run().total_cycles;
  };
  EXPECT_EQ(run(tasks[0].trace), run(built));
}

TEST(TraceIo, HashInsideLabelIsNotAComment) {
  const auto lib = SiLibrary::h264();
  const auto tasks =
      parse_tasks("task t\n  label \"phase #2 starts\"\n", lib);
  EXPECT_EQ(tasks[0].trace[0].text, "phase #2 starts");
}

TEST(TraceIo, ErrorsCarryLineNumbers) {
  const auto lib = SiLibrary::h264();
  auto expect_error_at = [&](const std::string& text, std::size_t line) {
    try {
      parse_tasks(text, lib);
      FAIL() << "expected TraceParseError";
    } catch (const TraceParseError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
  };
  expect_error_at("compute 5\n", 1);                       // op before task
  expect_error_at("task t\n  si NOPE 3\n", 2);             // unknown SI
  expect_error_at("task t\n  compute abc\n", 2);           // bad number
  expect_error_at("task t\n  si SATD_4x4 0\n", 2);         // zero count
  expect_error_at("task t\n  forecast SATD_4x4 5 1.5\n", 2);  // bad prob
  expect_error_at("task t\n  label no-quotes\n", 2);       // unquoted label
  expect_error_at("task t\n  frobnicate 1\n", 2);          // unknown op
  expect_error_at("", 0);                                  // empty input
}

TEST(TraceIo, RejectsNonDigitLeadingNumbers) {
  // Regression: std::stoull silently wrapped "-1" to 2^64−1 and accepted
  // "+5"; counts and cycles must be plain digit-leading integers.
  const auto lib = SiLibrary::h264();
  for (const char* text : {
           "task t\n  si SATD_4x4 -1\n",
           "task t\n  compute -1\n",
           "task t\n  compute +5\n",
           "task t\n  si SATD_4x4 0x10\n",  // stoull(base 10) stops at 'x'
       }) {
    try {
      parse_tasks(text, lib);
      FAIL() << "expected TraceParseError for: " << text;
    } catch (const TraceParseError& e) {
      EXPECT_EQ(e.line(), 2u) << text;
    }
  }
  // Plain digits still parse.
  const auto tasks = parse_tasks("task t\n  compute 42\n", lib);
  EXPECT_EQ(tasks[0].trace[0].cycles, 42u);
}

TEST(TraceIo, RejectsUnterminatedQuote) {
  const auto lib = SiLibrary::h264();
  auto expect_error_at = [&](const std::string& text, std::size_t line) {
    try {
      parse_tasks(text, lib);
      FAIL() << "expected TraceParseError for: " << text;
    } catch (const TraceParseError& e) {
      EXPECT_EQ(e.line(), line) << e.what();
    }
  };
  // Regression: a quote left open to end-of-line was accepted as a label.
  expect_error_at("task t\n  label \"half open\n", 2);
  // An open quote must not swallow a trailing comment either.
  expect_error_at("task t\n  label \"half open # not a comment\n", 2);
  expect_error_at("task t\n  label \"a\"b\"\n", 2);  // stray third quote
  // Balanced quotes keep working, including '#' inside them.
  const auto tasks =
      parse_tasks("task t\n  label \"ok #1\"  # real comment\n", lib);
  EXPECT_EQ(tasks[0].trace[0].text, "ok #1");
}

}  // namespace
