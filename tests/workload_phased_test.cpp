/// PhasedWorkload: §8 config parsing with line-numbered diagnostics, the
/// byte-determinism contract, phase-boundary exactness, and the checked-in
/// golden trace the WorkloadGolden ctests also pin.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rispp/isa/si_library.hpp"
#include "rispp/sim/trace_io.hpp"
#include "rispp/workload/phased.hpp"

namespace {

using rispp::isa::SiLibrary;
using rispp::workload::parse_phased_config;
using rispp::workload::PhasedConfig;
using rispp::workload::PhasedStats;
using rispp::workload::PhasedWorkload;
using rispp::workload::WorkloadConfigError;
using rispp::workload::write_phased_config;

const char* const kConfig = R"(workload demo
  tasks 5
  seed 11
  task_chooser zipfian 0.8

phase warm
  events 30
  mix SATD_4x4=2 DCT_4x4
  compute 2000 5000

phase burst
  events 50
  mix HT_4x4 HT_2x2
  si_chooser zipfian 0.9
  task_chooser hotset 0.4 0.9
  si_count 3
  rate 1 4
  burst period=10 amplitude=0.3
  forecast 0.7

phase tail
  events 10
  mix DCT_4x4
  si_chooser uniform
  compute 4000
  rate 0.5
  forecast off
)";

/// Expects `text` to fail parsing, returning the error for inspection.
WorkloadConfigError parse_error(const std::string& text) {
  try {
    (void)parse_phased_config(text);
  } catch (const WorkloadConfigError& e) {
    return e;
  }
  ADD_FAILURE() << "config parsed unexpectedly:\n" << text;
  return WorkloadConfigError(0, "no error");
}

std::string serialize(const PhasedWorkload& w) {
  std::ostringstream out;
  rispp::sim::write_tasks(out, w.generate(), w.library());
  return out.str();
}

TEST(PhasedConfig, ParsesTheFullGrammar) {
  const auto cfg = parse_phased_config(kConfig);
  EXPECT_EQ(cfg.name, "demo");
  EXPECT_EQ(cfg.tasks, 5u);
  EXPECT_EQ(cfg.seed, 11u);
  EXPECT_EQ(cfg.task_chooser.describe(), "zipfian 0.8");
  ASSERT_EQ(cfg.phases.size(), 3u);

  const auto& warm = cfg.phases[0];
  EXPECT_EQ(warm.name, "warm");
  EXPECT_EQ(warm.events, 30u);
  ASSERT_EQ(warm.mix.size(), 2u);
  EXPECT_EQ(warm.mix[0].first, "SATD_4x4");
  EXPECT_DOUBLE_EQ(warm.mix[0].second, 2.0);
  EXPECT_DOUBLE_EQ(warm.mix[1].second, 1.0);  // weight defaults to 1
  EXPECT_EQ(warm.compute_min, 2000u);
  EXPECT_EQ(warm.compute_max, 5000u);
  EXPECT_TRUE(warm.forecast);

  const auto& burst = cfg.phases[1];
  ASSERT_TRUE(burst.task_chooser.has_value());
  EXPECT_EQ(burst.si_count, 3u);
  EXPECT_DOUBLE_EQ(burst.rate_begin, 1.0);
  EXPECT_DOUBLE_EQ(burst.rate_end, 4.0);
  EXPECT_EQ(burst.burst_period, 10u);
  EXPECT_DOUBLE_EQ(burst.burst_amplitude, 0.3);
  EXPECT_DOUBLE_EQ(burst.forecast_probability, 0.7);

  const auto& tail = cfg.phases[2];
  EXPECT_EQ(tail.compute_min, 4000u);
  EXPECT_EQ(tail.compute_max, 4000u);  // MAX defaults to MIN
  EXPECT_FALSE(tail.forecast);
}

TEST(PhasedConfig, WriteParseRoundTripIsStable) {
  const auto cfg = parse_phased_config(kConfig);
  std::ostringstream first;
  write_phased_config(first, cfg);
  const auto reparsed = parse_phased_config(first.str());
  std::ostringstream second;
  write_phased_config(second, reparsed);
  EXPECT_EQ(first.str(), second.str());
}

TEST(PhasedConfig, ErrorsCarryTheOffendingLine) {
  // Line numbers are 1-based and point at the directive that failed.
  EXPECT_EQ(parse_error("workload x\n  frobnicate 3\n").line(), 2u);
  EXPECT_EQ(parse_error("phase p\n  events 5\n  mix A\n  warble\n").line(),
            4u);
  EXPECT_EQ(parse_error("workload a\nworkload b\n").line(), 2u);
}

TEST(PhasedConfig, RejectsMalformedDirectives) {
  // Unknown directives name themselves in the message.
  EXPECT_NE(std::string(parse_error("workload x\n  frobnicate 3\n").what())
                .find("frobnicate"),
            std::string::npos);
  (void)parse_error("phase p\n  events 0\n  mix A\n");     // zero events
  (void)parse_error("phase p\n  events 5\n");              // missing mix
  (void)parse_error("phase p\n  events 5\n  mix A A\n");   // duplicate mix
  (void)parse_error("phase p\n  events 5\n  mix A=0\n");   // zero weight
  (void)parse_error("phase p\n  events 5\n  mix A\n  si_chooser zipfian 1.5\n");
  (void)parse_error("phase p\n  events 5\n  mix A\n  si_chooser sideways\n");
  (void)parse_error(
      "phase p\n  events 5\n  mix A\n  task_chooser weighted\n");
  (void)parse_error("phase p\n  events 5\n  mix A\n  compute 0\n");
  (void)parse_error("phase p\n  events 5\n  mix A\n  compute 10 5\n");
  (void)parse_error("phase p\n  events 5\n  mix A\n  rate 0\n");
  (void)parse_error(
      "phase p\n  events 5\n  mix A\n  burst period=0 amplitude=0.5\n");
  (void)parse_error(
      "phase p\n  events 5\n  mix A\n  burst period=8 amplitude=1.5\n");
  (void)parse_error("phase p\n  events 5\n  mix A\n  forecast 0\n");
  (void)parse_error("workload x\n  tasks 0\n");
  (void)parse_error("workload x\n  tasks nope\n");
  (void)parse_error("");  // no phases at all
}

TEST(PhasedWorkload, ConstructorRejectsUnknownSis) {
  const auto lib = SiLibrary::h264();
  try {
    (void)PhasedWorkload::from_string(
        "phase p\n  events 5\n  mix NO_SUCH_SI\n", borrow(lib));
    FAIL() << "unknown SI accepted";
  } catch (const WorkloadConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("NO_SUCH_SI"), std::string::npos);
  }
}

TEST(PhasedWorkload, FromFileReportsMissingFiles) {
  const auto lib = SiLibrary::h264();
  EXPECT_THROW((void)PhasedWorkload::from_file("/no/such/file.workload",
                                               borrow(lib)),
               WorkloadConfigError);
}

TEST(PhasedWorkload, TwoInstancesGenerateByteIdenticalTraces) {
  const auto lib = SiLibrary::h264();
  const auto a = PhasedWorkload::from_string(kConfig, borrow(lib));
  const auto b = PhasedWorkload::from_string(kConfig, borrow(lib));
  const auto text = serialize(a);
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text, serialize(b));
  // generate() is pure: a second call on the same instance matches too.
  EXPECT_EQ(text, serialize(a));
}

TEST(PhasedWorkload, SeedOverrideChangesTheTrace) {
  const auto lib = SiLibrary::h264();
  const auto base = PhasedWorkload::from_string(kConfig, borrow(lib));
  const auto reseeded =
      PhasedWorkload::from_string(kConfig, borrow(lib), /*seed=*/999);
  EXPECT_EQ(reseeded.config().seed, 999u);
  EXPECT_NE(serialize(base), serialize(reseeded));
}

TEST(PhasedWorkloadProperty, PhaseBoundariesLandOnExactEventCounts) {
  const auto lib = SiLibrary::h264();
  const auto workload = PhasedWorkload::from_string(kConfig, borrow(lib));
  PhasedStats stats;
  const auto tasks = workload.generate(&stats);
  const auto& cfg = workload.config();
  ASSERT_EQ(tasks.size(), cfg.tasks);
  ASSERT_EQ(stats.phases.size(), cfg.phases.size());

  // Per-phase stats hit the configured event counts exactly, and SI
  // invocations are exactly events * si_count — the generator never drops
  // or duplicates an event.
  std::uint64_t want_events = 0, want_invocations = 0;
  for (std::size_t i = 0; i < cfg.phases.size(); ++i) {
    EXPECT_EQ(stats.phases[i].events, cfg.phases[i].events) << "phase " << i;
    EXPECT_EQ(stats.phases[i].si_invocations,
              cfg.phases[i].events * cfg.phases[i].si_count)
        << "phase " << i;
    // Every (task, SI) pair forecast in a phase is released at its end.
    EXPECT_EQ(stats.phases[i].releases, stats.phases[i].forecasts)
        << "phase " << i;
    want_events += cfg.phases[i].events;
    want_invocations += cfg.phases[i].events * cfg.phases[i].si_count;
  }
  EXPECT_EQ(stats.events, want_events);
  EXPECT_EQ(stats.si_invocations, want_invocations);

  // The traces agree with the stats: burst events never merge, so the Si op
  // count across all tasks is exactly the total event count, and op counts
  // sum to the invocation total.
  std::uint64_t si_ops = 0, invocations = 0, forecasts = 0, releases = 0;
  for (const auto& task : tasks) {
    for (const auto& op : task.trace) {
      using Kind = rispp::sim::TraceOp::Kind;
      if (op.kind == Kind::Si) {
        ++si_ops;
        invocations += op.count;
      } else if (op.kind == Kind::Forecast) {
        ++forecasts;
      } else if (op.kind == Kind::Release) {
        ++releases;
      }
    }
  }
  EXPECT_EQ(si_ops, want_events);
  EXPECT_EQ(invocations, want_invocations);
  EXPECT_EQ(forecasts, stats.forecasts);
  EXPECT_EQ(releases, stats.releases);

  // events_per_task partitions the event total.
  ASSERT_EQ(stats.events_per_task.size(), cfg.tasks);
  std::uint64_t across_tasks = 0;
  for (const auto n : stats.events_per_task) across_tasks += n;
  EXPECT_EQ(across_tasks, want_events);
}

TEST(PhasedWorkload, GeneratedTracesRoundTripThroughTraceIo) {
  const auto lib = SiLibrary::h264();
  const auto workload = PhasedWorkload::from_string(kConfig, borrow(lib));
  const auto text = serialize(workload);
  const auto reparsed = rispp::sim::parse_tasks(text, lib);
  std::ostringstream again;
  rispp::sim::write_tasks(again, reparsed, lib);
  EXPECT_EQ(text, again.str());
}

TEST(PhasedWorkloadGolden, SmallWorkloadTraceIsPinned) {
  // The same pairing the WorkloadGolden.generate ctest checks through the
  // CLI: the fixture config must keep producing tests/data/smoke.trace byte
  // for byte. If a deliberate generator change lands, regenerate the golden
  // as docs/testing.md "Golden files" says.
  const auto lib = SiLibrary::h264();
  const auto workload = PhasedWorkload::from_file(
      RISPP_TEST_DATA_DIR "/phased_small.workload", borrow(lib));
  std::ifstream golden(RISPP_TEST_DATA_DIR "/smoke.trace",
                       std::ios::binary);
  ASSERT_TRUE(golden.good());
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(serialize(workload), want.str());
}

}  // namespace
