/// Event-driven reallocation kernel tests: the refactored plan→gate→
/// cancel-stale→issue pipeline must reproduce the seed simulator's Fig-6
/// event stream byte-for-byte, the simulator must match the poll-every-switch
/// reference host (tests/reference_host.hpp) on it and on a polling-heavy
/// co-run whose kernel entries are pinned for both hosts, every reallocation
/// re-plans and a poll between completions changes nothing, and
/// Molecule-upgrade detection must not leak across tasks and takes only
/// task ids the profiler takes.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "rispp/h264/phases.hpp"
#include "rispp/isa/io.hpp"
#include "rispp/obs/trace_export.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/error.hpp"
#include "rispp/workload/trace_source.hpp"
#include "reference_host.hpp"

namespace {

using namespace rispp::sim;
using rispp::rt::RisppManager;
using rispp::rt::RtConfig;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

SimConfig fig06_config() {
  SimConfig cfg;
  cfg.rt.atom_containers = 6;
  cfg.quantum = 25000;
  return cfg;
}

TEST(KernelGoldenTrace, Fig06EventStreamMatchesSeedByteForByte) {
  const auto lib = rispp::isa::SiLibrary::h264();
  rispp::obs::TraceRecorder recorder;
  auto cfg = fig06_config();
  cfg.rt.sink = &recorder;
  Simulator sim(borrow(lib), cfg);
  rispp::workload::TraceSource::make_fig06(lib)->add_to(sim);
  (void)sim.run();
  const auto path = ::testing::TempDir() + "rispp_fig06_wakeup.csv";
  rispp::obs::write_trace_file(path, recorder.events(),
                               make_trace_meta(lib, cfg, {"A", "B"}));
  const auto csv = read_file(path);
  const auto golden = read_file(std::string(RISPP_TEST_DATA_DIR) +
                                "/fig06_golden.csv");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(csv, golden)
      << "refactored kernel diverged from the seed fig06 event stream";
}

TEST(KernelGoldenTrace, WakeupDrivingEqualsEverySwitchPolling) {
  // The reference host polls at every switch, so by the test above its
  // stream equals the golden too.
  const auto lib = rispp::isa::SiLibrary::h264();
  reference_host::expect_same_run(
      borrow(lib), fig06_config(),
      rispp::workload::TraceSource::make_fig06(lib)->tasks());
}

TEST(KernelGoldenCounts, EncDecCoRunUnderWakeupsAndPolling) {
  // An H.264 encoder and decoder co-run on h264_frame (10 ACs, 4 frames of
  // 99 macroblocks) with a 2000-cycle quantum: many task switches per
  // phase, the case wakeups were built for. Every kernel entry re-plans, so
  // plans equal entries on both hosts. Wakeups enter the kernel only at
  // forecasts, releases and crossed rotation completions; the reference
  // host polls at every switch and enters it ~150x as often, and the extra
  // re-plans reach the same plans and book nothing, so the simulated run
  // is the same.
  const auto lib = rispp::isa::SiLibrary::h264_frame();
  SimConfig cfg;
  cfg.rt.atom_containers = 10;
  cfg.quantum = 2000;
  rispp::h264::PhaseTraceParams p;
  p.frames = 4;
  p.macroblocks_per_frame = 99;
  const auto run = reference_host::expect_same_run(
      borrow(lib), cfg,
      {{"enc", rispp::h264::make_phase_trace(lib, p,
                                             rispp::h264::fig1_phases())},
       {"dec", rispp::h264::make_phase_trace(
                   lib, p, rispp::h264::decoder_phases())}});
  EXPECT_EQ(run.result.total_cycles, 80'979'165u);
  EXPECT_EQ(run.result.rotations, 132u);
  EXPECT_EQ(run.sim_counters.get("reallocations"), 274u);
  EXPECT_EQ(run.sim_counters.get("selector_plans"), 274u);
  EXPECT_EQ(run.ref_counters.get("reallocations"), 40'629u);
  EXPECT_EQ(run.ref_counters.get("selector_plans"), 40'629u);
}

class Replan : public ::testing::Test {
 protected:
  rispp::isa::SiLibrary lib_ = rispp::isa::SiLibrary::h264();
  RtConfig cfg_;

  std::uint64_t plans(const RisppManager& mgr) const {
    return mgr.counters().get("selector_plans");
  }
};

TEST_F(Replan, ForecastDirtiesThePlan) {
  RisppManager mgr(borrow(lib_), cfg_);
  mgr.forecast(lib_.index_of("SATD_4x4"), 5000, 1.0, 0);
  EXPECT_EQ(plans(mgr), 1u);
  mgr.forecast(lib_.index_of("DCT_4x4"), 100, 1.0, 0);
  EXPECT_EQ(plans(mgr), 2u);
}

TEST_F(Replan, ReleaseDirtiesThePlan) {
  RisppManager mgr(borrow(lib_), cfg_);
  mgr.forecast(lib_.index_of("SATD_4x4"), 5000, 1.0, 0);
  const auto before = plans(mgr);
  mgr.forecast_release(lib_.index_of("SATD_4x4"), 10);
  EXPECT_EQ(plans(mgr), before + 1);
  // Releasing an SI that holds no active forecast is not a demand change.
  mgr.forecast_release(lib_.index_of("HT_4x4"), 20);
  EXPECT_EQ(plans(mgr), before + 1);
}

TEST_F(Replan, PollsBeforeTheFirstCompletionChangeNothing) {
  rispp::obs::TraceRecorder recorder;
  cfg_.sink = &recorder;
  RisppManager mgr(borrow(lib_), cfg_);
  mgr.forecast(lib_.index_of("SATD_4x4"), 5000, 1.0, 0);
  ASSERT_GT(mgr.rotations_performed(), 0u);
  const auto wake = mgr.next_wakeup(0);
  ASSERT_TRUE(wake.has_value());
  ASSERT_GT(*wake, 2u);
  mgr.flush_events();
  const auto events = recorder.events().size();
  const auto rotations = mgr.rotations_performed();
  const auto generation = mgr.state_generation();
  const auto before = plans(mgr);
  // No completion, unblock, failure or demand change since the forecast's
  // plan: each poll re-plans to the same plan, and issue() finds no victim.
  mgr.poll(1);
  mgr.poll(2);
  mgr.poll(*wake - 1);
  EXPECT_EQ(plans(mgr), before + 3);
  EXPECT_EQ(mgr.rotations_performed(), rotations);
  EXPECT_EQ(recorder.events().size(), events);
  EXPECT_EQ(mgr.state_generation(), generation);
}

/// Two disjoint single-molecule SIs over one container: forecasting B after
/// A forces the lone container to flip, so A's SI oscillates HW ↔ SW.
const char* kTwoTaskLibrary = R"(
catalog
  atom P slices=100 luts=200 bitstream=50000 rotatable
  atom Q slices=100 luts=200 bitstream=50000 rotatable
end

si XA software=1000
  molecule cycles=100 P=1
end

si YB software=500
  molecule cycles=50 Q=1
end
)";

TEST(MoleculeUpgrade, FirstObservationOfAnotherTaskIsNotAnUpgrade) {
  const auto lib = rispp::isa::parse_si_library(kTwoTaskLibrary);
  const auto xa = lib.index_of("XA");
  const auto yb = lib.index_of("YB");

  rispp::obs::TraceRecorder recorder;
  RtConfig cfg;
  cfg.atom_containers = 1;
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib), cfg);

  // Task 0 brings XA into hardware and executes it.
  mgr.forecast(xa, 1000, 1.0, 0, /*task=*/0);
  rispp::rt::Cycle now = 1'000'000;  // P's transfer completed long ago
  EXPECT_TRUE(mgr.execute(xa, now, /*task=*/0).hardware);

  // Task 1's heavier demand flips the lone container to Q; XA falls back
  // to software for everyone.
  mgr.forecast(yb, 100000, 1.0, now + 1, /*task=*/1);
  now += 1'000'000;  // Q's transfer completed
  EXPECT_FALSE(mgr.execute(xa, now, /*task=*/1).hardware);   // task 1, first
  EXPECT_FALSE(mgr.execute(xa, now + 10, /*task=*/0).hardware);  // task 0

  // Emissions are batched (obs::EventBatch): hosts reading the sink between
  // reallocation boundaries flush first.
  mgr.flush_events();

  unsigned task0_upgrades = 0, task1_upgrades = 0;
  for (const auto& e : recorder.events()) {
    if (e.kind != rispp::obs::EventKind::MoleculeUpgraded) continue;
    e.task == 0 ? ++task0_upgrades : ++task1_upgrades;
  }
  // Task 1 never saw XA before its software execution — nothing upgraded
  // (the seed emitted a spurious event here, inheriting task 0's history).
  EXPECT_EQ(task1_upgrades, 0u);
  // Task 0 genuinely went HW → SW.
  EXPECT_EQ(task0_upgrades, 1u);
}

TEST(MoleculeUpgrade, ExecuteWithASinkRejectsTaskIdsTheProfilerWould) {
  // Upgrade rows are dense by task id, under obs::Profiler's rule: ids
  // from −1 (no task), fewer than obs::kMaxDenseIds of them.
  const auto lib = rispp::isa::parse_si_library(kTwoTaskLibrary);
  rispp::obs::TraceRecorder recorder;
  RtConfig cfg;
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib), cfg);
  EXPECT_NO_THROW(mgr.execute(0, 10, -1));
  EXPECT_THROW(mgr.execute(0, 20, -2), rispp::util::PreconditionError);
  EXPECT_THROW(mgr.execute(0, 30, 1 << 20), rispp::util::PreconditionError);
  // A rejected call executes nothing.
  mgr.flush_events();
  ASSERT_EQ(recorder.events().size(), 1u);
  EXPECT_EQ(recorder.events()[0].task, -1);
  EXPECT_EQ(mgr.counters().get("si_exec_sw"), 1u);
}

}  // namespace
