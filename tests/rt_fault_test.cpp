/// Fault-injection tests for the reconfiguration path: the hw::FaultModel /
/// hw::FaultyReconfigPort layer, the RotationScheduler's failure delivery
/// and cancellation semantics, and the manager's retry / backoff /
/// quarantine reaction — including the differential check that the none()
/// model reproduces the fig06 golden trace byte-for-byte.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include "rispp/hw/fault.hpp"
#include "rispp/isa/io.hpp"
#include "rispp/obs/trace_export.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/rt/rotation.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/error.hpp"
#include "rispp/workload/trace_source.hpp"
#include "rotation_lifecycle.hpp"

namespace {

using rispp::hw::FaultModel;
using rispp::hw::FaultyReconfigPort;
using rispp::hw::ReconfigPort;
using rispp::hw::TransferFault;
using rispp::hw::TransferResult;
using rispp::isa::borrow;
using rispp::obs::EventKind;
using rispp::obs::TraceRecorder;
using rispp::rt::Cycle;
using rispp::rt::RisppManager;
using rispp::rt::RotationScheduler;
using rispp::rt::RtConfig;
using rotation_lifecycle::check_rotation_lifecycle;
using rotation_lifecycle::Terminal;

// --- hw::FaultModel ------------------------------------------------------

TEST(FaultModel, NoneIsDisabledAndEveryTransferIsNominal) {
  auto model = FaultModel::none();
  EXPECT_FALSE(model.enabled());
  FaultyReconfigPort port{ReconfigPort{}, FaultModel::none()};
  EXPECT_TRUE(port.fault_free());
  const auto nominal = port.base().rotation_time_cycles(50000, 100.0);
  for (int i = 0; i < 8; ++i) {
    const auto t = port.next_transfer(50000, 100.0);
    EXPECT_EQ(t.cycles, nominal);
    EXPECT_EQ(t.result, TransferResult::Ok);
  }
  // No draw is ever made: the sequence index never advances.
  EXPECT_EQ(port.model().transfers_decided(), 0u);
}

TEST(FaultModel, ProbabilisticIsDeterministicPerSeed) {
  auto a = FaultModel::probabilistic(42, 0.3, 0.2, 0.2);
  auto b = FaultModel::probabilistic(42, 0.3, 0.2, 0.2);
  for (int i = 0; i < 256; ++i) {
    const auto fa = a.next();
    const auto fb = b.next();
    EXPECT_EQ(fa.result, fb.result);
    EXPECT_EQ(fa.stretch, fb.stretch);
  }
  EXPECT_EQ(a.transfers_decided(), 256u);
}

TEST(FaultModel, ProbabilisticCoversEveryOutcome) {
  auto m = FaultModel::probabilistic(7, 0.25, 0.25, 0.25, 3.0);
  int failed = 0, poisoned = 0, degraded = 0, ok = 0;
  for (int i = 0; i < 512; ++i) {
    const auto f = m.next();
    if (f.result == TransferResult::Failed) ++failed;
    else if (f.result == TransferResult::Poisoned) ++poisoned;
    else if (f.stretch > 1.0) ++degraded;
    else ++ok;
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(poisoned, 0);
  EXPECT_GT(degraded, 0);
  EXPECT_GT(ok, 0);
}

TEST(FaultModel, ValidatesProbabilitiesAndStretch) {
  EXPECT_THROW((void)FaultModel::probabilistic(1, 1.5), rispp::util::Error);
  EXPECT_THROW((void)FaultModel::probabilistic(1, 0.6, 0.6),
               rispp::util::Error);
  EXPECT_THROW((void)FaultModel::probabilistic(1, 0.1, 0.0, 0.1, 0.5),
               rispp::util::Error);
  EXPECT_THROW((void)FaultModel::schedule({{0, {TransferResult::Ok, 0.5}}}),
               rispp::util::Error);
  EXPECT_THROW((void)FaultModel::schedule({{3, {TransferResult::Failed, 1.0}},
                                           {3, {TransferResult::Ok, 1.0}}}),
               rispp::util::Error);
}

TEST(FaultModel, ScheduleAppliesAtExactSequenceIndices) {
  auto m = FaultModel::schedule({{1, {TransferResult::Failed, 1.0}},
                                 {3, {TransferResult::Poisoned, 1.0}}});
  EXPECT_TRUE(m.enabled());
  EXPECT_EQ(m.next().result, TransferResult::Ok);        // seq 0
  EXPECT_EQ(m.next().result, TransferResult::Failed);    // seq 1
  EXPECT_EQ(m.next().result, TransferResult::Ok);        // seq 2
  EXPECT_EQ(m.next().result, TransferResult::Poisoned);  // seq 3
  EXPECT_EQ(m.next().result, TransferResult::Ok);        // seq 4
}

TEST(FaultModel, DegradationStretchesAndNeverShortens) {
  FaultyReconfigPort port{
      ReconfigPort{},
      FaultModel::schedule({{0, {TransferResult::Ok, 2.5}}})};
  const auto nominal = port.base().rotation_time_cycles(50000, 100.0);
  const auto stretched = port.next_transfer(50000, 100.0);
  EXPECT_EQ(stretched.result, TransferResult::Ok);
  EXPECT_EQ(stretched.cycles,
            static_cast<std::uint64_t>(
                std::ceil(static_cast<double>(nominal) * 2.5)));
  EXPECT_GE(stretched.cycles, nominal);
  // Past the schedule: back to nominal.
  EXPECT_EQ(port.next_transfer(50000, 100.0).cycles, nominal);
}

TEST(FaultModel, ToStringCoversEveryResult) {
  EXPECT_STREQ(to_string(TransferResult::Ok), "ok");
  EXPECT_STREQ(to_string(TransferResult::Failed), "failed");
  EXPECT_STREQ(to_string(TransferResult::Poisoned), "poisoned");
}

// --- RotationScheduler ---------------------------------------------------

/// One rotatable atom, one single-molecule SI — enough to steer rotations.
const char* kOneAtomLibrary = R"(
catalog
  atom P slices=100 luts=200 bitstream=50000 rotatable
end

si XA software=1000
  molecule cycles=100 P=1
end
)";

TEST(FaultScheduler, FaultyBookingIsDeliveredExactlyOnceAtCompletion) {
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  RotationScheduler sched(
      FaultyReconfigPort{ReconfigPort{},
                         FaultModel::schedule(
                             {{0, {TransferResult::Failed, 1.0}}})},
      100.0);
  const auto b = sched.schedule(0, 0, lib.catalog(), 0);
  EXPECT_EQ(b.result, TransferResult::Failed);
  EXPECT_TRUE(sched.take_failures(b.done - 1).empty());  // still in flight
  const auto delivered = sched.take_failures(b.done);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].container, 0u);
  EXPECT_EQ(delivered[0].done, b.done);
  EXPECT_TRUE(sched.take_failures(b.done + 1000).empty());  // once only
}

TEST(FaultScheduler, CancelledFaultyBookingIsNeverDelivered) {
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  RotationScheduler sched(
      FaultyReconfigPort{ReconfigPort{},
                         FaultModel::schedule(
                             {{1, {TransferResult::Failed, 1.0}}})},
      100.0);
  const auto ok = sched.schedule(0, 0, lib.catalog(), 0);      // seq 0, Ok
  const auto bad = sched.schedule(0, 0, lib.catalog(), 1);     // seq 1, Failed
  EXPECT_EQ(ok.result, TransferResult::Ok);
  EXPECT_EQ(bad.result, TransferResult::Failed);
  // The faulty transfer is queued behind the port and cancellable.
  EXPECT_TRUE(sched.cancel_pending(1, 0));
  // Cancelled is terminal: its failure must never surface later.
  EXPECT_TRUE(sched.take_failures(bad.done + 1).empty());
  EXPECT_EQ(sched.rotations_performed(), 1u);
  EXPECT_EQ(sched.rotations_cancelled(), 1u);
}

// --- RisppManager reaction ----------------------------------------------

/// Polls the manager at every wakeup until the platform settles.
Cycle drain(RisppManager& mgr, Cycle from) {
  Cycle t = from;
  for (int guard = 0; guard < 10000; ++guard) {
    const auto wake = mgr.next_wakeup(t);
    if (!wake) return t;
    t = *wake;
    mgr.poll(t);
  }
  ADD_FAILURE() << "manager did not settle within the drain guard";
  return t;
}

TEST(FaultRecovery, FailedRotationBacksOffThenRetriesAndRecovers) {
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  TraceRecorder recorder;
  RtConfig cfg;
  cfg.sink = &recorder;
  cfg.atom_containers = 1;
  cfg.faults =
      FaultModel::schedule({{0, {TransferResult::Failed, 1.0}}});
  cfg.max_rotation_retries = 3;
  cfg.retry_backoff_cycles = 1000;
  RisppManager mgr(borrow(lib), cfg);

  mgr.forecast(lib.index_of("XA"), 1000, 1.0, 0);
  ASSERT_EQ(mgr.rotations_performed(), 1u);
  const auto first_done = mgr.next_wakeup(0);
  ASSERT_TRUE(first_done.has_value());

  // The failure is only discovered when the transfer window ends.
  mgr.poll(*first_done - 1);
  EXPECT_EQ(mgr.counters().get("rotations_failed"), 0u);
  mgr.poll(*first_done);
  EXPECT_EQ(mgr.counters().get("rotations_failed"), 1u);
  EXPECT_EQ(mgr.counters().get("rotation_retries"), 1u);
  EXPECT_EQ(mgr.counters().get("acs_quarantined"), 0u);
  // The container ended empty and is blocked for the backoff window — no
  // retry may be issued yet.
  EXPECT_EQ(mgr.rotations_performed(), 1u);
  EXPECT_FALSE(mgr.containers().at(0).atom.has_value());
  EXPECT_FALSE(mgr.containers().at(0).loading.has_value());
  EXPECT_EQ(mgr.containers().at(0).blocked_until,
            *first_done + cfg.retry_backoff_cycles);

  // The backoff expiry is a wakeup; polling there issues the retry.
  const auto unblock = mgr.next_wakeup(*first_done);
  ASSERT_TRUE(unblock.has_value());
  EXPECT_EQ(*unblock, *first_done + cfg.retry_backoff_cycles);
  mgr.poll(*unblock);
  EXPECT_EQ(mgr.rotations_performed(), 2u);

  // The retry (fault schedule exhausted) completes cleanly: the SI upgrades
  // to hardware and the failure streak resets.
  const auto end = drain(mgr, *unblock);
  EXPECT_TRUE(mgr.execute(lib.index_of("XA"), end + 1).hardware);
  EXPECT_EQ(mgr.containers().at(0).fail_streak, 0u);
  mgr.flush_events();
  check_rotation_lifecycle(recorder.events(), mgr);
}

TEST(FaultRecovery, PoisonedTransferCountsSeparately) {
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  RtConfig cfg;
  cfg.atom_containers = 1;
  cfg.faults =
      FaultModel::schedule({{0, {TransferResult::Poisoned, 1.0}}});
  RisppManager mgr(borrow(lib), cfg);

  mgr.forecast(lib.index_of("XA"), 1000, 1.0, 0);
  const auto done = mgr.next_wakeup(0);
  ASSERT_TRUE(done.has_value());
  // The poisoned Atom must never become available — even when the failure
  // is discovered by an execution rather than a poll.
  const auto exec = mgr.execute(lib.index_of("XA"), *done);
  EXPECT_FALSE(exec.hardware);
  EXPECT_EQ(mgr.counters().get("rotations_failed"), 1u);
  EXPECT_EQ(mgr.counters().get("rotations_poisoned"), 1u);
  EXPECT_TRUE(mgr.available_atoms(*done).is_zero());
}

TEST(FaultRecovery, FailedLoadLeaksUntilItsTransferEnds) {
  // The failed load holds its container's slices from booking to `done`,
  // however often the host enters the kernel in between: a manager polled
  // half-way and at `done` and one polled only long after must both charge
  // exactly that interval. No retry follows (the lone container is
  // quarantined), so nothing leaks afterwards.
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  RtConfig cfg;
  cfg.atom_containers = 1;
  cfg.faults = FaultModel::schedule({{0, {TransferResult::Failed, 1.0}}});
  cfg.max_rotation_retries = 0;
  RisppManager often(borrow(lib), cfg);
  RisppManager late(borrow(lib), cfg);
  often.forecast(lib.index_of("XA"), 1000, 1.0, 0);
  late.forecast(lib.index_of("XA"), 1000, 1.0, 0);
  const auto done = often.next_wakeup(0);
  ASSERT_TRUE(done.has_value());

  often.poll(*done / 2);
  often.poll(*done);
  often.poll(*done * 10);
  late.poll(*done * 10);
  ASSERT_EQ(often.counters().get("acs_quarantined"), 1u);
  ASSERT_EQ(late.counters().get("acs_quarantined"), 1u);

  const double slices = lib.catalog().at(0).hardware.slices;
  const double expected = static_cast<double>(*done) / cfg.clock_mhz *
                          cfg.power.leak_mw_per_kslice * (slices / 1000.0);
  EXPECT_GT(expected, 0.0);
  EXPECT_DOUBLE_EQ(often.energy().leakage_nj(), expected);
  EXPECT_DOUBLE_EQ(late.energy().leakage_nj(), expected);
}

TEST(FaultRecovery, RepeatedFailuresQuarantineTheContainer) {
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  TraceRecorder recorder;
  RtConfig cfg;
  cfg.sink = &recorder;
  cfg.atom_containers = 1;
  cfg.faults = FaultModel::probabilistic(11, 1.0);  // every transfer fails
  cfg.max_rotation_retries = 1;
  cfg.retry_backoff_cycles = 100;
  RisppManager mgr(borrow(lib), cfg);

  mgr.forecast(lib.index_of("XA"), 1000, 1.0, 0);
  const auto end = drain(mgr, 0);

  // Initial attempt + one retry, both failed; the second failure exceeds
  // the retry budget and quarantines the lone container.
  EXPECT_EQ(mgr.counters().get("rotations_failed"), 2u);
  EXPECT_EQ(mgr.counters().get("rotation_retries"), 1u);
  EXPECT_EQ(mgr.counters().get("acs_quarantined"), 1u);
  EXPECT_TRUE(mgr.containers().at(0).quarantined);
  EXPECT_EQ(mgr.containers().usable_count(), 0u);
  EXPECT_EQ(mgr.rotations_performed(), 2u);  // no further attempts

  // Forward progress is never lost: the SI still executes in software.
  const auto exec = mgr.execute(lib.index_of("XA"), end + 1);
  EXPECT_FALSE(exec.hardware);
  EXPECT_EQ(exec.cycles, 1000u);

  // One quarantine, of the lone container, at the end of the transfer whose
  // failure spent the retry budget (the booking's `done`).
  mgr.flush_events();
  std::vector<rispp::obs::Event> quarantines;
  const rispp::obs::Event* last_failure = nullptr;
  for (const auto& e : recorder.events()) {
    if (e.kind == EventKind::AcQuarantined) quarantines.push_back(e);
    if (e.kind == EventKind::RotationFailed) last_failure = &e;
  }
  ASSERT_EQ(quarantines.size(), 1u);
  ASSERT_NE(last_failure, nullptr);
  EXPECT_EQ(quarantines[0].container, 0);
  EXPECT_EQ(quarantines[0].at, last_failure->at);
  check_rotation_lifecycle(recorder.events(), mgr);
}

TEST(FaultRecovery, BackoffGrowsExponentiallyWithTheStreak) {
  const auto lib = rispp::isa::parse_si_library(kOneAtomLibrary);
  RtConfig cfg;
  cfg.atom_containers = 1;
  cfg.faults = FaultModel::probabilistic(11, 1.0);
  cfg.max_rotation_retries = 3;
  cfg.retry_backoff_cycles = 1000;
  RisppManager mgr(borrow(lib), cfg);

  mgr.forecast(lib.index_of("XA"), 1000, 1.0, 0);
  std::vector<Cycle> windows;  // blocked_until − failed_at per failure
  Cycle t = 0;
  Cycle last_failed = 0;
  for (int guard = 0; guard < 100 && !mgr.containers().at(0).quarantined;
       ++guard) {
    const auto wake = mgr.next_wakeup(t);
    ASSERT_TRUE(wake.has_value());
    t = *wake;
    const auto failed_before = mgr.counters().get("rotations_failed");
    mgr.poll(t);
    if (mgr.counters().get("rotations_failed") > failed_before &&
        !mgr.containers().at(0).quarantined) {
      windows.push_back(mgr.containers().at(0).blocked_until - t);
      last_failed = t;
    }
  }
  (void)last_failed;
  ASSERT_EQ(windows.size(), 3u);  // failures 1..3 back off; the 4th quarantines
  EXPECT_EQ(windows[0], 1000u);
  EXPECT_EQ(windows[1], 2000u);
  EXPECT_EQ(windows[2], 4000u);
}

// --- cancel-stale interaction (bugfix-sweep audit) -----------------------

/// Three-instance molecule: one forecast issues three serialized rotations,
/// so a Failed transfer can sit between two clean ones.
const char* kThreeAtomLibrary = R"(
catalog
  atom P slices=100 luts=200 bitstream=50000 rotatable
end

si XA software=1000
  molecule cycles=100 P=3
end
)";

TEST(FaultCancelStale, FailedBetweenTwoDonesDoesNotSkipTombstones) {
  const auto lib = rispp::isa::parse_si_library(kThreeAtomLibrary);
  TraceRecorder recorder;
  RtConfig cfg;
  cfg.atom_containers = 3;
  cfg.cancel_stale_rotations = true;
  cfg.sink = &recorder;
  cfg.faults =
      FaultModel::schedule({{1, {TransferResult::Failed, 1.0}}});
  RisppManager mgr(borrow(lib), cfg);

  // One forecast → three serialized transfers: seq 0 Ok (finish announced),
  // seq 1 Failed (no finish announced), seq 2 Ok (finish announced).
  mgr.forecast(lib.index_of("XA"), 1000, 1.0, 0);
  ASSERT_EQ(mgr.rotations_performed(), 3u);
  std::uint64_t finishes = 0;
  for (const auto& e : recorder.events())
    if (e.kind == EventKind::RotationFinished) ++finishes;
  ASSERT_EQ(finishes, 2u) << "a faulty booking must not announce a finish";

  // Releasing the demand before the second transfer starts cancels both
  // queued bookings — the Failed one (whose pending failure must die with
  // it) and the last Ok one (whose announced finish the cancellation
  // overrides, with the Failed booking sitting between the two).
  mgr.forecast_release(lib.index_of("XA"), 1);
  EXPECT_EQ(mgr.rotations_cancelled(), 2u);
  EXPECT_EQ(mgr.rotations_performed(), 1u);

  const auto end = drain(mgr, 1);
  (void)end;
  // The cancelled faulty transfer never reports: only terminated cleanly.
  EXPECT_EQ(mgr.counters().get("rotations_failed"), 0u);

  mgr.flush_events();
  const auto lifecycle = check_rotation_lifecycle(recorder.events(), mgr);
  ASSERT_EQ(lifecycle.spans.size(), 3u);
  EXPECT_EQ(lifecycle.count(Terminal::Finished), 1u)
      << "exactly the first transfer may finish";
  EXPECT_EQ(lifecycle.spans[0].container, 0);
  EXPECT_EQ(lifecycle.spans[0].terminal, Terminal::Finished);
  EXPECT_EQ(lifecycle.spans[1].terminal, Terminal::Cancelled);
  EXPECT_EQ(lifecycle.spans[2].terminal, Terminal::Cancelled);
}

// --- zero-fault differential --------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The fig06 scenario (TraceSource::make_fig06), with the fault subsystem
/// explicitly configured (none() model + non-default retry knobs): the
/// recorded trace must be byte-identical to the pre-fault golden.
TEST(FaultDifferential, NoneModelReproducesFig06GoldenByteForByte) {
  const auto lib = rispp::isa::SiLibrary::h264();
  TraceRecorder recorder;
  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = 6;
  cfg.quantum = 25000;
  cfg.rt.sink = &recorder;
  cfg.rt.faults = FaultModel::none();
  cfg.rt.max_rotation_retries = 7;     // retry knobs are dead config
  cfg.rt.retry_backoff_cycles = 12345; // without a fault model
  rispp::sim::Simulator sim(borrow(lib), cfg);
  rispp::workload::TraceSource::make_fig06(lib)->add_to(sim);
  (void)sim.run();

  const auto path = ::testing::TempDir() + "rispp_fig06_nofault.csv";
  rispp::obs::write_trace_file(path, recorder.events(),
                               make_trace_meta(lib, cfg, {"A", "B"}));
  const auto golden =
      read_file(std::string(RISPP_TEST_DATA_DIR) + "/fig06_golden.csv");
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(read_file(path), golden)
      << "FaultModel::none() diverged from the fault-free event stream";
  EXPECT_EQ(sim.manager().counters().get("rotations_failed"), 0u);
  EXPECT_EQ(sim.manager().counters().get("rotations_degraded"), 0u);
}

}  // namespace
