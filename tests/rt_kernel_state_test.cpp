/// Differentials for the run-time manager's maintained state: the per-SI
/// demand list that forecast()/forecast_release() keep up to date, the
/// monitoring that reads a per-SI execution counter at each release, and
/// the execution energy that execute() adds from its memo. A naive model in
/// this file keeps every window with its own execution count (bumped on
/// each execution of its SI), rebuilds the aggregated demands from scratch
/// after every call and sums each answered execution's energy afresh; the
/// manager must match it exactly, doubles compared with ==. Also: the
/// kernel counters' name table.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "genlib_fixture.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/util/rng.hpp"

namespace {

using namespace rispp::rt;
using rispp::hw::FaultModel;
using rispp::isa::SiLibrary;

/// The monitoring and aggregation semantics, computed the slow way.
class Model {
 public:
  explicit Model(double learning_rate) : rate_(learning_rate) {}

  void forecast(std::size_t si, double expected, double probability,
                int task) {
    double expectation = expected;
    if (const auto it = learned_.find(si); it != learned_.end())
      expectation = rate_ * it->second + (1.0 - rate_) * expected;
    windows_[{si, task}] = {ForecastDemand{si, expectation, probability, task},
                            0};
  }

  void release(std::size_t si, int task) {
    const auto it = windows_.find({si, task});
    if (it == windows_.end()) return;
    const double observed = static_cast<double>(it->second.observed);
    if (const auto l = learned_.find(si); l != learned_.end())
      l->second = rate_ * observed + (1.0 - rate_) * l->second;
    else
      learned_[si] = observed;
    windows_.erase(it);
  }

  /// One answered execution of `si`: it counts against the SI's windows
  /// and adds cycles / clock × power, summed in call order.
  void execute(std::size_t si, const RisppManager::ExecResult& res,
               const RtConfig& cfg) {
    for (auto& [key, w] : windows_)
      if (key.first == si) ++w.observed;
    exec_nj_ += res.cycles / cfg.clock_mhz *
                (res.hardware ? cfg.power.hw_mw : cfg.power.core_mw);
  }

  double execution_nj() const { return exec_nj_; }

  /// Per-SI aggregation over every window: weights summed in ascending
  /// task order, the task going to a window heavier than the running sum.
  std::vector<ForecastDemand> demands() const {
    std::map<std::size_t, ForecastDemand> merged;
    for (const auto& [key, w] : windows_) {
      const auto& d = w.demand;
      auto [it, inserted] = merged.emplace(key.first, d);
      if (inserted) {
        it->second.expected_executions = d.weight();
        it->second.probability = 1.0;
        continue;
      }
      if (d.weight() > it->second.expected_executions)
        it->second.task = d.task;
      it->second.expected_executions += d.weight();
    }
    std::vector<ForecastDemand> out;
    for (const auto& [si, d] : merged) out.push_back(d);
    return out;
  }

  std::optional<double> learned(std::size_t si) const {
    const auto it = learned_.find(si);
    if (it == learned_.end()) return std::nullopt;
    return it->second;
  }

  bool live(std::size_t si, int task) const {
    return windows_.count({si, task}) != 0;
  }

 private:
  struct Window {
    ForecastDemand demand;
    std::uint64_t observed = 0;
  };
  double rate_;
  std::map<std::pair<std::size_t, int>, Window> windows_;
  std::map<std::size_t, double> learned_;
  double exec_nj_ = 0;
};

void expect_matches(const RisppManager& mgr, const Model& model,
                    std::size_t sis) {
  const auto want = model.demands();
  const auto& got = mgr.active_demands();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].si_index, want[i].si_index);
    EXPECT_EQ(got[i].expected_executions, want[i].expected_executions);
    EXPECT_EQ(got[i].probability, want[i].probability);
    EXPECT_EQ(got[i].task, want[i].task);
  }
  for (std::size_t si = 0; si < sis; ++si)
    EXPECT_EQ(mgr.learned_expectation(si), model.learned(si)) << "SI " << si;
  EXPECT_EQ(mgr.energy().execution_nj(), model.execution_nj());
}

/// Executions whose call changed the platform first: promoted a finished
/// load, retired a failed one, or quarantined a container.
struct ExecCoverage {
  int after_promotion = 0;
  int after_failure = 0;
  int after_quarantine = 0;
};

/// Task ids −1..4: every id a neighbour of another.
const std::vector<int> kDenseTasks{-1, 0, 1, 2, 3, 4};

/// Random multi-task forecast / execute / release sequences over the given
/// task ids (ascending), checked after every call. Each sequence includes a
/// re-forecast of a live window and releases of windows that were never
/// opened.
ExecCoverage run_sequence(const SiLibrary& lib, std::uint64_t seed,
                          double rate,
                          const FaultModel& faults = FaultModel::none(),
                          const std::vector<int>& tasks = kDenseTasks) {
  RtConfig cfg;
  cfg.atom_containers = 4;
  cfg.learning_rate = rate;
  cfg.faults = faults;
  cfg.max_rotation_retries = 1;  // a second failure in a row quarantines
  ExecCoverage cov;
  RisppManager mgr(borrow(lib), cfg);
  Model model(rate);
  rispp::util::Xoshiro256 rng(seed);
  const auto sis = lib.size();
  const auto random_task = [&] { return tasks[rng.below(tasks.size())]; };
  Cycle now = 0;
  bool reforecast_live = false;
  for (int op = 0; op < 1500; ++op) {
    now += 1 + rng.below(3000);
    const auto si = rng.below(sis);
    const auto task = random_task();
    const auto roll = rng.below(10);
    if (roll < 3) {
      // Half the draws come from a coarse grid, so window weights often tie
      // with the running sum and the task tie-break is exercised too.
      const bool coarse = rng.below(2) == 0;
      const double expected =
          coarse ? 50.0 * static_cast<double>(rng.below(4))
                 : static_cast<double>(rng.below(400));
      const double probability =
          coarse ? 0.5 * static_cast<double>(1 + rng.below(2))
                 : 0.1 + 0.9 * rng.uniform01();
      reforecast_live |= model.live(si, task);
      mgr.forecast(si, expected, probability, now, task);
      model.forecast(si, expected, probability, task);
    } else if (roll < 5) {
      mgr.forecast_release(si, now, task);
      model.release(si, task);
    } else {
      const auto usable = mgr.containers().usable_atoms().determinant();
      const auto failed = mgr.counters().get("rotations_failed");
      const auto quarantined = mgr.counters().get("acs_quarantined");
      model.execute(si, mgr.execute(si, now, task), cfg);
      cov.after_promotion +=
          mgr.containers().usable_atoms().determinant() > usable;
      cov.after_failure += mgr.counters().get("rotations_failed") > failed;
      cov.after_quarantine +=
          mgr.counters().get("acs_quarantined") > quarantined;
    }
    expect_matches(mgr, model, sis);
    if (::testing::Test::HasFailure()) return cov;
  }
  EXPECT_TRUE(reforecast_live) << "sequence never re-forecast a live window";

  // Releasing a window nobody opened (a task id no forecast used, or an SI
  // past the library) changes nothing.
  const auto before = mgr.active_demands();
  mgr.forecast_release(0, now + 1, tasks.back() + 1);
  model.release(0, tasks.back() + 1);
  mgr.forecast_release(sis + 3, now + 2, tasks.front());
  EXPECT_EQ(mgr.active_demands().size(), before.size());
  EXPECT_EQ(mgr.learned_expectation(sis + 3), std::nullopt);
  expect_matches(mgr, model, sis);
  return cov;
}

TEST(KernelState, DemandsAndLearningMatchRebuildOnH264) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_sequence(SiLibrary::h264(), seed, seed % 3 == 0 ? 0.0 : 0.5);
  }
}

TEST(KernelState, DemandsAndLearningMatchRebuildOnGeneratedLibraries) {
  for (std::uint64_t seed = 1; seed <= 40; seed += 3) {
    SCOPED_TRACE("genlib seed " + std::to_string(seed));
    run_sequence(genlib_fixture::generated_library(seed), seed, 0.3);
  }
}

TEST(KernelState, SparseTaskIdsMatchRebuild) {
  // Windows of ids far apart insert at both ends of an SI's list and into
  // the gaps between, in every order the draws give.
  const std::vector<int> sparse{-1, 0, 5, 63, 1000};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_sequence(SiLibrary::h264(), seed, 0.5, FaultModel::none(), sparse);
    run_sequence(genlib_fixture::generated_library(seed), seed, 0.3,
                 FaultModel::none(), sparse);
  }
}

TEST(KernelState, ExecutionEnergyMatchesPerCallSumAcrossRotationFaults) {
  // Failed and poisoned loads retire on the next execute, and with one
  // retry a container's second consecutive failure quarantines it; every
  // answered execution's energy must still sum bit for bit.
  ExecCoverage total;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto cov = run_sequence(SiLibrary::h264(), seed, 0.5,
                                  FaultModel::probabilistic(seed, 0.3, 0.1));
    if (HasFailure()) return;
    total.after_promotion += cov.after_promotion;
    total.after_failure += cov.after_failure;
    total.after_quarantine += cov.after_quarantine;
  }
  EXPECT_GT(total.after_promotion, 0);
  EXPECT_GT(total.after_failure, 0);
  EXPECT_GT(total.after_quarantine, 0);
}

TEST(KernelState, ExecutionsBeforeAForecastDoNotCount) {
  const auto lib = SiLibrary::h264();
  RtConfig cfg;
  RisppManager mgr(borrow(lib), cfg);
  for (int i = 0; i < 5; ++i) mgr.execute(0, 10 + i);
  mgr.forecast(0, 100.0, 1.0, 100, 0);
  for (int i = 0; i < 3; ++i) mgr.execute(0, 200 + i, 1);
  mgr.forecast(0, 50.0, 1.0, 300, 1);  // another task's window on SI 0
  mgr.execute(0, 400, 0);
  mgr.forecast_release(0, 500, 0);
  EXPECT_EQ(mgr.learned_expectation(0), 4.0);  // 3 + 1, not the 5 before
  mgr.forecast_release(0, 600, 1);  // saw only the execution at 400
  EXPECT_EQ(mgr.learned_expectation(0), cfg.learning_rate * 1.0 +
                                            (1.0 - cfg.learning_rate) * 4.0);
}

TEST(KernelCounters, EveryNameRoundTripsThroughGet) {
  // Counter i is bumped i + 1 times, so each name must read back its own
  // slot.
  KernelCounters counters;
  for (std::size_t i = 0; i < KernelCounters::kSize; ++i)
    for (std::size_t n = 0; n <= i; ++n)
      counters.bump(static_cast<Counter>(i));
  const std::set<std::string_view> names(KernelCounters::kNames.begin(),
                                         KernelCounters::kNames.end());
  EXPECT_EQ(names.size(), KernelCounters::kSize) << "duplicate counter name";
  for (std::size_t i = 0; i < KernelCounters::kSize; ++i) {
    const auto name = KernelCounters::kNames[i];
    EXPECT_EQ(counters.get(name), i + 1) << name;
    EXPECT_EQ(counters.get(std::string(name)), i + 1) << name;
  }
  EXPECT_EQ(counters.get("no_such_counter"), 0u);
  EXPECT_EQ(counters.get(""), 0u);
}

}  // namespace
