#pragma once
/// Reference host: sim::Simulator's scheduling loop as the seed wrote it,
/// kept as the oracle for the simulator's runnable ring and cached wakeup
/// horizon. It scans the task list linearly from slot 0 on every switch,
/// skipping finished tasks, and polls a real rt::RisppManager at every task
/// switch instead of only when `now` crosses the manager's next wakeup. It
/// drives the manager only through forecast, forecast_release, execute,
/// poll, emit_host_event and flush_events, so every difference from the
/// simulator's run lies in when the kernel is entered.
///
/// expect_same_run() runs one workload through both hosts and compares the
/// recorded event streams (==), total and per-task cycles, per-SI stats,
/// timelines and rotations exactly, and total energy within 1e-12 relative:
/// polling at every switch integrates leakage in more, shorter pieces, so
/// the sums differ in rounding only. Used by rt_kernel_test, sim_sched_test
/// and sim_reference_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rispp/isa/si_library.hpp"
#include "rispp/obs/event.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/sim/trace.hpp"

namespace reference_host {

using rispp::rt::Cycle;
using rispp::sim::SimConfig;
using rispp::sim::SimResult;
using rispp::sim::SiStats;
using rispp::sim::TaskDef;
using rispp::sim::TraceOp;

class Host {
 public:
  Host(std::shared_ptr<const rispp::isa::SiLibrary> lib, SimConfig cfg)
      : lib_(std::move(lib)), cfg_(cfg), manager_(lib_, cfg.rt) {}

  void add_task(TaskDef task) { tasks_.push_back({std::move(task)}); }

  SimResult run() {
    SimResult result;
    std::vector<SiStats> si_stats(lib_->size());
    std::size_t current = 0;
    int last_task = -1;
    while (std::any_of(tasks_.begin(), tasks_.end(),
                       [](const Task& t) { return !t.done(); })) {
      while (tasks_[current].done()) current = (current + 1) % tasks_.size();
      Task& task = tasks_[current];
      const int task_id = static_cast<int>(current);
      // A quantum that will consume no cycles announces no switch.
      if (task_id != last_task && task.has_work()) {
        manager_.emit_host_event({.at = now_,
                                  .kind = rispp::obs::EventKind::TaskSwitch,
                                  .task = task_id});
        last_task = task_id;
      }
      manager_.poll(now_);

      std::uint64_t budget = cfg_.quantum;
      while (budget > 0 && !task.done()) {
        const TraceOp& op = task.def.trace[task.op];
        switch (op.kind) {
          case TraceOp::Kind::Compute: {
            const std::uint64_t step =
                std::min(op.cycles - task.progress, budget);
            now_ += step;
            task.busy += step;
            budget -= step;
            task.progress += step;
            if (task.progress >= op.cycles) {
              ++task.op;
              task.progress = 0;
            }
            break;
          }
          case TraceOp::Kind::Si: {
            const auto exec = manager_.execute(op.si_index, now_, task_id);
            now_ += exec.cycles;
            task.busy += exec.cycles;
            budget -= std::min<std::uint64_t>(budget, exec.cycles);
            auto& stats = si_stats[op.si_index];
            ++stats.invocations;
            exec.hardware ? ++stats.hw_invocations : ++stats.sw_invocations;
            stats.total_cycles += exec.cycles;
            if (++task.progress >= op.count) {
              ++task.op;
              task.progress = 0;
            }
            break;
          }
          case TraceOp::Kind::Forecast:
            manager_.forecast(op.si_index, op.expected, op.probability, now_,
                              task_id);
            ++task.op;
            break;
          case TraceOp::Kind::Release:
            manager_.forecast_release(op.si_index, now_, task_id);
            ++task.op;
            break;
          case TraceOp::Kind::Label:
            result.timeline.push_back({now_, task.def.name, op.text});
            ++task.op;
            break;
        }
      }
      current = (current + 1) % tasks_.size();
    }

    result.total_cycles = now_;
    for (const auto& t : tasks_) result.task_cycles.push_back(t.busy);
    for (std::size_t i = 0; i < si_stats.size(); ++i)
      if (si_stats[i].invocations > 0)
        result.per_si[lib_->at(i).name()] = si_stats[i];
    result.rotations = manager_.rotations_performed();
    manager_.poll(now_);  // settle leakage up to the end of time
    manager_.flush_events();
    const auto& e = manager_.energy();
    result.energy_execution_nj = e.execution_nj();
    result.energy_rotation_nj = e.rotation_nj();
    result.energy_leakage_nj = e.leakage_nj();
    result.energy_total_nj = e.total_nj();
    return result;
  }

  const rispp::rt::RisppManager& manager() const { return manager_; }

 private:
  struct Task {
    TaskDef def;
    std::size_t op = 0;
    std::uint64_t progress = 0;
    Cycle busy = 0;
    bool done() const { return op >= def.trace.size(); }
    /// Some remaining op consumes cycles: an Si, or a Compute of any length.
    bool has_work() const {
      return std::any_of(def.trace.begin() + static_cast<std::ptrdiff_t>(op),
                         def.trace.end(), [](const TraceOp& o) {
                           return o.kind == TraceOp::Kind::Si ||
                                  (o.kind == TraceOp::Kind::Compute &&
                                   o.cycles > 0);
                         });
    }
  };

  std::shared_ptr<const rispp::isa::SiLibrary> lib_;
  SimConfig cfg_;
  rispp::rt::RisppManager manager_;
  std::vector<Task> tasks_;
  Cycle now_ = 0;
};

/// What a differential run returns for further pins: the simulator's result
/// and each side's kernel counters.
struct Compared {
  SimResult result;
  rispp::rt::KernelCounters sim_counters;
  rispp::rt::KernelCounters ref_counters;
};

/// Runs `tasks` through sim::Simulator and through Host under `cfg`, each
/// with its own recorder as the sink (cfg.rt.sink is replaced), and expects
/// the two runs to agree as the file comment says. Every kernel counter but
/// the kernel entries (`reallocations`, `selector_plans`) must agree too.
inline Compared expect_same_run(
    const std::shared_ptr<const rispp::isa::SiLibrary>& lib, SimConfig cfg,
    const std::vector<TaskDef>& tasks) {
  rispp::obs::TraceRecorder sim_rec, ref_rec;
  cfg.rt.sink = &sim_rec;
  rispp::sim::Simulator sim(lib, cfg);
  cfg.rt.sink = &ref_rec;
  Host ref(lib, cfg);
  for (const auto& t : tasks) {
    sim.add_task(t);
    ref.add_task(t);
  }
  Compared out;
  out.result = sim.run();
  out.sim_counters = sim.manager().counters();
  const auto expected = ref.run();
  out.ref_counters = ref.manager().counters();
  const auto& got = out.result;
  for (const auto name : rispp::rt::KernelCounters::kNames) {
    if (name == "reallocations" || name == "selector_plans") continue;
    EXPECT_EQ(out.sim_counters.get(name), out.ref_counters.get(name)) << name;
  }

  const auto& a = sim_rec.events();
  const auto& b = ref_rec.events();
  EXPECT_EQ(a.size(), b.size()) << "event stream lengths differ";
  EXPECT_TRUE(a == b)
      << "event streams diverge at event "
      << (std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
          a.begin());
  EXPECT_EQ(got.total_cycles, expected.total_cycles);
  EXPECT_EQ(got.task_cycles, expected.task_cycles);
  EXPECT_EQ(got.rotations, expected.rotations);
  EXPECT_EQ(got.timeline.size(), expected.timeline.size());
  for (std::size_t i = 0;
       i < std::min(got.timeline.size(), expected.timeline.size()); ++i) {
    EXPECT_EQ(got.timeline[i].at, expected.timeline[i].at) << "label " << i;
    EXPECT_EQ(got.timeline[i].task, expected.timeline[i].task) << i;
    EXPECT_EQ(got.timeline[i].text, expected.timeline[i].text) << i;
  }
  EXPECT_EQ(got.per_si.size(), expected.per_si.size());
  for (const auto& [name, want] : expected.per_si) {
    const auto it = got.per_si.find(name);
    if (it == got.per_si.end()) {
      ADD_FAILURE() << "no stats for " << name;
      continue;
    }
    EXPECT_EQ(it->second.invocations, want.invocations) << name;
    EXPECT_EQ(it->second.hw_invocations, want.hw_invocations) << name;
    EXPECT_EQ(it->second.sw_invocations, want.sw_invocations) << name;
    EXPECT_EQ(it->second.total_cycles, want.total_cycles) << name;
  }
  EXPECT_LE(std::abs(got.energy_total_nj - expected.energy_total_nj),
            1e-12 * std::abs(expected.energy_total_nj))
      << "energy " << got.energy_total_nj << " vs "
      << expected.energy_total_nj;
  return out;
}

}  // namespace reference_host
