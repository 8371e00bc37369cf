#pragma once
/// \file simulator.hpp
/// \brief Cycle-level trace simulator: replays multi-task workloads against
/// the RISPP run-time manager on a single time-sliced core.
///
/// This is the substrate substituting for the paper's DLX-on-Virtex-II
/// prototype (DESIGN.md §2): every quantity the evaluation reports — cycles
/// per SI, per macroblock, rotations performed, software-vs-hardware
/// execution mix — comes out of this model. Tasks are interleaved round-
/// robin with a configurable quantum, which is what makes the Fig-6
/// "quasi-parallel tasks sharing Atom Containers" scenario expressible.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rispp/isa/si_library.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/sim/trace.hpp"

namespace rispp::sim {

/// How the simulator drives the manager's reallocation kernel: it polls
/// only at task switches where `now` crossed the manager's next wakeup (a
/// rotation completion or a backoff expiry; docs/observability.md says why
/// that equals polling at every switch). The seed's poll-every-switch mode
/// lives on only as the oracle in tests/reference_host.hpp. The enum keeps
/// its one enumerator, and Simulator reads neither it nor Scheduler, only
/// because hostbench/replay.cpp names both in its default-kernel guard; the
/// next change to the benchmark deletes them together with that guard.
enum class Driving {
  Wakeups,
};

/// How run() finds the next runnable task: a circular doubly-linked ring
/// over the not-yet-finished tasks, so picking the next task is one link
/// hop and a finished task unlinks in O(1). The seed's O(T) linear scan
/// lives on only in tests/reference_host.hpp. One enumerator, kept for the
/// same reason as Driving's.
enum class Scheduler {
  RunnableRing,
};

struct SimConfig {
  rt::RtConfig rt{};
  /// Round-robin quantum in cycles. Compute intervals are sliced at quantum
  /// granularity; SI invocations are atomic.
  std::uint64_t quantum = 10000;
  /// Read by nothing in the simulator (see Driving).
  Driving driving = Driving::Wakeups;
  /// Read by nothing in the simulator (see Scheduler).
  Scheduler scheduler = Scheduler::RunnableRing;
};

struct SiStats {
  std::uint64_t invocations = 0;
  std::uint64_t hw_invocations = 0;
  std::uint64_t sw_invocations = 0;
  std::uint64_t total_cycles = 0;
};

struct TimelineEntry {
  rt::Cycle at = 0;
  std::string task;
  std::string text;
};

struct SimResult {
  rt::Cycle total_cycles = 0;
  /// Busy cycles per task, indexed by task id (add_task order) — tasks may
  /// share a name, so the name is no key.
  std::vector<rt::Cycle> task_cycles;
  std::map<std::string, SiStats> per_si;  ///< keyed by SI name
  std::vector<TimelineEntry> timeline;    ///< Label ops
  std::uint64_t rotations = 0;
  /// Energy spent (nJ): execution, rotation, loaded-atom leakage.
  double energy_execution_nj = 0;
  double energy_rotation_nj = 0;
  double energy_leakage_nj = 0;
  double energy_total_nj = 0;

  const SiStats& si(const std::string& name) const;
};

class Simulator {
 public:
  /// Shares ownership of the (immutable) SI library snapshot. This is what
  /// makes concurrent simulators safe: any number of them, on any threads,
  /// may hold the same library — nobody can mutate it (const) and nobody
  /// can destroy it early (shared_ptr). exp::Platform hands out exactly
  /// this pointer.
  Simulator(std::shared_ptr<const isa::SiLibrary> lib, SimConfig cfg);

  void add_task(TaskDef task);

  /// Runs all tasks to completion and returns the aggregate result. The
  /// manager (and thus loaded Atoms) persists across run() calls, so
  /// steady-state studies can run a warm-up workload first.
  SimResult run();

  rt::RisppManager& manager() { return manager_; }
  const rt::RisppManager& manager() const { return manager_; }
  rt::Cycle now() const { return now_; }
  /// The shared library snapshot this simulator runs against.
  const std::shared_ptr<const isa::SiLibrary>& library_ptr() const {
    return lib_;
  }

 private:
  struct TaskState {
    TaskDef def;
    std::size_t op = 0;              ///< next trace op
    std::uint64_t op_progress = 0;   ///< consumed cycles / SI repetitions
    rt::Cycle busy = 0;              ///< accumulated busy cycles
    /// One past the last trace op that can consume cycles (an Si, or a
    /// Compute with cycles > 0) — precomputed by add_task. A scheduled
    /// quantum consumes cycles iff op < work_end: zero-cost ops (Forecast /
    /// Release / Label) never end the quantum loop, so a remaining
    /// cycle-consuming op is always reached within the slice.
    std::size_t work_end = 0;
    bool done() const { return op >= def.trace.size(); }
    /// True when the task's next quantum will consume at least one cycle.
    /// run() suppresses the TaskSwitch event otherwise: the seed recorded
    /// spurious zero-length TaskSwitch intervals for tasks whose remaining
    /// trace was pure bookkeeping.
    bool has_work() const { return op < work_end; }
  };

  std::shared_ptr<const isa::SiLibrary> lib_;
  SimConfig cfg_;
  rt::RisppManager manager_;
  std::vector<TaskState> tasks_;
  rt::Cycle now_ = 0;
  /// Last task-switch cycle at which wakeups were checked; a poll fires
  /// when some rotation completed in (wakeup_checked_, now_].
  rt::Cycle wakeup_checked_ = 0;
  /// Cached next_wakeup(wakeup_checked_) horizon, keyed on the manager's
  /// state_generation(): while no rotation was booked/cancelled/failed and
  /// no poll fired, the horizon stays valid as wakeup_checked_ advances —
  /// no event fell inside the skipped window, so the earliest event after
  /// the old check cycle is the earliest after the new one too. Turns the
  /// per-switch next_wakeup() walk (bookings + containers) into one
  /// generation compare on the common path.
  std::optional<rt::Cycle> cached_wake_;
  std::uint64_t wake_generation_ = 0;
  bool wake_valid_ = false;
};

}  // namespace rispp::sim
