#pragma once
/// \file manager.hpp
/// \brief The RISPP run-time manager (paper §5): monitors forecasts and SI
/// executions, selects Molecules, schedules rotations, and answers every SI
/// invocation with the best currently-possible execution.
///
/// The manager implements the three run-time tasks of §5:
///  (a) monitoring FCs and SIs to fine-tune the compile-time profile values,
///  (b) selecting/composing Molecules for a subset of the forecasted SIs,
///  (c) scheduling rotations and replacing Atoms.
///
/// The two decisions inside (b) and (c) — which Molecules to converge to and
/// which Atom Container to sacrifice — each go through one policy interface
/// (SelectionPolicy / ReplacementPolicy, policy.hpp), built by key from
/// RtConfig.
///
/// Executions never block on hardware: an SI whose Molecule is not (yet)
/// loaded runs its software Molecule, and upgrades to progressively faster
/// hardware Molecules as rotations complete (Fig 6, T1–T5).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rispp/forecast/forecast_pass.hpp"
#include "rispp/hw/fault.hpp"
#include "rispp/hw/reconfig_port.hpp"
#include "rispp/isa/si_library.hpp"
#include "rispp/obs/event.hpp"
#include "rispp/rt/container.hpp"
#include "rispp/rt/counters.hpp"
#include "rispp/rt/energy.hpp"
#include "rispp/rt/policy.hpp"
#include "rispp/rt/rotation.hpp"
#include "rispp/rt/selection.hpp"

namespace rispp::rt {

struct RtConfig {
  unsigned atom_containers = 4;
  double clock_mhz = 100.0;
  hw::ReconfigPort port{};
  /// Fault model layered over the reconfiguration port (hw/fault.hpp).
  /// With the default none() model no RNG draw is ever made and behaviour
  /// is bit-identical to the fault-free run-time.
  hw::FaultModel faults = hw::FaultModel::none();
  /// Consecutive failed loads one Atom Container tolerates before it is
  /// quarantined (taken out of service for good; selection then plans
  /// around the reduced AC set).
  unsigned max_rotation_retries = 3;
  /// Base retry backoff after a failed load, in cycles: the container is
  /// blocked for retry_backoff_cycles << min(streak-1, 16) after its
  /// streak-th consecutive failure (capped exponential backoff).
  Cycle retry_backoff_cycles = 1000;
  /// EWMA factor for blending observed executions into the forecast
  /// expectations (monitoring task (a)); 0 disables learning.
  double learning_rate = 0.5;
  /// Power model for the energy meter (execution / rotation / leakage).
  PowerModel power{};
  /// Molecule selection policy, by factory key ("greedy", "exhaustive" —
  /// see policy.hpp).
  std::string selection_policy = "greedy";
  /// Rotation-victim replacement policy, by factory key ("lru", "mru",
  /// "round-robin").
  std::string replacement_policy = "lru";
  /// Cancel queued (not yet started) transfers that a reallocation made
  /// stale — the port slot is wasted but the container frees immediately
  /// and the stale atom never loads. Default off (the prototype's
  /// fire-and-forget SelectMap feed); ablation in bench/ablation_replacement.
  bool cancel_stale_rotations = false;
  /// Cost-aware reallocation: rotate towards a new configuration only when
  /// its expected benefit (weighted cycles saved) exceeds factor × the
  /// rotation transfer cost. 0 = eager rotation (rotate whenever the
  /// selector finds any improvement). Prevents thrash when short-lived
  /// demands appear between releases; bench/ablation_monitoring shows the
  /// effect.
  double rotation_cost_factor = 0.0;
  /// Observability sink (non-owning) — the manager's only event output.
  /// When set, the manager streams typed obs::Events (forecasts, rotations,
  /// evictions, executions, Molecule upgrades) through it; attach an
  /// obs::TraceRecorder to keep the stream. When null, every emission site
  /// is one untaken branch, so the disabled path costs nothing.
  obs::EventSink* sink = nullptr;
};

/// Validates an RtConfig before anything is built from it: unknown
/// selection/replacement factory keys throw util::Error (PreconditionError)
/// listing the valid keys, and the numeric knobs are range-checked.
/// RisppManager runs this at construction; batch drivers (exp::Runner) run
/// it once per sweep point *before* spawning workers, so a typo in a grid
/// axis fails the whole sweep up front instead of deep inside reallocate().
void validate(const RtConfig& cfg);

class RisppManager {
 public:
  /// Shares ownership of the (immutable) SI library: concurrent managers in
  /// different threads may hold the same snapshot, and the library cannot
  /// be destroyed while any of them is alive.
  RisppManager(std::shared_ptr<const isa::SiLibrary> lib, RtConfig cfg);

  /// --- forecast interface (§5a) -------------------------------------
  /// An FC for `si` fires: the SI is expected `expected_executions` times
  /// with the given probability. Triggers reallocation.
  void forecast(std::size_t si, double expected_executions, double probability,
                Cycle now, int task = kNoTask);

  /// The forecast states the SI "is no longer needed" *by this task*: that
  /// demand is dropped, its containers become replacement victims, and the
  /// remaining demands are reallocated (Fig 6, T2). Another task's demand
  /// for the same SI stays active.
  void forecast_release(std::size_t si, Cycle now, int task = kNoTask);

  /// Convenience: fire every point of an FC block from the compile-time
  /// plan, with run-time fine-tuned expectations.
  void on_fc_block(const forecast::FcBlock& block, Cycle now,
                   int task = kNoTask);

  /// --- execution interface ------------------------------------------
  struct ExecResult {
    std::uint32_t cycles = 0;
    bool hardware = false;
    const isa::MoleculeOption* molecule = nullptr;  ///< null for software
  };

  /// Executes one SI invocation at `now` and returns its latency. Updates
  /// monitoring statistics and container LRU state.
  ExecResult execute(std::size_t si, Cycle now, int task = kNoTask);

  /// Emits a host-generated event (the simulator's TaskSwitch) through the
  /// manager's emission batch, so host and manager events reach the sink in
  /// one correctly-ordered stream. No-op without a sink.
  void emit_host_event(const obs::Event& e) {
    if (batch_.enabled()) batch_.emit(e);
  }

  /// Delivers everything still buffered in the emission batch to the sink.
  /// The manager flushes on every reallocation (forecast / release / poll)
  /// and on destruction; hosts that read the sink between those points —
  /// tests driving execute() directly — call this first. See
  /// obs::EventBatch.
  void flush_events() { batch_.flush(); }

  /// Re-evaluates the allocation without a new forecast — used after
  /// rotations complete when a previous reallocation was blocked by
  /// in-flight transfers. Every poll re-plans; one between completions
  /// re-plans to the same plan and books nothing, so event-driven hosts
  /// poll only at next_wakeup() (see docs/observability.md).
  void poll(Cycle now);

  /// Earliest cycle strictly after `t` at which polling can change the
  /// platform state: an in-flight rotation completes (cleanly or not) or a
  /// fault-backoff window expires and its container becomes targetable
  /// again. Event-driven hosts (sim::Simulator) poll only when `now`
  /// crosses this wakeup cycle instead of on every scheduling decision.
  std::optional<Cycle> next_wakeup(Cycle t) const {
    auto next = rotations_.next_completion_after(t);
    const auto unblock = containers_.next_unblock_after(t);
    if (unblock && (!next || *unblock < *next)) next = unblock;
    return next;
  }

  /// Bumped whenever the scheduling timeline changes — a rotation is
  /// booked, cancelled, or fails (failures also open backoff windows).
  /// While this value is unchanged and no poll has fired, a previously
  /// computed next_wakeup() answer stays valid: no completion or unblock
  /// point was added or removed. Event-driven hosts key their cached
  /// wakeup horizon on this instead of recomputing next_wakeup() on every
  /// scheduling decision (which walks bookings and containers).
  std::uint64_t state_generation() const { return state_generation_; }

  /// --- state inspection -----------------------------------------------
  atom::Molecule available_atoms(Cycle now);
  const atom::Molecule& committed_atoms() const {
    return containers_.committed_atoms();
  }
  const ContainerFile& containers() const { return containers_; }
  /// The policy objects driving selection/replacement (for introspection).
  const SelectionPolicy& selection_policy() const { return *selector_; }
  const ReplacementPolicy& replacement_policy() const { return *replacer_; }
  const KernelCounters& counters() const { return counters_; }
  std::uint64_t rotations_performed() const {
    return rotations_.rotations_performed();
  }
  std::uint64_t rotations_cancelled() const {
    return rotations_.rotations_cancelled();
  }
  /// Active (not yet released) forecast demands, aggregated per SI across
  /// tasks (weights sum; the selector sees one demand per SI), sorted by
  /// SI. Kept up to date by forecast() and forecast_release(), which
  /// re-sum only the SI they touched.
  const std::vector<ForecastDemand>& active_demands() const {
    return demands_;
  }
  /// Expectation the monitor currently holds for an SI (compile-time value
  /// blended with observed behaviour); nullopt if never forecasted.
  std::optional<double> learned_expectation(std::size_t si) const;

  /// Energy spent so far (execution + rotation + leakage of loaded atoms).
  const EnergyMeter& energy() const { return energy_; }
  /// Total slices of the atoms currently loaded (or loading) in containers.
  /// O(1): the ContainerFile maintains the sum incrementally; the seed
  /// walked every container with a catalog lookup apiece on each call —
  /// and the energy meter asks on every single execute().
  std::uint64_t loaded_slices() const { return containers_.loaded_slices(); }

  const isa::SiLibrary& library() const { return *lib_; }
  /// The shared snapshot itself — hand this to sibling components (other
  /// managers, simulators, experiment runners) instead of a raw reference.
  const std::shared_ptr<const isa::SiLibrary>& library_ptr() const {
    return lib_;
  }
  const RtConfig& config() const { return cfg_; }

 private:
  /// The reallocation kernel, staged: re-plan → gate → cancel-stale →
  /// issue, on every forecast, release and poll. The stages below act on
  /// plan_, which the re-plan updates in place.
  void reallocate(Cycle now);
  bool gate_passes(const std::vector<ForecastDemand>& demands) const;
  /// Recomputes demands_' entry for `si` from its open windows.
  void resum_demand(std::size_t si);
  /// (si, task)'s slot in last_exec_cycles_, creating the task's row on
  /// first use. Task ids follow obs::Profiler's rule: from kNoTask, fewer
  /// than obs::kMaxDenseIds of them; any other id throws
  /// util::PreconditionError.
  std::uint32_t& last_exec_cycles(std::size_t si, int task);
  void cancel_stale(Cycle now);
  void issue(Cycle now);
  /// Retire every rotation whose transfer ended Failed/Poisoned by `now`:
  /// the container is emptied and backs off (or is quarantined), counters
  /// and events fire. Must run before ContainerFile::refresh so a poisoned
  /// load is never promoted to a usable Atom. A dead branch with the
  /// default none() fault model.
  void process_failures(Cycle now);

  std::shared_ptr<const isa::SiLibrary> lib_;
  RtConfig cfg_;
  ContainerFile containers_;
  RotationScheduler rotations_;
  /// The two policies, built by key from RtConfig and called through their
  /// interfaces (policy.hpp): selector_ re-plans on every reallocation,
  /// replacer_ picks one victim per booked rotation.
  std::unique_ptr<SelectionPolicy> selector_;
  std::unique_ptr<ReplacementPolicy> replacer_;
  EnergyMeter energy_;
  /// Emission buffer between the manager's hot paths and cfg_.sink: emit is
  /// a plain append, the sink sees whole runs via on_batch at reallocation
  /// boundaries / capacity / destruction. Order is preserved exactly.
  obs::EventBatch batch_;

  /// One task's open forecast window on an SI.
  struct Window {
    ForecastDemand demand;  ///< demand.task is the window's task
    /// executions_[si] when the forecast fired: the window observed
    /// executions_[si] - executions_at_forecast executions by its release.
    std::uint64_t executions_at_forecast = 0;
  };
  /// Open windows by SI index, each SI's sorted by ascending task id —
  /// quasi-parallel tasks hold independent demands on the same SI. A
  /// forecast overwrites its task's window in place or inserts it at its
  /// place, a release erases it (a shift of at most the SI's open windows,
  /// about 24 on phased_sweep), and resum_demand() walks one SI's windows
  /// contiguously.
  std::vector<std::vector<Window>> windows_;
  /// windows_ aggregated per SI, sorted by SI — see active_demands().
  std::vector<ForecastDemand> demands_;
  /// Executions of each SI so far, by SI index. An execution counts against
  /// every window open on its SI; each window reads the difference at its
  /// release, so execute() touches no window.
  std::vector<std::uint64_t> executions_;
  /// EWMA over release cycles, by SI index; empty until the SI's first
  /// release.
  std::vector<std::optional<double>> learned_;
  /// Last observed execution latency per (executing task, SI) — detects
  /// the SW→HW→faster-HW transitions reported as MoleculeUpgraded events.
  /// Keying per task keeps one task's first observation from being
  /// mistaken for another task's upgrade. One row of lib_->size() entries
  /// per task id + 1 (task ids start at kNoTask), 0 = no observation yet;
  /// a task's row is created the first time it executes with a sink
  /// attached (the rows' sole consumer).
  std::vector<std::uint32_t> last_exec_cycles_;

  /// The current plan, re-planned in place by every reallocation: its scan
  /// record is what the selector revalidates.
  SelectionPlan plan_;

  /// --- execute() fast path --------------------------------------------
  /// The fastest option each SI can run on, memoized on the container
  /// file's usable-atom generation: between rotations the answer cannot
  /// change, so the common execute() re-checks one integer instead of
  /// scanning the library's projection rows.
  struct ExecMemo {
    std::uint64_t generation = ~std::uint64_t{0};  ///< none memoized yet
    /// SiLibrary::fastest_option's answer at that generation.
    std::size_t option = isa::SiLibrary::kSoftware;
    /// EnergyMeter::execution_cost_nj of that option, so an execution adds
    /// the meter's own double instead of recomputing it.
    double energy_nj = 0;
  };
  std::vector<ExecMemo> exec_memo_;  ///< by SI index

  /// Bumped per booked / cancelled / failed rotation — see
  /// state_generation().
  std::uint64_t state_generation_ = 0;

  /// issue()'s per-step cumulative target, reused across calls.
  std::vector<atom::Count> issue_cum_;

  KernelCounters counters_;
};

}  // namespace rispp::rt
