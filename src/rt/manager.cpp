#include "rispp/rt/manager.hpp"

#include <algorithm>
#include <utility>

#include "rispp/util/error.hpp"

namespace rispp::rt {

namespace {

/// The first of `windows` (sorted by task) whose task is not below `task`.
template <class Windows>
auto find_window(Windows& windows, int task) {
  return std::lower_bound(
      windows.begin(), windows.end(), task,
      [](const auto& w, int t) { return w.demand.task < t; });
}

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

std::shared_ptr<const isa::SiLibrary> require_library(
    std::shared_ptr<const isa::SiLibrary> lib) {
  RISPP_REQUIRE(lib != nullptr, "manager needs an SI library");
  return lib;
}

}  // namespace

void validate(const RtConfig& cfg) {
  RISPP_REQUIRE(cfg.atom_containers > 0, "need at least one atom container");
  RISPP_REQUIRE(cfg.clock_mhz > 0, "clock must be positive");
  RISPP_REQUIRE(cfg.learning_rate >= 0 && cfg.learning_rate <= 1,
                "learning_rate must be in [0,1]");
  RISPP_REQUIRE(cfg.rotation_cost_factor >= 0,
                "rotation_cost_factor must be non-negative");
  if (!selection_policy_registered(cfg.selection_policy))
    throw util::PreconditionError(
        "unknown selection policy '" + cfg.selection_policy +
        "' in RtConfig (registered: " + joined(selection_policy_names()) +
        ")");
  if (!replacement_policy_registered(cfg.replacement_policy))
    throw util::PreconditionError(
        "unknown replacement policy '" + cfg.replacement_policy +
        "' in RtConfig (registered: " + joined(replacement_policy_names()) +
        ")");
}

RisppManager::RisppManager(std::shared_ptr<const isa::SiLibrary> lib,
                           RtConfig cfg)
    : lib_(require_library(std::move(lib))),
      cfg_((validate(cfg), std::move(cfg))),
      containers_(cfg_.atom_containers, lib_->catalog()),
      rotations_(hw::FaultyReconfigPort(cfg_.port, cfg_.faults),
                 cfg_.clock_mhz),
      selector_(make_selection_policy(cfg_.selection_policy, *lib_)),
      replacer_(make_replacement_policy(cfg_.replacement_policy)),
      energy_(cfg_.power, cfg_.clock_mhz),
      batch_(cfg_.sink),
      windows_(lib_->size()),
      executions_(lib_->size(), 0),
      learned_(lib_->size()),
      exec_memo_(lib_->size()) {}

void RisppManager::forecast(std::size_t si, double expected_executions,
                            double probability, Cycle now, int task) {
  RISPP_REQUIRE(si < lib_->size(), "SI index out of range");
  RISPP_REQUIRE(expected_executions >= 0, "expectation must be non-negative");
  RISPP_REQUIRE(probability > 0 && probability <= 1,
                "probability must be in (0,1]");

  // Monitoring (a): blend the compile-time value with what previous
  // forecast→release windows actually observed.
  double expectation = expected_executions;
  if (const auto& learned = learned_[si])
    expectation = cfg_.learning_rate * *learned +
                  (1.0 - cfg_.learning_rate) * expected_executions;

  auto& windows = windows_[si];
  auto it = find_window(windows, task);
  if (it == windows.end() || it->demand.task != task)
    it = windows.insert(it, Window{});
  it->demand = ForecastDemand{si, expectation, probability, task};
  it->executions_at_forecast = executions_[si];
  resum_demand(si);

  counters_.bump(Counter::Forecasts);
  if (batch_.enabled())
    batch_.emit({.at = now,
                 .kind = obs::EventKind::ForecastSeen,
                 .task = task,
                 .si = static_cast<std::int64_t>(si)});
  reallocate(now);
}

void RisppManager::forecast_release(std::size_t si, Cycle now, int task) {
  if (si >= windows_.size()) return;
  auto& windows = windows_[si];
  const auto it = find_window(windows, task);
  if (it == windows.end() || it->demand.task != task) return;

  // Learn from this window: what did the SI actually execute?
  const double observed =
      static_cast<double>(executions_[si] - it->executions_at_forecast);
  auto& learned = learned_[si];
  learned = learned ? cfg_.learning_rate * observed +
                          (1.0 - cfg_.learning_rate) * *learned
                    : observed;

  windows.erase(it);
  resum_demand(si);
  counters_.bump(Counter::ForecastReleases);
  if (batch_.enabled())
    batch_.emit({.at = now,
                 .kind = obs::EventKind::ForecastReleased,
                 .task = task,
                 .si = static_cast<std::int64_t>(si)});
  reallocate(now);
}

void RisppManager::on_fc_block(const forecast::FcBlock& block, Cycle now,
                               int task) {
  for (const auto& p : block.points)
    forecast(p.si_index, p.expected_executions, p.probability, now, task);
}

void RisppManager::process_failures(Cycle now) {
  // O(1) out in the fault-free common case — execute() pays one branch
  // instead of a take_failures() call per invocation.
  if (!rotations_.has_pending_failures()) return;
  for (const auto& b : rotations_.take_failures(now)) {
    // The container held the load's slices until the transfer ended, however
    // late the host entered the kernel: integrate leakage up to `done`
    // before they leave. Failures arrive in `done` order and every kernel
    // entry retires all failures due by its `now`, so `done` is never
    // earlier than the meter's last timestamp.
    energy_.advance_leakage(b.done, loaded_slices());
    const bool quarantined = containers_.on_rotation_failed(
        b.container, b.atom_kind, b.done, cfg_.max_rotation_retries,
        cfg_.retry_backoff_cycles);
    // The transfer's energy was really spent — no refund, unlike a cancel.
    counters_.bump(Counter::RotationsFailed);
    if (b.result == hw::TransferResult::Poisoned)
      counters_.bump(Counter::RotationsPoisoned);
    ++state_generation_;  // the failed booking left the timeline; a backoff
                          // (or quarantine) changed the unblock horizon
    if (batch_.enabled())
      batch_.emit({.at = b.done,
                   .kind = obs::EventKind::RotationFailed,
                   .container = static_cast<std::int32_t>(b.container),
                   .atom = static_cast<std::int64_t>(b.atom_kind),
                   .cycles = b.done - b.start,
                   // identifies the span whose transfer this was
                   .prev_cycles = b.start});
    if (quarantined) {
      counters_.bump(Counter::AcsQuarantined);
      if (batch_.enabled())
        batch_.emit({.at = b.done,
                     .kind = obs::EventKind::AcQuarantined,
                     .container = static_cast<std::int32_t>(b.container)});
    } else {
      counters_.bump(Counter::RotationRetries);
    }
  }
}

void RisppManager::reallocate(Cycle now) {
  process_failures(now);
  containers_.refresh(now);
  energy_.advance_leakage(now, loaded_slices());
  counters_.bump(Counter::Reallocations);

  // --- plan stage ----------------------------------------------------
  // Plan against the in-service AC budget: quarantined containers are gone
  // for good, so the selector must not count on their slots. The selector
  // revalidates the previous plan's scan record when the demanded SIs and
  // the budget are unchanged.
  selector_->replan(demands_, containers_.usable_count(), plan_);
  counters_.bump(Counter::SelectorPlans);

  // --- gate / cancel-stale / issue stages -----------------------------
  if (gate_passes(demands_)) {
    if (cfg_.cancel_stale_rotations) cancel_stale(now);
    issue(now);
  }
  // Reallocations are the batch's flush boundary: every forecast, release
  // and poll hands the buffered run to the sink here, so an attached
  // profiler/recorder is never more than one poll behind.
  batch_.flush();
}

bool RisppManager::gate_passes(
    const std::vector<ForecastDemand>& demands) const {
  // Cost-aware gate: skip the whole reconfiguration when the expected gain
  // over the *current* configuration does not pay for the transfers.
  if (cfg_.rotation_cost_factor <= 0.0) return true;
  const auto& current = containers_.committed_atoms();
  const double gain = selector_->benefit(plan_.target, demands) -
                      selector_->benefit(current, demands);
  // Transfer cost of the residual current ▷ target (committed atoms are
  // all rotatable, so no projection is needed).
  const auto have = current.counts();
  const auto want = plan_.target.counts();
  double cost_cycles = 0;
  for (std::size_t k = 0; k < want.size(); ++k)
    if (want[k] > have[k])
      cost_cycles += static_cast<double>(want[k] - have[k]) *
                     static_cast<double>(
                         rotations_.duration_cycles(k, lib_->catalog()));
  return !(cost_cycles > 0 && gain <= cfg_.rotation_cost_factor * cost_cycles);
}

void RisppManager::cancel_stale(Cycle now) {
  // Cancel queued transfers the new plan no longer wants: the port slot is
  // lost, but the container frees immediately and the stale atom never
  // occupies it.
  for (unsigned c = 0; c < containers_.size(); ++c) {
    const auto pending = rotations_.pending_for(c, now);
    if (!pending) continue;
    const auto kind = pending->atom_kind;
    if (containers_.committed_atoms()[kind] <= plan_.target[kind])
      continue;  // still wanted
    if (!rotations_.cancel_pending(c, now)) continue;
    containers_.abort_rotation(c);
    energy_.refund_rotation(pending->done - pending->start);
    counters_.bump(Counter::RotationsCancelled);
    ++state_generation_;  // a completion point left the timeline
    // The RotationFinished emitted at issue time will never happen; this
    // event is its tombstone, keyed on (container, transfer start).
    if (batch_.enabled())
      batch_.emit({.at = now,
                   .kind = obs::EventKind::RotationCancelled,
                   .container = static_cast<std::int32_t>(c),
                   .atom = static_cast<std::int64_t>(kind),
                   .cycles = pending->done - pending->start,
                   // identifies the span that will never happen
                   .prev_cycles = pending->start});
  }
}

void RisppManager::issue(Cycle now) {
  // Issue rotations in greedy step order — most valuable upgrades first —
  // so SIs come online gradually (minimal Molecule before refinements).
  // `cum` is the configuration the plan wants after each step; rotations
  // fill the gap between it and what the containers are committed to.
  auto& cum = issue_cum_;
  cum.assign(lib_->catalog().size(), 0);
  for (const auto& step : plan_.steps) {
    const auto additional = step.additional.counts();
    for (std::size_t kind = 0; kind < cum.size(); ++kind)
      cum[kind] += additional[kind];
    // start_rotation updates the committed counts in place, so this view
    // stays current through the loop below.
    const auto committed = containers_.committed_atoms().counts();
    for (std::size_t kind = 0; kind < cum.size(); ++kind) {
      while (committed[kind] < cum[kind]) {
        const auto victim =
            containers_.choose_victim(plan_.target, now, *replacer_);
        if (!victim) return;  // all remaining containers busy or needed;
                              // the next wakeup or forecast event retries
        const auto& vc = containers_.at(*victim);
        const auto evicted = vc.loading ? vc.loading : vc.atom;
        const auto booking =
            rotations_.schedule(now, kind, lib_->catalog(), *victim);
        containers_.start_rotation(*victim, kind, booking.done);
        ++state_generation_;  // a new completion point entered the timeline
        // Energy covers the actual transfer window (bandwidth degradation
        // stretches it); identical to the nominal duration when fault-free.
        energy_.add_rotation(booking.done - booking.start);
        counters_.bump(Counter::Rotations);
        if (booking.done - booking.start >
            rotations_.duration_cycles(kind, lib_->catalog()))
          counters_.bump(Counter::RotationsDegraded);
        if (batch_.enabled()) {
          if (evicted)
            batch_.emit({.at = now,
                         .kind = obs::EventKind::AtomEvicted,
                         .task = step.task,
                         .container = static_cast<std::int32_t>(*victim),
                         .atom = static_cast<std::int64_t>(*evicted)});
          // The span covers the actual transfer window [start, done) — the
          // hw::ReconfigPort latency — not the queueing delay before it.
          // prev_cycles carries the booking cycle so consumers can separate
          // port queueing (booked → start) from the transfer itself.
          const obs::Event span{.at = booking.start,
                                .kind = obs::EventKind::RotationStarted,
                                .task = step.task,
                                .container = static_cast<std::int32_t>(*victim),
                                .si = static_cast<std::int64_t>(step.si_index),
                                .atom = static_cast<std::int64_t>(kind),
                                .cycles = booking.done - booking.start,
                                .prev_cycles = now};
          batch_.emit(span);
          // Only a clean transfer announces its completion up front; a
          // faulty booking's terminal event is the RotationFailed that
          // process_failures emits at discovery.
          if (booking.result == hw::TransferResult::Ok) {
            obs::Event fin = span;
            fin.at = booking.done;
            fin.kind = obs::EventKind::RotationFinished;
            batch_.emit(fin);
          }
        }
      }
    }
  }
}

void RisppManager::poll(Cycle now) { reallocate(now); }

RisppManager::ExecResult RisppManager::execute(std::size_t si, Cycle now,
                                               int task) {
  RISPP_REQUIRE(si < lib_->size(), "SI index out of range");
  // Upgrade detection is keyed per (SI, task): a task's first execution of
  // an SI is an observation, not an upgrade, even when another task already
  // ran the same SI at a different speed. Looked up (and the task id
  // checked) before anything changes.
  std::uint32_t* const last =
      batch_.enabled() ? &last_exec_cycles(si, task) : nullptr;
  process_failures(now);  // a poisoned load must never execute an SI
  containers_.refresh(now);
  energy_.advance_leakage(now, loaded_slices());

  // Monitoring: an execution counts against every active window for this
  // SI, whichever task ran it (`task` only labels the event and keys the
  // upgrade check); the windows read the counter at their release.
  ++executions_[si];

  // Fastest-supported lookup, allocation-free: right after refresh(now) the
  // incremental usable_atoms() view equals available_atoms(now), the
  // options' rotatable projections are the library's table, and the winner
  // is memoized on the usable-atom generation with its energy increment —
  // between rotations the scan reduces to one integer compare.
  const auto& instr = lib_->at(si);
  auto& memo = exec_memo_[si];
  const auto generation = containers_.usable_generation();
  if (memo.generation != generation) {
    memo.option =
        lib_->fastest_option(si, containers_.usable_atoms().counts());
    const bool hw = memo.option != isa::SiLibrary::kSoftware;
    memo.energy_nj = energy_.execution_cost_nj(
        hw ? instr.options()[memo.option].cycles : instr.software_cycles(),
        hw);
    memo.generation = generation;
  }

  ExecResult res;
  energy_.add_execution_nj(memo.energy_nj);
  if (memo.option != isa::SiLibrary::kSoftware) {
    const auto& chosen = instr.options()[memo.option];
    res = {chosen.cycles, true, &chosen};
    containers_.touch(lib_->projection(si, memo.option), now);
    counters_.bump(Counter::SiExecHw);
  } else {
    res = {instr.software_cycles(), false, nullptr};
    counters_.bump(Counter::SiExecSw);
  }
  if (last) {
    batch_.emit({.at = now,
                 .kind = obs::EventKind::SiExecuted,
                 .task = task,
                 .si = static_cast<std::int64_t>(si),
                 .cycles = res.cycles,
                 .hardware = res.hardware});
    if (*last != 0 && *last != res.cycles)
      batch_.emit({.at = now,
                   .kind = obs::EventKind::MoleculeUpgraded,
                   .task = task,
                   .si = static_cast<std::int64_t>(si),
                   .cycles = res.cycles,
                   .prev_cycles = *last,
                   .hardware = res.hardware});
    *last = res.cycles;
  }
  return res;
}

std::uint32_t& RisppManager::last_exec_cycles(std::size_t si, int task) {
  const auto row = std::int64_t{task} - kNoTask;
  RISPP_REQUIRE(row >= 0 && row < obs::kMaxDenseIds,
                "task id " + std::to_string(task) + " is out of range");
  const auto at = static_cast<std::size_t>(row) * lib_->size() + si;
  if (at >= last_exec_cycles_.size())
    last_exec_cycles_.resize((static_cast<std::size_t>(row) + 1) *
                             lib_->size());
  return last_exec_cycles_[at];
}

atom::Molecule RisppManager::available_atoms(Cycle now) {
  process_failures(now);
  containers_.refresh(now);
  return containers_.available_atoms(now);
}

void RisppManager::resum_demand(std::size_t si) {
  // Aggregate SI si's windows: weights (expectation × probability) sum
  // across tasks, in ascending task order — the order a rebuild over all
  // windows would use, so the sum is bit-identical to it. The task goes to
  // the window heavier than the running sum.
  std::optional<ForecastDemand> merged;
  for (const auto& w : windows_[si]) {
    const auto& d = w.demand;
    if (!merged) {
      // Normalize so weight() is preserved under probability = 1.
      merged = d;
      merged->expected_executions = d.weight();
      merged->probability = 1.0;
      continue;
    }
    if (d.weight() > merged->expected_executions) merged->task = d.task;
    merged->expected_executions += d.weight();
  }
  const auto pos = std::lower_bound(
      demands_.begin(), demands_.end(), si,
      [](const ForecastDemand& d, std::size_t s) { return d.si_index < s; });
  const bool present = pos != demands_.end() && pos->si_index == si;
  if (merged && present)
    *pos = *merged;
  else if (merged)
    demands_.insert(pos, *merged);
  else if (present)
    demands_.erase(pos);
}

std::optional<double> RisppManager::learned_expectation(std::size_t si) const {
  if (si >= learned_.size()) return std::nullopt;
  return learned_[si];
}

}  // namespace rispp::rt
