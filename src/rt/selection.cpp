#include "rispp/rt/selection.hpp"

#include <algorithm>
#include <functional>

#include "rispp/util/error.hpp"

namespace rispp::rt {

namespace {

/// A demand's entry in the scan key: its SI, or kOff when a weight ≤ 0
/// leaves it no candidate.
std::size_t key_si(const ForecastDemand& d) {
  return d.weight() <= 0 ? ScanRecord::kOff : d.si_index;
}

bool same_key(const ScanRecord& rec, const std::vector<ForecastDemand>& demands,
              std::uint64_t containers, std::span<const atom::Count> cap) {
  if (!rec.valid || rec.containers != containers ||
      rec.sis.size() != demands.size() ||
      !std::equal(cap.begin(), cap.end(), rec.limit.begin(), rec.limit.end()))
    return false;
  for (std::size_t d = 0; d < demands.size(); ++d)
    if (rec.sis[d] != key_si(demands[d])) return false;
  return true;
}

void rekey(ScanRecord& rec, const std::vector<ForecastDemand>& demands,
           std::uint64_t containers, std::span<const atom::Count> cap) {
  rec.sis.clear();
  for (const auto& d : demands) rec.sis.push_back(key_si(d));
  rec.containers = containers;
  rec.limit.assign(cap.begin(), cap.end());
  rec.steps.clear();
  rec.candidates.clear();
}

}  // namespace

void greedy_plan(const isa::SiLibrary& lib,
                 const std::vector<ForecastDemand>& demands,
                 std::uint64_t containers, const atom::Molecule* limit,
                 SelectionPlan& plan) {
  const auto dim = lib.catalog().size();
  RISPP_REQUIRE(!limit || limit->dimension() == dim,
                "selection limit dimension does not match the catalog");
  const auto cap = limit ? limit->counts() : std::span<const atom::Count>{};
  auto& rec = plan.scan;
  // Recorded steps [0, kept) are revalidated; later ones are scanned fresh.
  bool changed = !same_key(rec, demands, containers, cap);
  if (changed) {
    rekey(rec, demands, containers, cap);
    plan.steps.clear();
  }
  rec.valid = false;  // until the record describes a complete plan again
  std::size_t kept = rec.steps.size();
  // The configuration built so far, as a count array. It only ever holds
  // rotatable counts, so its sum is the number of containers it occupies.
  auto& target = rec.target;
  target.assign(dim, 0);
  std::uint64_t used = 0;

  // Once every recorded step holds, so does the final, empty scan: which
  // candidates are admissible depends on no weight.
  for (std::size_t s = 0; s < kept || changed; ++s) {
    if (s >= kept) {
      const auto begin = rec.candidates.size();
      for (std::size_t d = 0; d < demands.size(); ++d) {
        const auto si = rec.sis[d];
        if (si == ScanRecord::kOff) continue;
        const auto& options = lib.at(si).options();
        const auto current = lib.cycles_on(si, target);
        for (std::size_t o = 0; o < options.size(); ++o) {
          const auto cycles = options[o].cycles;
          if (cycles >= current) continue;
          // k = |need|, need = the option's rotatable residual over target;
          // under a limit, target + need must stay within it.
          const auto row = lib.projection(si, o);
          std::uint64_t k = 0;
          bool within = true;
          for (std::size_t i = 0; i < dim; ++i) {
            const atom::Count need =
                row[i] > target[i] ? row[i] - target[i] : 0;
            k += need;
            if (limit && target[i] + need > cap[i]) within = false;
          }
          if (k == 0) continue;  // already supported (cycles check caught it)
          if (used + k > containers) continue;
          if (!within) continue;
          rec.candidates.push_back(ScanCandidate{
              .demand = d,
              .option = o,
              .saved = current - cycles,
              .current = current,
              .k = k,
          });
        }
      }
      if (rec.candidates.size() == begin) break;
      rec.steps.push_back({.begin = begin, .end = rec.candidates.size()});
    }

    // The weight-dependent half: the best gain, first one on ties.
    auto& step = rec.steps[s];
    std::size_t best = step.end;
    double best_gain = 0.0;
    for (auto i = step.begin; i < step.end; ++i) {
      const auto& c = rec.candidates[i];
      const double gain = demands[c.demand].weight() *
                          static_cast<double>(c.saved) /
                          static_cast<double>(c.k);
      if (best == step.end || gain > best_gain) {
        best = i;
        best_gain = gain;
      }
    }
    const auto& win = rec.candidates[best];

    if (s < kept && best == step.chosen) {  // same Atoms, new gain and task
      auto& kept_step = plan.steps[s];
      kept_step.gain_per_container = best_gain;
      kept_step.task = demands[win.demand].task;
      const auto additional = kept_step.additional.counts();
      for (std::size_t i = 0; i < dim; ++i) target[i] += additional[i];
      used += win.k;
      continue;
    }
    if (s < kept) {
      // The winner changed: later steps were scanned from a target that no
      // longer holds.
      rec.candidates.resize(step.end);
      rec.steps.resize(s + 1);
      plan.steps.resize(s);
      kept = s + 1;
      changed = true;
    }
    step.chosen = best;

    const auto si = demands[win.demand].si_index;
    const auto row = lib.projection(si, win.option);
    std::vector<atom::Count> additional(dim, 0);
    for (std::size_t i = 0; i < dim; ++i)
      if (row[i] > target[i]) {
        additional[i] = row[i] - target[i];
        target[i] = row[i];
        used += additional[i];
      }
    plan.steps.push_back(SelectionStep{
        .si_index = si,
        .additional = atom::Molecule(std::move(additional)),
        .old_cycles = win.current,
        .new_cycles = win.current - win.saved,
        .gain_per_container = best_gain,
        .task = demands[win.demand].task,
    });
  }
  if (changed) plan.target = atom::Molecule(target);
  rec.valid = true;
}

namespace {

/// Enumerates one option choice (or software = no atoms) per demanded SI and
/// returns the feasible configuration with the best total benefit.
atom::Molecule exhaustive_target(const SelectionPolicy& policy,
                                 const isa::SiLibrary& lib,
                                 const std::vector<ForecastDemand>& demands,
                                 std::uint64_t containers) {
  const auto& cat = lib.catalog();
  auto best = cat.zero();
  double best_benefit = 0.0;

  std::function<void(std::size_t, atom::Molecule)> recurse =
      [&](std::size_t i, atom::Molecule config) {
        if (cat.rotatable_determinant(config) > containers) return;
        if (i == demands.size()) {
          const double b = policy.benefit(config, demands);
          if (b > best_benefit) {
            best_benefit = b;
            best = config;
          }
          return;
        }
        recurse(i + 1, config);  // software execution for SI i
        for (const auto& opt : lib.at(demands[i].si_index).options())
          recurse(i + 1, config.unite(cat.project_rotatable(opt.atoms)));
      };
  recurse(0, cat.zero());
  return best;
}

}  // namespace

void GreedySelector::replan(const std::vector<ForecastDemand>& demands,
                            std::uint64_t containers,
                            SelectionPlan& plan) const {
  greedy_plan(library(), demands, containers, nullptr, plan);
}

void ExhaustiveSelector::replan(const std::vector<ForecastDemand>& demands,
                                std::uint64_t containers,
                                SelectionPlan& plan) const {
  const auto target = exhaustive_target(*this, library(), demands, containers);
  greedy_plan(library(), demands, containers, &target, plan);
  // Steps may not cover atoms that no SI benefits from incrementally; the
  // target still protects them from eviction, so report it as planned.
  plan.target = target;
}

}  // namespace rispp::rt
