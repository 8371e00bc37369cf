#include "rispp/rt/selection.hpp"

#include <algorithm>
#include <functional>

#include "rispp/util/error.hpp"

namespace rispp::rt {
namespace {

/// Greedy step construction shared by both selectors. When `limit` is given,
/// only steps whose cumulative target stays within `limit` are admissible —
/// that is how ExhaustiveSelector orders the upgrades inside its
/// independently-optimised target.
SelectionPlan greedy_plan(const isa::SiLibrary& lib,
                          const std::vector<ForecastDemand>& demands,
                          std::uint64_t containers,
                          const atom::Molecule* limit) {
  const auto& cat = lib.catalog();
  SelectionPlan out;
  out.target = cat.zero();

  while (true) {
    const auto used = cat.rotatable_determinant(out.target);
    SelectionStep best;
    bool found = false;

    for (const auto& d : demands) {
      if (d.weight() <= 0) continue;
      const auto& si = lib.at(d.si_index);
      const auto current = si.cycles_with(out.target, cat);
      for (const auto& opt : si.options()) {
        if (opt.cycles >= current) continue;
        const auto need = cat.project_rotatable(
            out.target.residual_to(cat.project_rotatable(opt.atoms)));
        const auto k = need.determinant();
        if (k == 0) continue;  // already supported (cycles check caught it)
        if (used + k > containers) continue;
        if (limit && !out.target.plus(need).leq(*limit)) continue;
        const double gain =
            d.weight() * static_cast<double>(current - opt.cycles) /
            static_cast<double>(k);
        if (!found || gain > best.gain_per_container) {
          best = SelectionStep{
              .si_index = d.si_index,
              .additional = need,
              .old_cycles = current,
              .new_cycles = opt.cycles,
              .gain_per_container = gain,
              .task = d.task,
          };
          found = true;
        }
      }
    }
    if (!found) break;
    out.target = out.target.plus(best.additional);
    out.steps.push_back(best);
  }
  return out;
}

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

SelectionPlan GreedySelector::plan(const std::vector<ForecastDemand>& demands,
                                   std::uint64_t containers) const {
  return greedy_plan(library(), demands, containers, nullptr);
}

SelectionPlan ExhaustiveSelector::plan(
    const std::vector<ForecastDemand>& demands,
    std::uint64_t containers) const {
  const auto target = exhaustive_target(*this, library(), demands, containers);
  auto out = greedy_plan(library(), demands, containers, &target);
  // Steps may not cover atoms that no SI benefits from incrementally; the
  // target still protects them from eviction, so report it as planned.
  out.target = target;
  return out;
}

}  // namespace rispp::rt
