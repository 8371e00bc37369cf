#pragma once
/// Reference Molecule selection: the Molecule-based greedy step
/// construction and cycles_with-based benefit that the run-time kernel used
/// before it moved onto isa::SiLibrary's flat projection table. They build
/// Molecules per option and per demand and cache nothing, which makes them
/// slow and easy to read. rt_selection_oracle_test diffs the kernel's
/// greedy_plan, ExhaustiveSelector and SelectionPolicy::benefit against
/// them, step by step and at zero tolerance.

#include <cstdint>
#include <functional>
#include <vector>

#include "rispp/atom/molecule.hpp"
#include "rispp/isa/si_library.hpp"
#include "rispp/rt/policy.hpp"

namespace selection_reference {

using rispp::atom::Molecule;
using rispp::isa::SiLibrary;
using rispp::rt::ForecastDemand;
using rispp::rt::SelectionPlan;
using rispp::rt::SelectionStep;

/// Total expected benefit (weighted cycles saved vs all-software) of
/// `config` for `demands`.
inline double benefit(const SiLibrary& lib, const Molecule& config,
                      const std::vector<ForecastDemand>& demands) {
  const auto& cat = lib.catalog();
  double total = 0.0;
  for (const auto& d : demands) {
    const auto& si = lib.at(d.si_index);
    const auto cycles = si.cycles_with(config, cat);
    total += d.weight() * static_cast<double>(si.software_cycles() - cycles);
  }
  return total;
}

/// Greedy upgrade steps from the empty configuration; with `limit`, only
/// steps whose cumulative target stays within it.
inline SelectionPlan greedy_plan(const SiLibrary& lib,
                                 const std::vector<ForecastDemand>& demands,
                                 std::uint64_t containers,
                                 const Molecule* limit) {
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

/// The benefit-optimal configuration over one option choice (or software)
/// per demand, within `containers` slots.
inline Molecule exhaustive_target(const SiLibrary& lib,
                                  const std::vector<ForecastDemand>& demands,
                                  std::uint64_t containers) {
  const auto& cat = lib.catalog();
  auto best = cat.zero();
  double best_benefit = 0.0;

  std::function<void(std::size_t, Molecule)> recurse =
      [&](std::size_t i, Molecule config) {
        if (cat.rotatable_determinant(config) > containers) return;
        if (i == demands.size()) {
          const double b = benefit(lib, config, demands);
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

/// ExhaustiveSelector's plan: greedy steps inside the exhaustive target,
/// reported with that target.
inline SelectionPlan exhaustive_plan(const SiLibrary& lib,
                                     const std::vector<ForecastDemand>& demands,
                                     std::uint64_t containers) {
  const auto target = exhaustive_target(lib, demands, containers);
  // Qualified: ADL on ForecastDemand would also find rt::greedy_plan.
  auto out =
      selection_reference::greedy_plan(lib, demands, containers, &target);
  out.target = target;
  return out;
}

}  // namespace selection_reference
