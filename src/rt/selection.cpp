#include "rispp/rt/selection.hpp"

#include <algorithm>
#include <functional>

#include "rispp/util/error.hpp"

namespace rispp::rt {

SelectionPlan greedy_plan(const isa::SiLibrary& lib,
                          const std::vector<ForecastDemand>& demands,
                          std::uint64_t containers,
                          const atom::Molecule* limit) {
  const auto dim = lib.catalog().size();
  RISPP_REQUIRE(!limit || limit->dimension() == dim,
                "selection limit dimension does not match the catalog");
  // The configuration built so far, as a count array. It only ever holds
  // rotatable counts, so its sum is the number of containers it occupies.
  std::vector<atom::Count> target(dim, 0);
  std::uint64_t used = 0;
  const auto cap = limit ? limit->counts() : std::span<const atom::Count>{};
  SelectionPlan out;

  while (true) {
    // The best upgrade is remembered by (demand, option); its Molecule is
    // built once, after the scan.
    const ForecastDemand* best = nullptr;
    std::size_t best_option = 0;
    std::uint32_t best_current = 0;
    double best_gain = 0.0;

    for (const auto& d : demands) {
      if (d.weight() <= 0) continue;
      const auto& options = lib.at(d.si_index).options();
      const auto current = lib.cycles_on(d.si_index, target);
      for (std::size_t o = 0; o < options.size(); ++o) {
        const auto cycles = options[o].cycles;
        if (cycles >= current) continue;
        // k = |need|, need = the option's rotatable residual over target;
        // under a limit, target + need must stay within it.
        const auto row = lib.projection(d.si_index, o);
        std::uint64_t k = 0;
        bool within = true;
        for (std::size_t i = 0; i < dim; ++i) {
          const atom::Count need = row[i] > target[i] ? row[i] - target[i] : 0;
          k += need;
          if (limit && target[i] + need > cap[i]) within = false;
        }
        if (k == 0) continue;  // already supported (cycles check caught it)
        if (used + k > containers) continue;
        if (!within) continue;
        const double gain = d.weight() *
                            static_cast<double>(current - cycles) /
                            static_cast<double>(k);
        if (!best || gain > best_gain) {
          best = &d;
          best_option = o;
          best_current = current;
          best_gain = gain;
        }
      }
    }
    if (!best) break;

    const auto row = lib.projection(best->si_index, best_option);
    std::vector<atom::Count> additional(dim, 0);
    for (std::size_t i = 0; i < dim; ++i)
      if (row[i] > target[i]) {
        additional[i] = row[i] - target[i];
        target[i] = row[i];
        used += additional[i];
      }
    out.steps.push_back(SelectionStep{
        .si_index = best->si_index,
        .additional = atom::Molecule(std::move(additional)),
        .old_cycles = best_current,
        .new_cycles = lib.at(best->si_index).options()[best_option].cycles,
        .gain_per_container = best_gain,
        .task = best->task,
    });
  }
  out.target = atom::Molecule(std::move(target));
  return out;
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
