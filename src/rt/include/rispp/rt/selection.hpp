#pragma once
/// \file selection.hpp
/// \brief Run-time Molecule selection (paper §5b): given the currently
/// forecasted SIs and the Atom Container budget, decide which Atoms the
/// platform should converge to.
///
/// Both selectors implement rt::SelectionPolicy (policy.hpp) and sit in the
/// policy factory's key table ("greedy" / "exhaustive"), so the
/// reallocation kernel, the ablation benches and tools/rispp_explorer can
/// swap them by name.
///
/// The greedy selector works over *upgrade steps*: starting from the empty
/// configuration it repeatedly applies the (SI, Molecule) upgrade with the
/// highest marginal benefit per additionally required container, where the
/// benefit of an upgrade weighs the SI's forecasted executions against the
/// cycles saved over its currently best-supported execution (software when
/// nothing fits). The resulting *step sequence* is as important as the final
/// target: rotations are issued in step order, which is what makes an SI
/// upgrade gradually — software → minimal Molecule → faster Molecules —
/// exactly the "Rotation in Advance" behaviour of Fig 6.

#include <cstdint>
#include <vector>

#include "rispp/atom/molecule.hpp"
#include "rispp/isa/si_library.hpp"
#include "rispp/rt/policy.hpp"

namespace rispp::rt {

/// The greedy step construction behind both selectors. Starting from the
/// empty configuration, each step takes the (demand, option) upgrade with
/// the highest weight × cycles saved per additional container, scanning
/// demands in the given order and options in library order (ties keep the
/// first). When `limit` is given, only steps whose cumulative target stays
/// within it are admissible — that is how ExhaustiveSelector orders the
/// upgrades inside its independently optimised target. Works over the
/// library's projection table: one Molecule is built per chosen step.
SelectionPlan greedy_plan(const isa::SiLibrary& lib,
                          const std::vector<ForecastDemand>& demands,
                          std::uint64_t containers,
                          const atom::Molecule* limit = nullptr);

class GreedySelector : public SelectionPolicy {
 public:
  explicit GreedySelector(const isa::SiLibrary& lib) : SelectionPolicy(lib) {}

  /// Plans the target configuration for `containers` AC slots. The plan's
  /// steps start from the empty configuration; the caller diffs the target
  /// against what is already loaded.
  SelectionPlan plan(const std::vector<ForecastDemand>& demands,
                     std::uint64_t containers) const override;

  std::string_view name() const override { return "greedy"; }
};

/// Exhaustive reference for small instances (tests, ablation, and a policy
/// in its own right): the target is the benefit-optimal configuration over
/// all combinations of per-SI Molecule options (including software), and
/// the step sequence orders the upgrades *within* that target greedily so
/// rotations still come online most-valuable-first.
class ExhaustiveSelector : public SelectionPolicy {
 public:
  explicit ExhaustiveSelector(const isa::SiLibrary& lib)
      : SelectionPolicy(lib) {}

  SelectionPlan plan(const std::vector<ForecastDemand>& demands,
                     std::uint64_t containers) const override;

  std::string_view name() const override { return "exhaustive"; }
};

}  // namespace rispp::rt
