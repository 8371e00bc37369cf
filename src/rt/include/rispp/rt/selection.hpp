#pragma once
/// \file selection.hpp
/// \brief Run-time Molecule selection (paper §5b): given the currently
/// forecasted SIs and the Atom Container budget, decide which Atoms the
/// platform should converge to.
///
/// Both selectors implement rt::SelectionPolicy (policy.hpp) and sit in the
/// policy factory's key table ("greedy" / "exhaustive"), so the
/// reallocation kernel, the ablation benches, the sweep's `selector` axis
/// and `rispp_workload simulate --selector=` can swap them by name.
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

/// The greedy step construction behind both selectors, into `plan`.
/// Starting from the empty configuration, each step takes the (demand,
/// option) upgrade with the highest weight × cycles saved per additional
/// container, scanning demands in the given order and options in library
/// order (ties keep the first). When `limit` is given, only steps whose
/// cumulative target stays within it are admissible — that is how
/// ExhaustiveSelector orders the upgrades inside its independently
/// optimised target. Works over the library's projection table: one
/// Molecule is built per chosen step.
///
/// A scan records each step's admissible candidates in `plan.scan`. They
/// depend only on the key — which demands have a positive weight and their
/// SIs, the AC budget, the limit — and on the steps before. When the key
/// matches the record's, the recorded steps are revalidated: their gains
/// are recomputed in the recorded order with the same expression, a step
/// whose winner holds keeps its Atoms and gets the new gain and task, and
/// the scan resumes fresh from the first step whose winner changed. The
/// result equals a fresh plan's in every field. Precondition: `plan` is
/// empty or holds this function's last result over the same library.
void greedy_plan(const isa::SiLibrary& lib,
                 const std::vector<ForecastDemand>& demands,
                 std::uint64_t containers, const atom::Molecule* limit,
                 SelectionPlan& plan);

class GreedySelector : public SelectionPolicy {
 public:
  explicit GreedySelector(const isa::SiLibrary& lib) : SelectionPolicy(lib) {}

  /// greedy_plan without a limit.
  void replan(const std::vector<ForecastDemand>& demands,
              std::uint64_t containers, SelectionPlan& plan) const override;

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

  /// Enumerates the target, then revalidates or re-runs greedy_plan with
  /// it as the limit (so a new target is a new key).
  void replan(const std::vector<ForecastDemand>& demands,
              std::uint64_t containers, SelectionPlan& plan) const override;

  std::string_view name() const override { return "exhaustive"; }
};

}  // namespace rispp::rt
