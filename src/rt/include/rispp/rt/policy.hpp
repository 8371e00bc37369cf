#pragma once
/// \file policy.hpp
/// \brief Pluggable run-time policies (paper §5b/§5c as seams).
///
/// The run-time system is a pipeline of separable decisions: *which*
/// configuration to converge to (Molecule selection) and *which* container
/// to sacrifice for the next rotation (Atom replacement). This header makes
/// both decisions explicit strategy interfaces, and the reallocation kernel
/// calls them only through these interfaces:
///
///  * SelectionPolicy   — plans a target configuration plus the greedy step
///    order that makes SIs come online gradually ("Rotation in Advance").
///    Implementations: GreedySelector, ExhaustiveSelector (selection.hpp).
///  * ReplacementPolicy — picks the rotation victim among the *expendable*
///    candidates (containers whose committed content exceeds the target;
///    needed Atoms are never evicted, empty containers are always taken
///    first). Implementations: LRU, MRU, round-robin (this header).
///
/// Policies are constructed by key (make_selection_policy /
/// make_replacement_policy) from one fixed table per policy kind in
/// policy.cpp; the `--selector=` / `--victim=` CLI switches of the ablation
/// benches, the sweep's `selector` / `replacement` axes and
/// `rispp_workload simulate` resolve against the same table. Adding a
/// policy means one class plus one table entry (DESIGN.md §7).

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rispp/atom/molecule.hpp"
#include "rispp/isa/si_library.hpp"
#include "rispp/rt/container.hpp"

namespace rispp::rt {

/// One forecasted SI with its run-time-updated expectation values.
struct ForecastDemand {
  std::size_t si_index = 0;
  double expected_executions = 0.0;
  double probability = 1.0;
  int task = -1;

  double weight() const { return expected_executions * probability; }
};

/// One greedy upgrade step: after loading `additional` Atoms, SI `si_index`
/// runs in `new_cycles` instead of `old_cycles`.
struct SelectionStep {
  std::size_t si_index = 0;
  atom::Molecule additional;  ///< rotatable Atoms this step adds
  std::uint32_t old_cycles = 0;
  std::uint32_t new_cycles = 0;
  double gain_per_container = 0.0;
  int task = -1;
};

/// One admissible upgrade a greedy scan found (see greedy_plan): demand
/// `demand` (an index into the demand vector) moves to option `option` of
/// its SI, saving `saved` of its `current` cycles for `k` more containers.
/// None of it depends on the demand's weight.
struct ScanCandidate {
  std::size_t demand = 0;
  std::size_t option = 0;
  std::uint32_t saved = 0;
  std::uint32_t current = 0;
  std::uint64_t k = 0;

  bool operator==(const ScanCandidate&) const = default;
};

/// The weight-independent half of a greedy plan, kept so that a re-plan
/// whose key matches recomputes only the gains (greedy_plan).
struct ScanRecord {
  static constexpr std::size_t kOff = ~std::size_t{0};

  /// --- key: every input a candidate depends on, besides the library ---
  bool valid = false;  ///< the record describes a complete plan
  /// Per demand: its SI index, or kOff when its weight is ≤ 0.
  std::vector<std::size_t> sis;
  std::uint64_t containers = 0;      ///< the AC budget
  std::vector<atom::Count> limit;    ///< the limit's counts; empty if none

  /// --- per step, in plan order ---
  struct Step {
    std::size_t begin = 0;   ///< the step's candidates are
    std::size_t end = 0;     ///< candidates[begin, end)
    std::size_t chosen = 0;  ///< index of the winner in `candidates`

    bool operator==(const Step&) const = default;
  };
  std::vector<Step> steps;
  std::vector<ScanCandidate> candidates;  ///< every step's, in scan order
  /// Scratch: the configuration the steps have built so far.
  std::vector<atom::Count> target;

  bool operator==(const ScanRecord&) const = default;
};

struct SelectionPlan {
  atom::Molecule target;             ///< rotatable Atom configuration
  std::vector<SelectionStep> steps;  ///< in application order
  ScanRecord scan;                   ///< what re-planning revalidates
};

/// Decides which Atom configuration the platform should converge to
/// (paper §5b). The plan's *step order* matters as much as the target:
/// the kernel issues rotations step by step, which is what upgrades an SI
/// software → minimal Molecule → faster Molecules (Fig 6, T4–T5).
class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  /// Plans the target configuration for `containers` AC slots into `plan`.
  /// Steps start from the empty configuration; the kernel diffs the target
  /// against what is already committed. Precondition: `plan` is either
  /// empty or the previous result of this same policy object, whose scan
  /// record it may revalidate instead of planning from scratch. The result
  /// equals a fresh plan's in every field.
  virtual void replan(const std::vector<ForecastDemand>& demands,
                      std::uint64_t containers, SelectionPlan& plan) const = 0;

  /// A fresh plan: replan into an empty one.
  SelectionPlan plan(const std::vector<ForecastDemand>& demands,
                     std::uint64_t containers) const {
    SelectionPlan p;
    replan(demands, containers, p);
    return p;
  }

  /// Total expected benefit (weighted cycles saved vs all-software) of a
  /// configuration for the given demands. Shared across implementations —
  /// the cost-aware reallocation gate compares plans through it.
  double benefit(const atom::Molecule& config,
                 const std::vector<ForecastDemand>& demands) const;

  /// Factory key of this policy (e.g. "greedy").
  virtual std::string_view name() const = 0;

 protected:
  explicit SelectionPolicy(const isa::SiLibrary& lib) : lib_(&lib) {}
  const isa::SiLibrary& library() const { return *lib_; }

 private:
  const isa::SiLibrary* lib_;
};

/// Picks the rotation victim among expendable candidates (paper §5c;
/// VictimCandidate is in container.hpp). `pick` is only called with a
/// non-empty candidate list, built in container-id order; stateful policies
/// (the round-robin cursor) update their state inside pick — one policy
/// instance therefore belongs to one ContainerFile.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;
  virtual unsigned pick(std::span<const VictimCandidate> candidates) = 0;
  virtual std::string_view name() const = 0;
};

/// Least-recently-used excess container (the platform default): stale Atoms
/// are the cheapest to give up. Ties break towards the lowest container id.
class LruReplacement final : public ReplacementPolicy {
 public:
  unsigned pick(std::span<const VictimCandidate> candidates) override;
  std::string_view name() const override { return "lru"; }
};

/// Most-recently-used — an adversarial anti-policy for ablations.
class MruReplacement final : public ReplacementPolicy {
 public:
  unsigned pick(std::span<const VictimCandidate> candidates) override;
  std::string_view name() const override { return "mru"; }
};

/// Rotating cursor over container ids: successive evictions cycle through
/// the expendable containers instead of hammering the lowest id.
class RoundRobinReplacement final : public ReplacementPolicy {
 public:
  unsigned pick(std::span<const VictimCandidate> candidates) override;
  std::string_view name() const override { return "round-robin"; }

 private:
  unsigned cursor_ = 0;  ///< next container id to prefer
};

/// --- key-based factory --------------------------------------------------
/// Keys: selection "exhaustive", "greedy"; replacement "lru", "mru",
/// "round-robin". Unknown keys throw util::PreconditionError listing the
/// valid keys.

std::unique_ptr<SelectionPolicy> make_selection_policy(
    const std::string& name, const isa::SiLibrary& lib);
std::unique_ptr<ReplacementPolicy> make_replacement_policy(
    const std::string& name);

/// Valid keys, sorted — the benches print these for --selector/--victim.
std::vector<std::string> selection_policy_names();
std::vector<std::string> replacement_policy_names();

/// True when `name` is a valid key — config validation uses these to reject
/// unknown keys before any thread or simulation starts.
bool selection_policy_registered(const std::string& name);
bool replacement_policy_registered(const std::string& name);

}  // namespace rispp::rt
