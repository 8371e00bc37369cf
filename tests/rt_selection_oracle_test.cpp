/// Differential test of the run-time kernel's Molecule selection against
/// the Molecule-based reference in selection_reference.hpp: greedy_plan
/// (with and without a limit), ExhaustiveSelector and
/// SelectionPolicy::benefit must agree with it exactly — every step's SI,
/// additional Atoms, old/new cycles, task and gain (compared with == on the
/// double), the target, and the benefit. Libraries: the 200 generated
/// genlib_fixture seeds plus h264 and h264_frame; per library, random
/// demand sets (random SI subsets in random order, repeats, zero weights)
/// over budgets 1..12. Re-planning is checked the same way along random
/// walks of demand sets, where one plan object is revalidated from call to
/// call and must also equal a fresh plan, scan record included.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "genlib_fixture.hpp"
#include "rispp/rt/selection.hpp"
#include "rispp/util/rng.hpp"
#include "selection_reference.hpp"

namespace {

namespace ref = selection_reference;
using rispp::atom::Molecule;
using rispp::isa::SiLibrary;
using rispp::rt::ExhaustiveSelector;
using rispp::rt::ForecastDemand;
using rispp::rt::GreedySelector;
using rispp::rt::SelectionPlan;

constexpr std::uint64_t kSeedBegin = 1;
constexpr std::uint64_t kSeedEnd = 201;  // the 200 genlib_fixture libraries
constexpr std::uint64_t kMaxBudget = 12;
/// Exhaustive instances are compared only up to this many enumeration
/// leaves (the product over demands of options + 1).
constexpr double kMaxExhaustiveLeaves = 1500;

void expect_same_plan(const SelectionPlan& got, const SelectionPlan& want) {
  EXPECT_EQ(got.target, want.target);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t i = 0; i < want.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    const auto& g = got.steps[i];
    const auto& w = want.steps[i];
    EXPECT_EQ(g.si_index, w.si_index);
    EXPECT_EQ(g.additional, w.additional);
    EXPECT_EQ(g.old_cycles, w.old_cycles);
    EXPECT_EQ(g.new_cycles, w.new_cycles);
    EXPECT_EQ(g.task, w.task);
    EXPECT_EQ(g.gain_per_container, w.gain_per_container);
  }
}

/// greedy_plan into an empty plan.
SelectionPlan fresh_greedy(const SiLibrary& lib,
                           const std::vector<ForecastDemand>& demands,
                           std::uint64_t containers,
                           const Molecule* limit = nullptr) {
  SelectionPlan plan;
  rispp::rt::greedy_plan(lib, demands, containers, limit, plan);
  return plan;
}

std::vector<ForecastDemand> random_demands(const SiLibrary& lib,
                                           rispp::util::Xoshiro256& rng) {
  std::vector<ForecastDemand> out;
  const auto n = 1 + rng.below(lib.size() + 1);
  for (std::uint64_t i = 0; i < n; ++i) {
    ForecastDemand d;
    d.si_index = rng.below(lib.size());
    d.expected_executions =
        rng.below(8) == 0 ? 0.0 : 1.0 + 500.0 * rng.uniform01();
    d.probability = 0.05 + 0.95 * rng.uniform01();
    d.task = static_cast<int>(rng.below(5)) - 1;
    out.push_back(d);
  }
  return out;
}

/// Any Molecule of the catalog's dimension, static components included.
Molecule random_molecule(const SiLibrary& lib, rispp::util::Xoshiro256& rng) {
  Molecule m(lib.catalog().size());
  for (std::size_t i = 0; i < m.dimension(); ++i)
    m.set(i, static_cast<rispp::atom::Count>(rng.below(5)));
  return m;
}

double exhaustive_leaves(const SiLibrary& lib,
                         const std::vector<ForecastDemand>& demands) {
  double leaves = 1;
  for (const auto& d : demands)
    leaves *= static_cast<double>(lib.at(d.si_index).options().size() + 1);
  return leaves;
}

/// Greedy (plain and limited), exhaustive and benefit against the
/// reference for `demand_sets` random demand sets over budgets 1..12.
/// Returns how many exhaustive plans were compared.
int check_library(const SiLibrary& lib, std::uint64_t seed,
                  int demand_sets) {
  int exhaustive_plans = 0;
  rispp::util::Xoshiro256 rng(seed);
  const GreedySelector greedy(lib);
  const ExhaustiveSelector exhaustive(lib);
  for (int set = 0; set < demand_sets; ++set) {
    SCOPED_TRACE("demand set " + std::to_string(set));
    const auto demands = random_demands(lib, rng);
    const bool small = exhaustive_leaves(lib, demands) <= kMaxExhaustiveLeaves;
    for (std::uint64_t budget = 1; budget <= kMaxBudget; ++budget) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      const auto want = ref::greedy_plan(lib, demands, budget, nullptr);
      expect_same_plan(fresh_greedy(lib, demands, budget), want);
      expect_same_plan(greedy.plan(demands, budget), want);

      const auto limit = random_molecule(lib, rng);
      expect_same_plan(fresh_greedy(lib, demands, budget, &limit),
                       ref::greedy_plan(lib, demands, budget, &limit));
      if (small) {
        expect_same_plan(exhaustive.plan(demands, budget),
                         ref::exhaustive_plan(lib, demands, budget));
        ++exhaustive_plans;
      }

      EXPECT_EQ(greedy.benefit(want.target, demands),
                ref::benefit(lib, want.target, demands));
      EXPECT_EQ(greedy.benefit(limit, demands),
                ref::benefit(lib, limit, demands));
      if (::testing::Test::HasFailure()) return exhaustive_plans;
    }
  }
  return exhaustive_plans;
}

TEST(SelectionOracle, MatchesReferenceOnEveryGeneratedLibrary) {
  int exhaustive_plans = 0;
  for (std::uint64_t seed = kSeedBegin; seed < kSeedEnd; ++seed) {
    SCOPED_TRACE("genlib seed " + std::to_string(seed));
    exhaustive_plans +=
        check_library(genlib_fixture::generated_library(seed), seed, 3);
    if (HasFailure()) return;
  }
  EXPECT_GT(exhaustive_plans, 1000);
}

TEST(SelectionOracle, MatchesReferenceOnH264) {
  EXPECT_GT(check_library(SiLibrary::h264(), 7, 40), 100);
}

TEST(SelectionOracle, MatchesReferenceOnH264Frame) {
  check_library(SiLibrary::h264_frame(), 11, 40);
}

/// The table the kernel reads is the catalog projection of every option,
/// and it travels with the library value (a copy outliving its source reads
/// its own table); fastest_option and cycles_on over it agree with
/// SpecialInstruction's Molecule-based fastest_supported and cycles_with.
TEST(SelectionOracle, ProjectionTableMatchesCatalogProjection) {
  rispp::util::Xoshiro256 rng(3);
  for (std::uint64_t seed = kSeedBegin; seed < kSeedEnd; seed += 7) {
    SCOPED_TRACE("genlib seed " + std::to_string(seed));
    std::optional<SiLibrary> copy;
    {
      const auto source = genlib_fixture::generated_library(seed);
      copy.emplace(source);
    }
    const auto& lib = *copy;
    const auto& cat = lib.catalog();
    for (std::size_t si = 0; si < lib.size(); ++si) {
      const auto& options = lib.at(si).options();
      for (std::size_t o = 0; o < options.size(); ++o) {
        const auto want = cat.project_rotatable(options[o].atoms);
        const auto got = lib.projection(si, o);
        ASSERT_TRUE(std::equal(got.begin(), got.end(),
                               want.counts().begin(), want.counts().end()));
      }
      for (int trial = 0; trial < 8; ++trial) {
        const auto loaded = random_molecule(lib, rng);
        const auto fastest = lib.fastest_option(si, loaded.counts());
        EXPECT_EQ(fastest == SiLibrary::kSoftware ? nullptr : &options[fastest],
                  lib.at(si).fastest_supported(loaded, cat));
        EXPECT_EQ(lib.cycles_on(si, loaded.counts()),
                  lib.at(si).cycles_with(loaded, cat));
      }
    }
  }
}

/// How often a walk re-planned with an unchanged key (the revalidation
/// path), and how often such a re-plan still changed a winner (the path
/// that truncates the record and scans on).
struct WalkStats {
  int same_key = 0;
  int winner_changed = 0;
  int exhaustive_replans = 0;
};

/// The inputs a plan's scan record is keyed on, computed independently.
struct Key {
  std::vector<std::size_t> sis;
  std::uint64_t budget = 0;
  std::optional<Molecule> limit;

  bool operator==(const Key&) const = default;
};

Key key_of(const std::vector<ForecastDemand>& demands, std::uint64_t budget,
           const std::optional<Molecule>& limit) {
  Key key{.budget = budget, .limit = limit};
  for (const auto& d : demands)
    key.sis.push_back(d.weight() <= 0 ? ~std::size_t{0} : d.si_index);
  return key;
}

bool same_winners(const SelectionPlan& a, const SelectionPlan& b) {
  return std::equal(a.steps.begin(), a.steps.end(), b.steps.begin(),
                    b.steps.end(), [](const auto& x, const auto& y) {
                      return x.si_index == y.si_index &&
                             x.additional == y.additional &&
                             x.new_cycles == y.new_cycles;
                    });
}

double random_weight(rispp::util::Xoshiro256& rng) {
  return 1.0 + 500.0 * rng.uniform01();
}

/// One random step of the walk: mostly a weight change (the common
/// re-plan), otherwise a key change — a weight set to 0 or back, an SI
/// added or removed, a new AC budget, a limit added, changed or removed —
/// or a new task or probability, or nothing at all.
void mutate(const SiLibrary& lib, rispp::util::Xoshiro256& rng,
            std::vector<ForecastDemand>& demands, std::uint64_t& budget,
            std::optional<Molecule>& limit) {
  auto& d = demands[rng.below(demands.size())];
  switch (rng.below(12)) {
    case 0:
    case 1:
    case 2:
    case 3:
      if (d.weight() > 0) d.expected_executions = random_weight(rng);
      break;
    case 4:
      d.expected_executions = d.weight() > 0 ? 0.0 : random_weight(rng);
      break;
    case 5:
      if (demands.size() > 1 && rng.below(2) == 0) {
        demands.erase(demands.begin() +
                      static_cast<std::ptrdiff_t>(rng.below(demands.size())));
      } else {
        auto extra = random_demands(lib, rng).front();
        demands.insert(demands.begin() + static_cast<std::ptrdiff_t>(
                                             rng.below(demands.size() + 1)),
                       extra);
      }
      break;
    case 6:
      budget = 1 + rng.below(kMaxBudget);
      break;
    case 7:
      if (limit && rng.below(2) == 0)
        limit.reset();
      else
        limit = random_molecule(lib, rng);
      break;
    case 8:
      d.task = static_cast<int>(rng.below(5)) - 1;
      break;
    case 9:
      d.probability = 0.05 + 0.95 * rng.uniform01();
      break;
    default:
      break;  // re-plan the same inputs
  }
}

/// Walks `steps` random demand-set changes, re-planning one greedy plan
/// object (with the walk's limit, if any) and one exhaustive one (while
/// the instance is small enough to enumerate). After every re-plan the
/// plan must equal the reference and a fresh plan on every field.
WalkStats walk_library(const SiLibrary& lib, std::uint64_t seed, int steps) {
  WalkStats stats;
  rispp::util::Xoshiro256 rng(seed);
  const ExhaustiveSelector exhaustive(lib);
  auto demands = random_demands(lib, rng);
  std::uint64_t budget = 1 + rng.below(kMaxBudget);
  std::optional<Molecule> limit;
  SelectionPlan plan;
  SelectionPlan exhaustive_plan;
  std::optional<Key> last_key;
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("walk step " + std::to_string(step));
    mutate(lib, rng, demands, budget, limit);
    const Molecule* cap = limit ? &*limit : nullptr;

    const SelectionPlan before = plan;
    rispp::rt::greedy_plan(lib, demands, budget, cap, plan);
    const auto fresh = fresh_greedy(lib, demands, budget, cap);
    expect_same_plan(plan, ref::greedy_plan(lib, demands, budget, cap));
    expect_same_plan(plan, fresh);
    EXPECT_TRUE(plan.scan == fresh.scan);

    const auto key = key_of(demands, budget, limit);
    if (last_key == key) {
      ++stats.same_key;
      if (!same_winners(before, plan)) ++stats.winner_changed;
    }
    last_key = key;

    if (exhaustive_leaves(lib, demands) <= kMaxExhaustiveLeaves) {
      exhaustive.replan(demands, budget, exhaustive_plan);
      const auto exhaustive_fresh = exhaustive.plan(demands, budget);
      expect_same_plan(exhaustive_plan,
                       ref::exhaustive_plan(lib, demands, budget));
      expect_same_plan(exhaustive_plan, exhaustive_fresh);
      EXPECT_TRUE(exhaustive_plan.scan == exhaustive_fresh.scan);
      ++stats.exhaustive_replans;
    }
    if (::testing::Test::HasFailure()) return stats;
  }
  return stats;
}

TEST(SelectionOracle, ReplanMatchesFreshAndReferenceOnEveryGeneratedLibrary) {
  WalkStats total;
  for (std::uint64_t seed = kSeedBegin; seed < kSeedEnd; ++seed) {
    SCOPED_TRACE("genlib seed " + std::to_string(seed));
    const auto stats =
        walk_library(genlib_fixture::generated_library(seed), seed, 60);
    if (HasFailure()) return;
    total.same_key += stats.same_key;
    total.winner_changed += stats.winner_changed;
    total.exhaustive_replans += stats.exhaustive_replans;
  }
  // Both revalidation outcomes and the exhaustive path were exercised.
  EXPECT_GT(total.same_key, 6000);
  EXPECT_GT(total.winner_changed, 150);
  EXPECT_GT(total.exhaustive_replans, 5000);
}

TEST(SelectionOracle, ReplanMatchesFreshAndReferenceOnH264) {
  const auto stats = walk_library(SiLibrary::h264(), 13, 1200);
  EXPECT_GT(stats.same_key, 500);
  EXPECT_GT(stats.winner_changed, 15);
  EXPECT_GT(stats.exhaustive_replans, 300);
}

TEST(SelectionOracle, ReplanMatchesFreshAndReferenceOnH264Frame) {
  const auto stats = walk_library(SiLibrary::h264_frame(), 17, 600);
  EXPECT_GT(stats.same_key, 250);
  EXPECT_GT(stats.winner_changed, 15);
  EXPECT_GT(stats.exhaustive_replans, 100);
}

/// Two candidates of the first step tie bit for bit: HT_2x2 saves 55 cycles
/// for one container at weight 138, HT_4x4 276 cycles for two at weight
/// 55, both 7590 per container. The first in scan order wins; one weight
/// change later the other does, and the re-plan must notice.
TEST(SelectionOracle, ReplanFollowsATieBrokenTheOtherWay) {
  const auto lib = SiLibrary::h264();
  const auto ht2 = lib.index_of("HT_2x2");
  const auto ht4 = lib.index_of("HT_4x4");
  std::vector<ForecastDemand> demands{
      {.si_index = ht2, .expected_executions = 138.0, .task = 1},
      {.si_index = ht4, .expected_executions = 55.0, .task = 2}};
  SelectionPlan plan;
  for (const double w : {55.0, 56.0, 55.0}) {
    SCOPED_TRACE("HT_4x4 weight " + std::to_string(w));
    demands[1].expected_executions = w;
    rispp::rt::greedy_plan(lib, demands, 2, nullptr, plan);
    expect_same_plan(plan, ref::greedy_plan(lib, demands, 2, nullptr));
    expect_same_plan(plan, fresh_greedy(lib, demands, 2));
    ASSERT_FALSE(plan.steps.empty());
    EXPECT_EQ(plan.steps.front().si_index, w == 55.0 ? ht2 : ht4);
  }
  EXPECT_EQ(plan.steps.front().gain_per_container, 7590.0);
  EXPECT_EQ(plan.steps.size(), 2u);  // HT_4x4 then needs one Pack more
}

TEST(SelectionOracle, EmptyAndZeroWeightDemandsPlanNothing) {
  const auto lib = SiLibrary::h264();
  const std::vector<ForecastDemand> none;
  const std::vector<ForecastDemand> zero{{.si_index = 1,
                                          .expected_executions = 0.0}};
  for (const auto* demands : {&none, &zero}) {
    const auto plan = fresh_greedy(lib, *demands, 8);
    EXPECT_TRUE(plan.steps.empty());
    EXPECT_EQ(plan.target, lib.catalog().zero());
    expect_same_plan(plan, ref::greedy_plan(lib, *demands, 8, nullptr));
  }
}

}  // namespace
