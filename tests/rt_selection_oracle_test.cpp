/// Differential test of the run-time kernel's Molecule selection against
/// the Molecule-based reference in selection_reference.hpp: greedy_plan
/// (with and without a limit), ExhaustiveSelector and
/// SelectionPolicy::benefit must agree with it exactly — every step's SI,
/// additional Atoms, old/new cycles, task and gain (compared with == on the
/// double), the target, and the benefit. Libraries: the 200 generated
/// genlib_fixture seeds plus h264 and h264_frame; per library, random
/// demand sets (random SI subsets in random order, repeats, zero weights)
/// over budgets 1..12.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

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
      expect_same_plan(rispp::rt::greedy_plan(lib, demands, budget), want);
      expect_same_plan(greedy.plan(demands, budget), want);

      const auto limit = random_molecule(lib, rng);
      expect_same_plan(
          rispp::rt::greedy_plan(lib, demands, budget, &limit),
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

TEST(SelectionOracle, EmptyAndZeroWeightDemandsPlanNothing) {
  const auto lib = SiLibrary::h264();
  const std::vector<ForecastDemand> none;
  const std::vector<ForecastDemand> zero{{.si_index = 1,
                                          .expected_executions = 0.0}};
  for (const auto* demands : {&none, &zero}) {
    const auto plan = rispp::rt::greedy_plan(lib, *demands, 8);
    EXPECT_TRUE(plan.steps.empty());
    EXPECT_EQ(plan.target, lib.catalog().zero());
    expect_same_plan(plan, ref::greedy_plan(lib, *demands, 8, nullptr));
  }
}

}  // namespace
