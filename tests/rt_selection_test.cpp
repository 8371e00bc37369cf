/// Run-time Molecule selection (paper §5b): greedy upgrade steps ordered by
/// marginal benefit per container, cross-checked against the exhaustive
/// optimum on small instances.

#include <gtest/gtest.h>

#include "rispp/rt/selection.hpp"

namespace {

using namespace rispp::rt;
using rispp::isa::SiLibrary;

class Selection : public ::testing::Test {
 protected:
  SiLibrary lib_ = SiLibrary::h264();
  GreedySelector sel_{lib_};

  ForecastDemand demand(const char* name, double execs) const {
    return ForecastDemand{lib_.index_of(name), execs, 1.0, -1};
  }
};

TEST_F(Selection, EmptyDemandsYieldEmptyPlan) {
  const auto plan = sel_.plan({}, 4);
  EXPECT_TRUE(plan.target.is_zero());
  EXPECT_TRUE(plan.steps.empty());
}

TEST_F(Selection, SingleSiGetsItsMinimalMoleculeFirst) {
  const auto plan = sel_.plan({demand("SATD_4x4", 256)}, 4);
  ASSERT_FALSE(plan.steps.empty());
  // First step must bring SATD from software (544) to hardware.
  EXPECT_EQ(plan.steps.front().old_cycles, 544u);
  EXPECT_EQ(plan.steps.front().new_cycles, 24u);
  EXPECT_EQ(lib_.catalog().rotatable_determinant(plan.target), 4u);
}

TEST_F(Selection, BudgetRespected) {
  for (std::uint64_t budget : {0ull, 2ull, 4ull, 6ull, 9ull, 16ull}) {
    const auto plan = sel_.plan({demand("SATD_4x4", 256), demand("DCT_4x4", 24),
                                 demand("HT_4x4", 1), demand("HT_2x2", 2)},
                                budget);
    EXPECT_LE(lib_.catalog().rotatable_determinant(plan.target), budget);
  }
}

TEST_F(Selection, StepsStrictlyImproveTheirSi) {
  const auto plan = sel_.plan({demand("SATD_4x4", 256), demand("DCT_4x4", 24)},
                              8);
  for (const auto& s : plan.steps) {
    EXPECT_LT(s.new_cycles, s.old_cycles);
    EXPECT_GT(s.gain_per_container, 0.0);
    EXPECT_FALSE(s.additional.is_zero());
  }
}

TEST_F(Selection, FourContainersCoverAllFourMinimalMolecules) {
  // The H.264 library's minimal Molecules nest: QuadSub+Pack+Transform+SATD
  // covers every SI's minimal requirement — the reason the paper's 4-Atom
  // configuration already delivers most of the speed-up (Fig 12).
  const auto plan = sel_.plan({demand("SATD_4x4", 256), demand("DCT_4x4", 24),
                               demand("HT_4x4", 1), demand("HT_2x2", 2)},
                              4);
  const auto& cat = lib_.catalog();
  EXPECT_EQ(lib_.find("SATD_4x4").cycles_with(plan.target, cat), 24u);
  EXPECT_EQ(lib_.find("DCT_4x4").cycles_with(plan.target, cat), 24u);
  EXPECT_EQ(lib_.find("HT_4x4").cycles_with(plan.target, cat), 22u);
  EXPECT_EQ(lib_.find("HT_2x2").cycles_with(plan.target, cat), 5u);
}

TEST_F(Selection, HigherWeightWinsContestedBudget) {
  // Two SIs, budget only fits one minimal molecule's worth of upgrades
  // beyond the shared base: the heavily-used SI gets the atoms.
  const auto plan_satd_heavy =
      sel_.plan({demand("SATD_4x4", 1000), demand("DCT_4x4", 1)}, 5);
  const auto plan_dct_heavy =
      sel_.plan({demand("SATD_4x4", 1), demand("DCT_4x4", 1000)}, 5);
  const auto& cat = lib_.catalog();
  EXPECT_LE(lib_.find("SATD_4x4").cycles_with(plan_satd_heavy.target, cat),
            lib_.find("SATD_4x4").cycles_with(plan_dct_heavy.target, cat));
  EXPECT_LE(lib_.find("DCT_4x4").cycles_with(plan_dct_heavy.target, cat),
            lib_.find("DCT_4x4").cycles_with(plan_satd_heavy.target, cat));
}

TEST_F(Selection, ZeroWeightDemandIgnored) {
  const auto plan = sel_.plan({demand("SATD_4x4", 0)}, 8);
  EXPECT_TRUE(plan.target.is_zero());
}

TEST_F(Selection, BenefitOfEmptyConfigIsZero) {
  EXPECT_DOUBLE_EQ(sel_.benefit(lib_.catalog().zero(), {demand("DCT_4x4", 5)}),
                   0.0);
}

TEST_F(Selection, GreedyNearOptimalVsExhaustive) {
  // Ablation check (DESIGN.md §6.4): greedy per-container upgrades are
  // exact at the paper's 4-container design point (the minimal Molecules
  // nest) and stay within 1 % of the exhaustive optimum at larger budgets,
  // where step-at-a-time upgrading can miss a bundled optimum.
  const std::vector<std::vector<ForecastDemand>> cases = {
      {demand("SATD_4x4", 256)},
      {demand("SATD_4x4", 256), demand("DCT_4x4", 24)},
      {demand("HT_4x4", 10), demand("HT_2x2", 10)},
      {demand("SATD_4x4", 256), demand("DCT_4x4", 24), demand("HT_4x4", 1),
       demand("HT_2x2", 2)},
  };
  const ExhaustiveSelector exhaustive(lib_);
  for (const auto& demands : cases) {
    for (std::uint64_t budget : {4ull, 6ull, 8ull}) {
      const auto greedy = sel_.plan(demands, budget);
      const auto best = exhaustive.plan(demands, budget);
      const double g = sel_.benefit(greedy.target, demands);
      const double b = sel_.benefit(best.target, demands);
      EXPECT_GE(g, 0.99 * b) << "budget " << budget;
      if (budget == 4) {
        EXPECT_GE(g + 1e-9, b);
      }
    }
  }
}

TEST_F(Selection, PlanTargetSupportsEveryStepEndpoint) {
  const auto plan = sel_.plan({demand("SATD_4x4", 256), demand("DCT_4x4", 24)},
                              10);
  const auto& cat = lib_.catalog();
  for (const auto& s : plan.steps) {
    // After all steps, each step's SI must run at least as fast as the step
    // promised.
    EXPECT_LE(lib_.at(s.si_index).cycles_with(plan.target, cat), s.new_cycles);
  }
}

}  // namespace
