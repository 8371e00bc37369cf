/// Policy-seam tests: the key-based factory, the replacement strategy
/// objects, and the first-class ExhaustiveSelector.

#include <gtest/gtest.h>

#include <algorithm>

#include "rispp/rt/manager.hpp"
#include "rispp/rt/policy.hpp"
#include "rispp/rt/selection.hpp"
#include "rispp/util/error.hpp"

namespace {

using namespace rispp::rt;
using rispp::isa::SiLibrary;
using rispp::util::Error;
using rispp::util::PreconditionError;

class Policies : public ::testing::Test {
 protected:
  rispp::isa::SiLibrary lib_ = rispp::isa::SiLibrary::h264();

  std::vector<ForecastDemand> encoder_mix() const {
    auto d = [&](const char* name, double w) {
      return ForecastDemand{lib_.index_of(name), w, 1.0, -1};
    };
    return {d("SATD_4x4", 256), d("DCT_4x4", 24), d("HT_4x4", 1),
            d("HT_2x2", 2)};
  }
};

TEST_F(Policies, FactoryListsBuiltins) {
  const auto sel = selection_policy_names();
  EXPECT_TRUE(std::count(sel.begin(), sel.end(), "greedy"));
  EXPECT_TRUE(std::count(sel.begin(), sel.end(), "exhaustive"));
  const auto rep = replacement_policy_names();
  EXPECT_TRUE(std::count(rep.begin(), rep.end(), "lru"));
  EXPECT_TRUE(std::count(rep.begin(), rep.end(), "mru"));
  EXPECT_TRUE(std::count(rep.begin(), rep.end(), "round-robin"));
  EXPECT_TRUE(std::is_sorted(sel.begin(), sel.end()));
  EXPECT_TRUE(std::is_sorted(rep.begin(), rep.end()));
}

TEST_F(Policies, FactoryConstructsByKey) {
  EXPECT_EQ(make_selection_policy("greedy", lib_)->name(), "greedy");
  EXPECT_EQ(make_selection_policy("exhaustive", lib_)->name(), "exhaustive");
  EXPECT_EQ(make_replacement_policy("lru")->name(), "lru");
  EXPECT_EQ(make_replacement_policy("mru")->name(), "mru");
  EXPECT_EQ(make_replacement_policy("round-robin")->name(), "round-robin");
}

TEST_F(Policies, UnknownKeysThrowListingRegisteredNames) {
  try {
    make_selection_policy("nope", lib_);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("greedy"), std::string::npos);
  }
  EXPECT_THROW(make_replacement_policy("nope"), PreconditionError);
}

TEST_F(Policies, LruAndMruPickTheirVictims) {
  // Three Transform instances loaded at 10/20/30; one touch at cycle 100
  // marks the lowest id (all timestamps tie at 0), so container 0 is the
  // most recently used and containers 1 and 2 tie as least recently used.
  const auto& cat = lib_.catalog();
  const auto transform = cat.index_of("Transform");
  ContainerFile file(3, cat);
  for (unsigned c = 0; c < 3; ++c)
    file.start_rotation(c, transform, 10 * (c + 1));
  file.refresh(30);
  rispp::atom::Molecule one(cat.size());
  one.set(transform, 1);
  file.touch(one.counts(), 100);

  const auto lru = make_replacement_policy("lru");
  const auto mru = make_replacement_policy("mru");
  EXPECT_EQ(file.choose_victim(cat.zero(), 200, *lru), 1u);  // tie → low id
  EXPECT_EQ(file.choose_victim(cat.zero(), 200, *mru), 0u);
  // A default RtConfig replaces least-recently-used.
  EXPECT_EQ(RisppManager(borrow(lib_), RtConfig{}).replacement_policy().name(),
            "lru");
}

TEST_F(Policies, SharedBenefitIsPolicyIndependent) {
  const auto greedy = make_selection_policy("greedy", lib_);
  const auto exhaustive = make_selection_policy("exhaustive", lib_);
  const auto demands = encoder_mix();
  const auto config = greedy->plan(demands, 8).target;
  EXPECT_DOUBLE_EQ(greedy->benefit(config, demands),
                   exhaustive->benefit(config, demands));
}

TEST_F(Policies, ExhaustiveSelectorPlansStepsReachingItsTarget) {
  const ExhaustiveSelector sel(lib_);
  const auto demands = encoder_mix();
  for (std::uint64_t budget : {4ull, 6ull, 8ull}) {
    const auto plan = sel.plan(demands, budget);
    // Steps stay within the target and, summed, support its benefit: the
    // kernel issues rotations from steps, so an unreachable target would
    // never come online.
    rispp::atom::Molecule cum(lib_.catalog().size());
    for (const auto& s : plan.steps) {
      cum = cum.plus(s.additional);
      EXPECT_TRUE(cum.leq(plan.target));
    }
    EXPECT_DOUBLE_EQ(sel.benefit(cum, demands),
                     sel.benefit(plan.target, demands));
  }
}

TEST_F(Policies, ManagerRotatesUnderExhaustiveSelection) {
  RtConfig cfg;
  cfg.atom_containers = 6;
  cfg.selection_policy = "exhaustive";
  RisppManager mgr(borrow(lib_), cfg);
  EXPECT_EQ(mgr.selection_policy().name(), "exhaustive");
  mgr.forecast(lib_.index_of("SATD_4x4"), 5000, 1.0, 0);
  EXPECT_GT(mgr.rotations_performed(), 0u);
  // After the transfers complete, the SI executes in hardware.
  const auto res = mgr.execute(lib_.index_of("SATD_4x4"), 10'000'000);
  EXPECT_TRUE(res.hardware);
}

// Construction-time RtConfig validation: unknown factory keys and
// out-of-range knobs fail before any manager state exists.
TEST(RtConfigValidation, UnknownFactoryKeysThrowListingRegistered) {
  const auto lib = rispp::isa::share(SiLibrary::h264());
  RtConfig bad_selection;
  bad_selection.selection_policy = "greedyy";
  try {
    const RisppManager mgr(lib, bad_selection);
    FAIL() << "expected util::Error";
  } catch (const Error& e) {  // PreconditionError is-a util::Error
    const std::string what = e.what();
    EXPECT_NE(what.find("greedyy"), std::string::npos);
    EXPECT_NE(what.find("greedy"), std::string::npos);
    EXPECT_NE(what.find("exhaustive"), std::string::npos);
  }
  RtConfig bad_replacement;
  bad_replacement.replacement_policy = "fifo";
  try {
    validate(bad_replacement);
    FAIL() << "expected util::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fifo"), std::string::npos);
    EXPECT_NE(what.find("lru"), std::string::npos);
    EXPECT_NE(what.find("round-robin"), std::string::npos);
  }
}

TEST(RtConfigValidation, RangeChecksFireAtConstruction) {
  const auto lib = rispp::isa::share(SiLibrary::h264());
  RtConfig no_containers;
  no_containers.atom_containers = 0;
  EXPECT_THROW(RisppManager(lib, no_containers), PreconditionError);
  RtConfig bad_rate;
  bad_rate.learning_rate = 1.5;
  EXPECT_THROW(validate(bad_rate), PreconditionError);
  EXPECT_NO_THROW(validate(RtConfig{}));
}

}  // namespace
