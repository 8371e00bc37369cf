/// Property-based verification of the algebraic claims of paper §3.1:
/// (ℕⁿ, ∪) is an Abelian semigroup with neutral element (0,…,0); (ℕⁿ, ≤) is
/// a partially ordered set; sup/inf make it a complete lattice. The suite
/// sweeps randomized molecule triples through every axiom, and re-runs the
/// load-bearing laws over triples drawn from generated SI libraries
/// (genlib_fixture.hpp) — molecules with the correlated component structure
/// the generator's chains and flat fronts produce, not just i.i.d. noise.

#include <gtest/gtest.h>

#include <vector>

#include "genlib_fixture.hpp"
#include "rispp/atom/molecule.hpp"
#include "rispp/util/rng.hpp"

namespace {

using rispp::atom::Molecule;

constexpr std::size_t kDim = 7;

Molecule random_molecule(rispp::util::Xoshiro256& rng) {
  std::vector<rispp::atom::Count> counts(kDim);
  for (auto& c : counts)
    c = static_cast<rispp::atom::Count>(rng.below(5));  // Table-2-like range
  return Molecule(counts);
}

class LatticeAxioms : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    rispp::util::Xoshiro256 rng(GetParam());
    a_ = random_molecule(rng);
    b_ = random_molecule(rng);
    c_ = random_molecule(rng);
  }
  Molecule a_{kDim}, b_{kDim}, c_{kDim};
};

TEST_P(LatticeAxioms, UniteCommutative) {
  EXPECT_EQ(a_.unite(b_), b_.unite(a_));
}

TEST_P(LatticeAxioms, UniteAssociative) {
  EXPECT_EQ(a_.unite(b_).unite(c_), a_.unite(b_.unite(c_)));
}

TEST_P(LatticeAxioms, UniteIdempotent) { EXPECT_EQ(a_.unite(a_), a_); }

TEST_P(LatticeAxioms, UniteNeutralElement) {
  const Molecule zero(kDim);
  EXPECT_EQ(a_.unite(zero), a_);
  EXPECT_EQ(zero.unite(a_), a_);
}

TEST_P(LatticeAxioms, IntersectCommutativeAssociative) {
  EXPECT_EQ(a_.intersect(b_), b_.intersect(a_));
  EXPECT_EQ(a_.intersect(b_).intersect(c_), a_.intersect(b_.intersect(c_)));
}

TEST_P(LatticeAxioms, AbsorptionLaws) {
  // a ∪ (a ∩ b) = a and a ∩ (a ∪ b) = a — the defining lattice identities.
  EXPECT_EQ(a_.unite(a_.intersect(b_)), a_);
  EXPECT_EQ(a_.intersect(a_.unite(b_)), a_);
}

TEST_P(LatticeAxioms, OrderReflexive) { EXPECT_TRUE(a_.leq(a_)); }

TEST_P(LatticeAxioms, OrderAntisymmetric) {
  if (a_.leq(b_) && b_.leq(a_)) {
    EXPECT_EQ(a_, b_);
  }
}

TEST_P(LatticeAxioms, OrderTransitive) {
  if (a_.leq(b_) && b_.leq(c_)) {
    EXPECT_TRUE(a_.leq(c_));
  }
}

TEST_P(LatticeAxioms, UniteIsLeastUpperBound) {
  const auto sup = a_.unite(b_);
  EXPECT_TRUE(a_.leq(sup));
  EXPECT_TRUE(b_.leq(sup));
  // Least: any other upper bound dominates sup.
  const auto other = sup.unite(c_);  // an arbitrary upper bound
  EXPECT_TRUE(sup.leq(other));
}

TEST_P(LatticeAxioms, IntersectIsGreatestLowerBound) {
  const auto inf = a_.intersect(b_);
  EXPECT_TRUE(inf.leq(a_));
  EXPECT_TRUE(inf.leq(b_));
  const auto other = inf.intersect(c_);  // an arbitrary lower bound
  EXPECT_TRUE(other.leq(inf));
}

TEST_P(LatticeAxioms, ResidualReconstructsUnion) {
  // m ⊕ (m ▷ o) dominates o and equals m ∪ o when counts are per-kind
  // saturating: max(m, o) = m + max(o − m, 0).
  const auto residual = a_.residual_to(b_);
  EXPECT_EQ(a_.plus(residual), a_.unite(b_));
  EXPECT_TRUE(b_.leq(a_.plus(residual)));
}

TEST_P(LatticeAxioms, ResidualZeroIffSupported) {
  EXPECT_EQ(a_.residual_to(b_).is_zero(), b_.leq(a_));
}

TEST_P(LatticeAxioms, DeterminantMonotone) {
  if (a_.leq(b_)) {
    EXPECT_LE(a_.determinant(), b_.determinant());
  }
}

TEST_P(LatticeAxioms, DeterminantSubAdditiveOverUnion) {
  EXPECT_LE(a_.unite(b_).determinant(),
            a_.determinant() + b_.determinant());
  EXPECT_GE(a_.unite(b_).determinant(),
            std::max(a_.determinant(), b_.determinant()));
}

TEST_P(LatticeAxioms, RepresentativeBoundedByExtremes) {
  // inf(M) ≤ Rep(M) ≤ sup(M): the ceil-average sits inside the lattice
  // interval spanned by the molecules.
  const std::vector<Molecule> ms{a_, b_, c_};
  const auto rep = rispp::atom::representative(ms, kDim);
  EXPECT_TRUE(rispp::atom::infimum(ms).leq(rep));
  EXPECT_TRUE(rep.leq(rispp::atom::supremum(ms, kDim)));
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, LatticeAxioms,
                         ::testing::Range<std::uint64_t>(1, 65));

/// The same laws over molecule triples drawn from a generated library's
/// actual Molecule options: chain rungs are nested (≤-comparable) and flat
/// fronts are incomparable, so these triples stress both extremes of the
/// partial order in a way i.i.d. components never do. The failure message
/// names the generator seed.
class GeneratedLatticeAxioms
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    const auto seed = GetParam();
    const auto lib = genlib_fixture::generated_library(seed);
    std::vector<Molecule> pool;
    for (const auto& si : lib.sis())
      for (const auto& opt : si.options()) pool.push_back(opt.atoms);
    ASSERT_FALSE(pool.empty());
    rispp::util::Xoshiro256 rng(seed ^ 0xa5a5a5a5a5a5a5a5ull);
    dim_ = lib.catalog().size();
    a_ = pool[rng.below(pool.size())];
    b_ = pool[rng.below(pool.size())];
    c_ = pool[rng.below(pool.size())];
  }
  std::size_t dim_ = 0;
  Molecule a_, b_, c_;
};

TEST_P(GeneratedLatticeAxioms, AbsorptionLaws) {
  EXPECT_EQ(a_.unite(a_.intersect(b_)), a_);
  EXPECT_EQ(a_.intersect(a_.unite(b_)), a_);
}

TEST_P(GeneratedLatticeAxioms, OrderPartialOrderLaws) {
  EXPECT_TRUE(a_.leq(a_));
  if (a_.leq(b_) && b_.leq(a_)) {
    EXPECT_EQ(a_, b_);
  }
  if (a_.leq(b_) && b_.leq(c_)) {
    EXPECT_TRUE(a_.leq(c_));
  }
}

TEST_P(GeneratedLatticeAxioms, UniteIsLeastUpperBound) {
  const auto sup = a_.unite(b_);
  EXPECT_TRUE(a_.leq(sup));
  EXPECT_TRUE(b_.leq(sup));
  EXPECT_TRUE(sup.leq(sup.unite(c_)));
}

TEST_P(GeneratedLatticeAxioms, ResidualReconstructsUnion) {
  const auto residual = a_.residual_to(b_);
  EXPECT_EQ(a_.plus(residual), a_.unite(b_));
  EXPECT_EQ(residual.is_zero(), b_.leq(a_));
}

TEST_P(GeneratedLatticeAxioms, DeterminantMonotone) {
  if (a_.leq(b_)) {
    EXPECT_LE(a_.determinant(), b_.determinant());
  }
}

TEST_P(GeneratedLatticeAxioms, RepresentativeBoundedByExtremes) {
  const std::vector<Molecule> ms{a_, b_, c_};
  const auto rep = rispp::atom::representative(ms, dim_);
  EXPECT_TRUE(rispp::atom::infimum(ms).leq(rep));
  EXPECT_TRUE(rep.leq(rispp::atom::supremum(ms, dim_)));
}

INSTANTIATE_TEST_SUITE_P(GeneratedLibraries, GeneratedLatticeAxioms,
                         ::testing::Range<std::uint64_t>(1, 49));

}  // namespace
