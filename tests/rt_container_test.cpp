#include <gtest/gtest.h>

#include "rispp/rt/container.hpp"
#include "rispp/rt/policy.hpp"
#include "rispp/util/error.hpp"

namespace {

using namespace rispp::rt;
using rispp::isa::AtomCatalog;
using rispp::util::PreconditionError;

class Containers : public ::testing::Test {
 protected:
  AtomCatalog cat_ = AtomCatalog::h264();
  std::size_t quadsub_ = cat_.index_of("QuadSub");
  std::size_t pack_ = cat_.index_of("Pack");
  std::size_t transform_ = cat_.index_of("Transform");
  std::unique_ptr<ReplacementPolicy> lru_ = make_replacement_policy("lru");
};

TEST_F(Containers, StartsEmpty) {
  ContainerFile cf(4, cat_);
  EXPECT_EQ(cf.size(), 4u);
  EXPECT_TRUE(cf.available_atoms(0).is_zero());
  EXPECT_TRUE(cf.committed_atoms().is_zero());
}

TEST_F(Containers, RotationBecomesAvailableAtReadyTime) {
  ContainerFile cf(2, cat_);
  cf.start_rotation(0, quadsub_, /*ready_at=*/100);
  EXPECT_TRUE(cf.available_atoms(50).is_zero());   // still transferring
  EXPECT_EQ(cf.committed_atoms()[quadsub_], 1u);   // but committed
  EXPECT_EQ(cf.available_atoms(100)[quadsub_], 1u);
  cf.refresh(100);
  EXPECT_EQ(cf.at(0).atom, quadsub_);
  EXPECT_FALSE(cf.at(0).loading.has_value());
}

TEST_F(Containers, RotationDestroysOldContentImmediately) {
  ContainerFile cf(1, cat_);
  cf.start_rotation(0, quadsub_, 10);
  cf.refresh(10);
  EXPECT_EQ(cf.available_atoms(10)[quadsub_], 1u);
  // Re-rotate to Pack: QuadSub unusable from the moment the rotation starts.
  cf.start_rotation(0, pack_, 200);
  EXPECT_TRUE(cf.available_atoms(50).is_zero());
  EXPECT_EQ(cf.committed_atoms()[pack_], 1u);
  EXPECT_EQ(cf.committed_atoms()[quadsub_], 0u);
}

TEST_F(Containers, StaticAtomsCannotBeRotated) {
  ContainerFile cf(1, cat_);
  EXPECT_THROW(cf.start_rotation(0, cat_.index_of("Load"), 10),
               PreconditionError);
}

TEST_F(Containers, VictimPrefersEmpty) {
  ContainerFile cf(3, cat_);
  cf.start_rotation(0, quadsub_, 10);
  cf.refresh(10);
  const auto target = cat_.zero();
  const auto victim = cf.choose_victim(target, 20, *lru_);
  ASSERT_TRUE(victim.has_value());
  EXPECT_NE(*victim, 0u);  // containers 1 and 2 are empty
}

TEST_F(Containers, VictimIsLruExcessContainer) {
  ContainerFile cf(2, cat_);
  cf.start_rotation(0, quadsub_, 10);
  cf.start_rotation(1, pack_, 20);
  cf.refresh(20);
  // Touch Pack recently; QuadSub is stale.
  rispp::atom::Molecule used(cat_.size());
  used.set(pack_, 1);
  cf.touch(used.counts(), 100);
  // Target wants neither → both in excess; LRU = container 0 (QuadSub).
  const auto victim = cf.choose_victim(cat_.zero(), 200, *lru_);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0u);
}

TEST_F(Containers, NeededContainersAreNotVictims) {
  ContainerFile cf(2, cat_);
  cf.start_rotation(0, quadsub_, 10);
  cf.start_rotation(1, pack_, 20);
  cf.refresh(20);
  // Target needs exactly these two atoms → no victim available.
  rispp::atom::Molecule target(cat_.size());
  target.set(quadsub_, 1);
  target.set(pack_, 1);
  EXPECT_FALSE(cf.choose_victim(target, 100, *lru_).has_value());
  // Target needs only Pack → QuadSub's container is expendable.
  rispp::atom::Molecule target2(cat_.size());
  target2.set(pack_, 1);
  const auto victim = cf.choose_victim(target2, 100, *lru_);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 0u);
}

TEST_F(Containers, BusyContainerIsNotVictim) {
  ContainerFile cf(1, cat_);
  cf.start_rotation(0, quadsub_, 1000);
  // At cycle 10 the transfer is still in flight — not preemptible.
  EXPECT_FALSE(cf.choose_victim(cat_.zero(), 10, *lru_).has_value());
  // After completion it becomes a normal (excess) victim.
  cf.refresh(1000);
  EXPECT_TRUE(cf.choose_victim(cat_.zero(), 1000, *lru_).has_value());
}

TEST_F(Containers, AggregationCountsInstances) {
  ContainerFile cf(3, cat_);
  cf.start_rotation(0, transform_, 10);
  cf.start_rotation(1, transform_, 20);
  cf.start_rotation(2, quadsub_, 30);
  cf.refresh(30);
  const auto avail = cf.available_atoms(30);
  EXPECT_EQ(avail[transform_], 2u);
  EXPECT_EQ(avail[quadsub_], 1u);
  EXPECT_EQ(avail.determinant(), 3u);
}

TEST_F(Containers, RoundRobinVictimRotatesThroughContainers) {
  // Regression: the seed picked the lowest-id expendable container on every
  // eviction ("round-robin" in name only). The policy's cursor must cycle.
  ContainerFile cf(3, cat_);
  cf.start_rotation(0, transform_, 10);
  cf.start_rotation(1, transform_, 20);
  cf.start_rotation(2, transform_, 30);
  cf.refresh(30);
  const auto rr = make_replacement_policy("round-robin");
  const auto target = cat_.zero();  // everything is excess
  const auto v0 = cf.choose_victim(target, 100, *rr);
  const auto v1 = cf.choose_victim(target, 100, *rr);
  const auto v2 = cf.choose_victim(target, 100, *rr);
  const auto v3 = cf.choose_victim(target, 100, *rr);
  ASSERT_TRUE(v0 && v1 && v2 && v3);
  EXPECT_EQ(*v0, 0u);
  EXPECT_EQ(*v1, 1u);
  EXPECT_EQ(*v2, 2u);
  EXPECT_EQ(*v3, 0u);  // wrapped
}

TEST_F(Containers, RoundRobinPolicyObjectRotatesToo) {
  ContainerFile cf(3, cat_);
  cf.start_rotation(0, transform_, 10);
  cf.start_rotation(1, transform_, 20);
  cf.start_rotation(2, transform_, 30);
  cf.refresh(30);
  RoundRobinReplacement rr;
  const auto target = cat_.zero();
  const auto v0 = cf.choose_victim(target, 100, rr);
  const auto v1 = cf.choose_victim(target, 100, rr);
  const auto v2 = cf.choose_victim(target, 100, rr);
  const auto v3 = cf.choose_victim(target, 100, rr);
  ASSERT_TRUE(v0 && v1 && v2 && v3);
  EXPECT_EQ(*v0, 0u);
  EXPECT_EQ(*v1, 1u);
  EXPECT_EQ(*v2, 2u);
  EXPECT_EQ(*v3, 0u);
}

TEST_F(Containers, TouchMarksLeastRecentlyUsedInstanceFirst) {
  // Three Transform instances, each touch uses one: the marking must cycle
  // through the instances (LRU order) instead of re-marking container 0.
  ContainerFile cf(3, cat_);
  cf.start_rotation(0, transform_, 10);
  cf.start_rotation(1, transform_, 20);
  cf.start_rotation(2, transform_, 30);
  cf.refresh(30);
  rispp::atom::Molecule one(cat_.size());
  one.set(transform_, 1);
  cf.touch(one.counts(), 100);  // all timestamps equal → lowest id marked
  EXPECT_EQ(cf.at(0).last_used, 100u);
  cf.touch(one.counts(), 200);  // containers 1 and 2 are older than 0
  EXPECT_EQ(cf.at(1).last_used, 200u);
  cf.touch(one.counts(), 300);
  EXPECT_EQ(cf.at(2).last_used, 300u);
  cf.touch(one.counts(), 400);  // back to container 0, now the stalest
  EXPECT_EQ(cf.at(0).last_used, 400u);
  EXPECT_EQ(cf.at(1).last_used, 200u);
  EXPECT_EQ(cf.at(2).last_used, 300u);
}

TEST_F(Containers, CommittedAtomsStayConsistentAcrossRotations) {
  // committed_atoms() is maintained incrementally; pin it against the
  // definition (one count per container's loading-or-loaded kind).
  ContainerFile cf(3, cat_);
  EXPECT_TRUE(cf.committed_atoms().is_zero());
  cf.start_rotation(0, transform_, 10);
  cf.start_rotation(1, quadsub_, 20);
  EXPECT_EQ(cf.committed_atoms()[transform_], 1u);
  EXPECT_EQ(cf.committed_atoms()[quadsub_], 1u);
  cf.refresh(20);  // promotion must not change committed content
  EXPECT_EQ(cf.committed_atoms()[transform_], 1u);
  EXPECT_EQ(cf.committed_atoms()[quadsub_], 1u);
  cf.start_rotation(0, pack_, 50);  // replaces Transform
  EXPECT_EQ(cf.committed_atoms()[transform_], 0u);
  EXPECT_EQ(cf.committed_atoms()[pack_], 1u);
  cf.start_rotation(2, transform_, 60);
  cf.abort_rotation(2);  // cancelled before starting → empty container
  EXPECT_EQ(cf.committed_atoms()[transform_], 0u);
  EXPECT_EQ(cf.committed_atoms().determinant(), 2u);
}

TEST_F(Containers, Preconditions) {
  EXPECT_THROW(ContainerFile(0, cat_), PreconditionError);
  ContainerFile cf(1, cat_);
  EXPECT_THROW(cf.start_rotation(5, quadsub_, 10), PreconditionError);
  EXPECT_THROW(cf.start_rotation(0, 99, 10), PreconditionError);
  EXPECT_THROW((void)cf.at(7), PreconditionError);
}

}  // namespace
