/// Differential test of ContainerFile's maintained LRU order against the
/// reference in container_reference.hpp, which sorts the usable containers
/// on every touch. Random call sequences — start_rotation (re-targeting
/// loads and evicting loaded Atoms), refresh, abort_rotation,
/// on_rotation_failed (down to quarantine) and touch with repeated and
/// earlier `now` values and projection rows used as they are, partially or
/// over-full — drive one ContainerFile and the reference. After every call
/// every container must agree field by field, last_used included, and
/// choose_victim must pick the same container under lru, mru and
/// round-robin. Catalogs: h264, h264_frame and the 200 generated
/// genlib_fixture libraries.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "container_reference.hpp"
#include "genlib_fixture.hpp"
#include "rispp/rt/container.hpp"
#include "rispp/rt/policy.hpp"
#include "rispp/util/rng.hpp"

namespace {

using rispp::atom::Count;
using rispp::atom::Molecule;
using rispp::isa::SiLibrary;
using namespace rispp::rt;

constexpr std::uint64_t kSeedBegin = 1;
constexpr std::uint64_t kSeedEnd = 201;  // the 200 genlib_fixture libraries
constexpr const char* kPolicies[] = {"lru", "mru", "round-robin"};

/// What a sequence exercised, so the suite can assert it reached every
/// transition the maintained order has to follow.
struct Coverage {
  int evictions = 0;        ///< start_rotation over a usable Atom
  int aborts = 0;
  int failures = 0;
  int quarantines = 0;
  int promotions = 0;       ///< refresh calls that promoted a load
  int repeated_touches = 0; ///< touch at the previous touch's `now`
  int earlier_touches = 0;  ///< touch at a `now` before the latest

  void add(const Coverage& o) {
    evictions += o.evictions;
    aborts += o.aborts;
    failures += o.failures;
    quarantines += o.quarantines;
    promotions += o.promotions;
    repeated_touches += o.repeated_touches;
    earlier_touches += o.earlier_touches;
  }
};

void expect_same(const ContainerFile& got,
                 const container_reference::ContainerFile& want) {
  for (unsigned c = 0; c < got.size(); ++c) {
    const auto& g = got.at(c);
    const auto& w = want.at(c);
    EXPECT_EQ(g.atom, w.atom) << "AC " << c;
    EXPECT_EQ(g.loading, w.loading) << "AC " << c;
    EXPECT_EQ(g.ready_at, w.ready_at) << "AC " << c;
    EXPECT_EQ(g.last_used, w.last_used) << "AC " << c;
    EXPECT_EQ(g.fail_streak, w.fail_streak) << "AC " << c;
    EXPECT_EQ(g.blocked_until, w.blocked_until) << "AC " << c;
    EXPECT_EQ(g.quarantined, w.quarantined) << "AC " << c;
  }
  EXPECT_EQ(got.committed_atoms(), want.committed_atoms());
}

/// A touch row: a projection row of a random option as execute() passes
/// it, or the same row with counts cut (partial) or raised past the loaded
/// instances (over-full), or counts drawn at random for every kind.
std::vector<Count> touch_row(const SiLibrary& lib, unsigned containers,
                             rispp::util::Xoshiro256& rng) {
  const auto kinds = lib.catalog().size();
  std::vector<Count> row(kinds, 0);
  const auto si = rng.below(lib.size());
  const auto options = lib.at(si).options().size();
  const auto mode = rng.below(4);
  if (options == 0 || mode == 3) {
    for (auto& n : row) n = static_cast<Count>(rng.below(containers + 2));
    return row;
  }
  const auto base = lib.projection(si, rng.below(options));
  for (std::size_t k = 0; k < kinds; ++k) {
    const auto b = base[k];
    row[k] = mode == 0   ? b
             : mode == 1 ? static_cast<Count>(rng.below(b + 1u))
                         : static_cast<Count>(b + rng.below(3));
  }
  return row;
}

Coverage run_sequence(const SiLibrary& lib, std::uint64_t seed, int steps) {
  const auto& cat = lib.catalog();
  std::vector<std::size_t> rotatable;
  for (std::size_t k = 0; k < cat.size(); ++k)
    if (cat.at(k).rotatable) rotatable.push_back(k);
  Coverage cov;
  if (rotatable.empty()) {
    ADD_FAILURE() << "catalog without rotatable Atoms";
    return cov;
  }

  rispp::util::Xoshiro256 rng(seed);
  const auto count = static_cast<unsigned>(1 + rng.below(8));
  const auto max_retries = static_cast<unsigned>(rng.below(4));
  const Cycle backoff = 1 + rng.below(600);
  ContainerFile got(count, cat);
  container_reference::ContainerFile want(count, cat);
  std::vector<std::unique_ptr<ReplacementPolicy>> got_policy, want_policy;
  for (const auto* key : kPolicies) {
    got_policy.push_back(make_replacement_policy(key));
    want_policy.push_back(make_replacement_policy(key));
  }

  // Containers matching a predicate, for picking a call's target.
  std::vector<unsigned> pool;
  const auto pick = [&](auto&& pred) -> std::optional<unsigned> {
    pool.clear();
    for (unsigned c = 0; c < count; ++c)
      if (pred(got.at(c))) pool.push_back(c);
    if (pool.empty()) return std::nullopt;
    return pool[rng.below(pool.size())];
  };

  Cycle now = 0;
  std::optional<Cycle> last_touch;
  for (int step = 0; step < steps; ++step) {
    // About a third of the calls repeat the previous cycle.
    if (rng.below(3) != 0) now += 1 + rng.below(400);
    const auto roll = rng.below(20);
    if (roll < 5) {
      const auto c = pick([](const AtomContainer& ac) {
        return !ac.quarantined;
      });
      if (c) {
        if (got.at(*c).atom) ++cov.evictions;
        const auto kind = rotatable[rng.below(rotatable.size())];
        const Cycle ready = now + rng.below(1500);
        got.start_rotation(*c, kind, ready);
        want.start_rotation(*c, kind, ready);
      }
    } else if (roll < 8) {
      const auto usable_before = got.usable_generation();
      got.refresh(now);
      want.refresh(now);
      if (got.usable_generation() != usable_before) ++cov.promotions;
    } else if (roll < 9) {
      const auto c = pick([](const AtomContainer& ac) {
        return ac.loading.has_value();
      });
      if (c) {
        ++cov.aborts;
        got.abort_rotation(*c);
        want.abort_rotation(*c);
      }
    } else if (roll < 10) {
      const auto c = pick([](const AtomContainer& ac) {
        return ac.loading.has_value();
      });
      if (c) {
        ++cov.failures;
        const auto kind = *got.at(*c).loading;
        const auto failed_at = got.at(*c).ready_at;
        const bool q =
            got.on_rotation_failed(*c, kind, failed_at, max_retries, backoff);
        EXPECT_EQ(q, want.on_rotation_failed(*c, failed_at, max_retries,
                                             backoff));
        if (q) ++cov.quarantines;
      }
    } else {
      Cycle at = now;
      if (now > 0 && rng.below(10) == 0) {
        at = now - 1 - rng.below(std::min<Cycle>(now, 300));
        ++cov.earlier_touches;
      } else if (last_touch == now) {
        ++cov.repeated_touches;
      }
      if (at == now) last_touch = now;
      const auto row = touch_row(lib, count, rng);
      got.touch(row, at);
      want.touch(row, at);
    }

    expect_same(got, want);
    Molecule target(cat.size());
    for (const auto k : rotatable)
      target.set(k, static_cast<Count>(rng.below(3)));
    for (std::size_t p = 0; p < got_policy.size(); ++p)
      EXPECT_EQ(got.choose_victim(target, now, *got_policy[p]),
                want.choose_victim(target, now, *want_policy[p]))
          << kPolicies[p] << " at step " << step;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "diverged at step " << step << " (seed " << seed
                    << ", " << count << " ACs)";
      return cov;
    }
  }
  return cov;
}

void expect_exercised(const Coverage& cov, int floor) {
  EXPECT_GT(cov.evictions, floor);
  EXPECT_GT(cov.aborts, floor);
  EXPECT_GT(cov.failures, floor);
  EXPECT_GT(cov.quarantines, 0);
  EXPECT_GT(cov.promotions, floor);
  EXPECT_GT(cov.repeated_touches, floor);
  EXPECT_GT(cov.earlier_touches, floor);
}

TEST(ContainerOracle, LruOrderMatchesReferenceOnH264) {
  const auto lib = SiLibrary::h264();
  Coverage total;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    total.add(run_sequence(lib, seed, 2000));
    if (HasFailure()) return;
  }
  expect_exercised(total, 100);
}

TEST(ContainerOracle, LruOrderMatchesReferenceOnH264Frame) {
  const auto lib = SiLibrary::h264_frame();
  Coverage total;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    total.add(run_sequence(lib, seed, 2000));
    if (HasFailure()) return;
  }
  expect_exercised(total, 100);
}

TEST(ContainerOracle, LruOrderMatchesReferenceOnEveryGeneratedLibrary) {
  Coverage total;
  for (std::uint64_t seed = kSeedBegin; seed < kSeedEnd; ++seed) {
    SCOPED_TRACE("genlib seed " + std::to_string(seed));
    total.add(
        run_sequence(genlib_fixture::generated_library(seed), seed, 300));
    if (HasFailure()) return;
  }
  expect_exercised(total, 1000);
}

}  // namespace
