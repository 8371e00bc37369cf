#pragma once
/// Reference Atom Container file: rt::ContainerFile's state transitions
/// with no incremental views, and the LRU update the run-time used before
/// it kept per-kind lists — touch() orders every usable container by a
/// stable insertion sort on last_used on each call. Every query recomputes
/// from the containers, which makes it slow and easy to read.
/// rt_container_oracle_test drives a ContainerFile and this reference
/// through the same random call sequences and compares every container and
/// the victim choice after each call.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rispp/atom/molecule.hpp"
#include "rispp/isa/atom_catalog.hpp"
#include "rispp/rt/container.hpp"
#include "rispp/rt/policy.hpp"

namespace container_reference {

using rispp::atom::Count;
using rispp::atom::Molecule;
using rispp::isa::AtomCatalog;
using rispp::rt::AtomContainer;
using rispp::rt::Cycle;
using rispp::rt::kNoTask;
using rispp::rt::ReplacementPolicy;
using rispp::rt::VictimCandidate;

class ContainerFile {
 public:
  ContainerFile(unsigned count, const AtomCatalog& catalog)
      : catalog_(&catalog), containers_(count) {
    for (unsigned i = 0; i < count; ++i) containers_[i].id = i;
  }

  const AtomContainer& at(unsigned i) const { return containers_.at(i); }

  void refresh(Cycle now) {
    for (auto& c : containers_) {
      if (c.loading && now >= c.ready_at) {
        c.atom = c.loading;
        c.loading.reset();
        c.fail_streak = 0;
      }
    }
  }

  void start_rotation(unsigned c, std::size_t atom_kind, Cycle ready_at) {
    auto& ac = containers_.at(c);
    ac.atom.reset();
    ac.loading = atom_kind;
    ac.ready_at = ready_at;
  }

  void abort_rotation(unsigned c) {
    auto& ac = containers_.at(c);
    ac.loading.reset();
    ac.atom.reset();
    ac.ready_at = 0;
  }

  bool on_rotation_failed(unsigned c, Cycle failed_at, unsigned max_retries,
                          Cycle retry_backoff_cycles) {
    auto& ac = containers_.at(c);
    ac.loading.reset();
    ac.atom.reset();
    ac.ready_at = 0;
    ++ac.fail_streak;
    if (ac.fail_streak > max_retries) {
      ac.quarantined = true;
      return true;
    }
    const unsigned shift = std::min(ac.fail_streak - 1, 16u);
    ac.blocked_until = failed_at + (retry_backoff_cycles << shift);
    return false;
  }

  void touch(std::span<const Count> used, Cycle now) {
    // Mark one container per required atom instance as used, visiting
    // containers least-recently-used first (ties towards the lowest id) so
    // repeated touches of a partially-used kind cycle through its instances
    // and keep the timestamps coherent instead of re-marking the same ids.
    // Runs once per SI execution: the order/remaining scratch is reused
    // across calls, and the order comes from a stable insertion sort over
    // the few loaded containers (std::stable_sort allocates a buffer per
    // call), so the hot path makes no allocations.
    auto& order = touch_order_;
    order.clear();
    for (const auto& c : containers_) {
      if (!c.atom || c.loading) continue;
      auto pos = order.end();
      while (pos != order.begin() &&
             containers_[*(pos - 1)].last_used > c.last_used)
        --pos;
      order.insert(pos, c.id);
    }

    auto& remaining = touch_remaining_;
    remaining.assign(used.begin(), used.end());
    for (const auto id : order) {
      auto& c = containers_[id];
      if (remaining[*c.atom] > 0) {
        --remaining[*c.atom];
        c.last_used = now;
      }
    }
  }

  /// Committed content counted container by container.
  Molecule committed_atoms() const {
    Molecule m(catalog_->size());
    for (const auto& c : containers_) {
      const auto kind = c.loading ? c.loading : c.atom;
      if (kind) m.set(*kind, m[*kind] + 1);
    }
    return m;
  }

  std::optional<unsigned> choose_victim(const Molecule& target, Cycle now,
                                        ReplacementPolicy& policy) const {
    for (const auto& c : containers_)
      if (!c.atom && !c.loading && !c.blocked(now)) return c.id;
    const auto committed = committed_atoms();
    std::vector<VictimCandidate> candidates;
    for (const auto& c : containers_) {
      if (c.busy(now) || c.blocked(now)) continue;
      const auto kind = c.loading ? c.loading : c.atom;
      if (!kind || committed[*kind] <= target[*kind]) continue;
      candidates.push_back({c.id, *kind, c.last_used});
    }
    if (candidates.empty()) return std::nullopt;
    return policy.pick(candidates);
  }

 private:
  const AtomCatalog* catalog_;
  std::vector<AtomContainer> containers_;
  std::vector<unsigned> touch_order_;
  std::vector<Count> touch_remaining_;
};

}  // namespace container_reference
