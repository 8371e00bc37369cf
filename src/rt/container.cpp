#include "rispp/rt/container.hpp"

#include <algorithm>

#include "rispp/rt/policy.hpp"
#include "rispp/util/error.hpp"

namespace rispp::rt {

ContainerFile::ContainerFile(unsigned count, const isa::AtomCatalog& catalog)
    : catalog_(&catalog),
      committed_(catalog.size()),
      usable_(catalog.size()),
      lru_(catalog.size()) {
  RISPP_REQUIRE(count > 0, "need at least one atom container");
  containers_.resize(count);
  for (unsigned i = 0; i < count; ++i) containers_[i].id = i;
}

const AtomContainer& ContainerFile::at(unsigned i) const {
  RISPP_REQUIRE(i < containers_.size(), "container index out of range");
  return containers_[i];
}

unsigned ContainerFile::usable_count() const {
  unsigned n = 0;
  for (const auto& c : containers_)
    if (!c.quarantined) ++n;
  return n;
}

void ContainerFile::promote(Cycle now) {
  // Promotion keeps the container's committed kind, so committed_ is
  // unaffected here. Failed loads never reach this point: the kernel
  // retires them through on_rotation_failed before refreshing.
  for (auto& c : containers_) {
    if (c.loading && now >= c.ready_at) {
      c.atom = c.loading;
      c.loading.reset();
      c.fail_streak = 0;  // a clean load ends any failure streak
      usable_.set(*c.atom, usable_[*c.atom] + 1);
      ++usable_generation_;
      --loading_count_;
      // The container keeps the stamp of its previous content, so it joins
      // its kind's LRU order at that stamp's place.
      auto& order = lru_[*c.atom];
      order.insert(std::lower_bound(order.begin(), order.end(), c.id,
                                    [this](unsigned a, unsigned b) {
                                      return lru_before(a, b);
                                    }),
                   c.id);
    }
  }
}

atom::Molecule ContainerFile::available_atoms(Cycle now) const {
  atom::Molecule m(catalog_->size());
  for (const auto& c : containers_) {
    if (c.loading && now >= c.ready_at) {
      m.set(*c.loading, m[*c.loading] + 1);  // finished but not refreshed yet
    } else if (c.atom && !c.loading) {
      m.set(*c.atom, m[*c.atom] + 1);
    }
  }
  return m;
}

void ContainerFile::start_rotation(unsigned c, std::size_t atom_kind,
                                   Cycle ready_at) {
  RISPP_REQUIRE(c < containers_.size(), "container index out of range");
  RISPP_REQUIRE(atom_kind < catalog_->size(), "atom kind out of range");
  RISPP_REQUIRE(catalog_->at(atom_kind).rotatable,
                "static atoms are never rotated into containers");
  auto& ac = containers_[c];
  const auto old = ac.loading ? ac.loading : ac.atom;
  if (old) {
    committed_.set(*old, committed_[*old] - 1);
    loaded_slices_ -= catalog_->at(*old).hardware.slices;
  }
  committed_.set(atom_kind, committed_[atom_kind] + 1);
  loaded_slices_ += catalog_->at(atom_kind).hardware.slices;
  if (ac.atom) {
    usable_.set(*ac.atom, usable_[*ac.atom] - 1);
    ++usable_generation_;
    auto& order = lru_[*ac.atom];
    order.erase(std::find(order.begin(), order.end(), c));
  }
  if (!ac.loading) ++loading_count_;
  // The old content becomes unusable the moment reconfiguration begins.
  ac.atom.reset();
  ac.loading = atom_kind;
  ac.ready_at = ready_at;
}

void ContainerFile::abort_rotation(unsigned c) {
  RISPP_REQUIRE(c < containers_.size(), "container index out of range");
  auto& ac = containers_[c];
  RISPP_REQUIRE(ac.loading.has_value(), "no rotation to abort");
  committed_.set(*ac.loading, committed_[*ac.loading] - 1);
  loaded_slices_ -= catalog_->at(*ac.loading).hardware.slices;
  --loading_count_;
  ++usable_generation_;  // the aborted load will never become usable
  ac.loading.reset();
  ac.atom.reset();
  ac.ready_at = 0;
}

bool ContainerFile::on_rotation_failed(unsigned c, std::size_t atom_kind,
                                       Cycle failed_at, unsigned max_retries,
                                       Cycle retry_backoff_cycles) {
  RISPP_REQUIRE(c < containers_.size(), "container index out of range");
  auto& ac = containers_[c];
  // The failure is discovered at the transfer's end, before refresh() could
  // promote the poisoned load — the container must still be loading exactly
  // the booking's atom kind.
  RISPP_REQUIRE(ac.loading && *ac.loading == atom_kind,
                "failed rotation does not match the container's load");
  committed_.set(atom_kind, committed_[atom_kind] - 1);
  loaded_slices_ -= catalog_->at(atom_kind).hardware.slices;
  --loading_count_;
  ++usable_generation_;  // the poisoned load will never become usable
  ac.loading.reset();
  ac.atom.reset();
  ac.ready_at = 0;
  ++ac.fail_streak;
  if (ac.fail_streak > max_retries) {
    ac.quarantined = true;
    return true;
  }
  // Capped exponential backoff: base << (streak-1), capped so the shift
  // never overflows; streak >= 1 here.
  const unsigned shift = std::min(ac.fail_streak - 1, 16u);
  ac.blocked_until = failed_at + (retry_backoff_cycles << shift);
  return false;
}

void ContainerFile::touch(std::span<const atom::Count> used, Cycle now) {
  // Runs once per SI execution. Each kind's list is already in LRU order
  // (last_used, then id), so marking one container per required instance
  // stamps a prefix, and repeated touches of a partially-used kind cycle
  // through its instances. One insertion pass restores the order: the
  // unstamped entries are still sorted, so only the stamped ones move —
  // behind the entries stamped earlier, merged by id with any stamped at
  // `now` already.
  for (std::size_t kind = 0; kind < lru_.size(); ++kind) {
    if (used[kind] == 0) continue;
    auto& order = lru_[kind];
    const auto n = std::min<std::size_t>(used[kind], order.size());
    for (std::size_t i = 0; i < n; ++i) containers_[order[i]].last_used = now;
    for (std::size_t i = 1; i < order.size(); ++i) {
      const auto id = order[i];
      auto j = i;
      for (; j > 0 && lru_before(id, order[j - 1]); --j)
        order[j] = order[j - 1];
      order[j] = id;
    }
  }
}

std::optional<Cycle> ContainerFile::next_unblock_after(Cycle t) const {
  std::optional<Cycle> next;
  for (const auto& c : containers_)
    if (!c.quarantined && c.blocked_until > t &&
        (!next || c.blocked_until < *next))
      next = c.blocked_until;
  return next;
}

std::optional<unsigned> ContainerFile::choose_victim(
    const atom::Molecule& target, Cycle now, ReplacementPolicy& policy) const {
  for (const auto& c : containers_)
    if (!c.atom && !c.loading && !c.blocked(now)) return c.id;
  RISPP_REQUIRE(target.dimension() == committed_.dimension(),
                "victim target dimension does not match the catalog");
  // A container is expendable when its kind's committed count exceeds the
  // target's demand for that kind (needed atoms are never evicted). The
  // policy sees the expendable ones in container-id order.
  const auto committed = committed_.counts();
  const auto wanted = target.counts();
  auto& candidates = victim_candidates_;
  candidates.clear();
  for (const auto& c : containers_) {
    if (c.busy(now)) continue;  // cannot preempt an in-flight transfer
    if (c.blocked(now)) continue;  // fault backoff / quarantine
    const auto kind = c.loading ? c.loading : c.atom;
    if (!kind) continue;
    if (committed[*kind] <= wanted[*kind]) continue;  // no excess
    candidates.push_back(VictimCandidate{
        .container = c.id,
        .atom_kind = *kind,
        .last_used = c.last_used,
    });
  }
  if (candidates.empty()) return std::nullopt;
  return policy.pick(candidates);
}

}  // namespace rispp::rt
