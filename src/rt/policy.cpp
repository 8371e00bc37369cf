#include "rispp/rt/policy.hpp"

#include <algorithm>
#include <iterator>

#include "rispp/rt/selection.hpp"
#include "rispp/util/error.hpp"

namespace rispp::rt {

double SelectionPolicy::benefit(
    const atom::Molecule& config,
    const std::vector<ForecastDemand>& demands) const {
  RISPP_REQUIRE(config.dimension() == lib_->catalog().size(),
                "configuration dimension does not match the catalog");
  double total = 0.0;
  for (const auto& d : demands) {
    const auto& si = lib_->at(d.si_index);
    const auto cycles = lib_->cycles_on(d.si_index, config.counts());
    total += d.weight() * static_cast<double>(si.software_cycles() - cycles);
  }
  return total;
}

unsigned LruReplacement::pick(std::span<const VictimCandidate> candidates) {
  const VictimCandidate* best = nullptr;
  for (const auto& c : candidates)
    if (!best || c.last_used < best->last_used) best = &c;
  return best->container;
}

unsigned MruReplacement::pick(std::span<const VictimCandidate> candidates) {
  const VictimCandidate* best = nullptr;
  for (const auto& c : candidates)
    if (!best || c.last_used > best->last_used) best = &c;
  return best->container;
}

unsigned RoundRobinReplacement::pick(
    std::span<const VictimCandidate> candidates) {
  // Candidates arrive in container-id order: take the first at or past the
  // cursor, wrapping to the lowest id when the cursor ran off the end.
  const VictimCandidate* chosen = nullptr;
  for (const auto& c : candidates)
    if (c.container >= cursor_) {
      chosen = &c;
      break;
    }
  if (!chosen) chosen = &candidates.front();
  cursor_ = chosen->container + 1;
  return chosen->container;
}

namespace {

/// One built-in policy: its factory key and how to construct it. Each
/// policy kind has one table, kept sorted by key; it backs the factory, the
/// key list and the key check alike.
template <typename Policy, typename... Args>
struct Entry {
  std::string_view key;
  std::unique_ptr<Policy> (*make)(Args...);
};

template <typename Policy, typename Impl, typename... Args>
std::unique_ptr<Policy> construct(Args... args) {
  return std::make_unique<Impl>(args...);
}

constexpr Entry<SelectionPolicy, const isa::SiLibrary&> kSelectionPolicies[] = {
    {"exhaustive",
     construct<SelectionPolicy, ExhaustiveSelector, const isa::SiLibrary&>},
    {"greedy",
     construct<SelectionPolicy, GreedySelector, const isa::SiLibrary&>},
};

constexpr Entry<ReplacementPolicy> kReplacementPolicies[] = {
    {"lru", construct<ReplacementPolicy, LruReplacement>},
    {"mru", construct<ReplacementPolicy, MruReplacement>},
    {"round-robin", construct<ReplacementPolicy, RoundRobinReplacement>},
};

constexpr auto by_key = [](const auto& a, const auto& b) {
  return a.key < b.key;
};
static_assert(std::is_sorted(std::begin(kSelectionPolicies),
                             std::end(kSelectionPolicies), by_key));
static_assert(std::is_sorted(std::begin(kReplacementPolicies),
                             std::end(kReplacementPolicies), by_key));

template <typename Table>
std::vector<std::string> keys(const Table& table) {
  std::vector<std::string> out;
  for (const auto& e : table) out.emplace_back(e.key);
  return out;
}

/// The entry for `name`; throws PreconditionError listing the valid keys.
template <typename Table>
const auto& lookup(const Table& table, const char* kind,
                   const std::string& name) {
  for (const auto& e : table)
    if (e.key == name) return e;
  std::string known;
  for (const auto& e : table) {
    if (!known.empty()) known += ", ";
    known += e.key;
  }
  throw util::PreconditionError("unknown " + std::string(kind) + " policy '" +
                                name + "' (registered: " + known + ")");
}

template <typename Table>
bool contains(const Table& table, const std::string& name) {
  return std::any_of(std::begin(table), std::end(table),
                     [&](const auto& e) { return e.key == name; });
}

}  // namespace

std::unique_ptr<SelectionPolicy> make_selection_policy(
    const std::string& name, const isa::SiLibrary& lib) {
  return lookup(kSelectionPolicies, "selection", name).make(lib);
}

std::unique_ptr<ReplacementPolicy> make_replacement_policy(
    const std::string& name) {
  return lookup(kReplacementPolicies, "replacement", name).make();
}

std::vector<std::string> selection_policy_names() {
  return keys(kSelectionPolicies);
}

std::vector<std::string> replacement_policy_names() {
  return keys(kReplacementPolicies);
}

bool selection_policy_registered(const std::string& name) {
  return contains(kSelectionPolicies, name);
}

bool replacement_policy_registered(const std::string& name) {
  return contains(kReplacementPolicies, name);
}

}  // namespace rispp::rt
