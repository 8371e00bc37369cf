#include "rispp/rt/policy.hpp"

#include <map>

#include "rispp/rt/selection.hpp"
#include "rispp/util/error.hpp"

namespace rispp::rt {

double SelectionPolicy::benefit(
    const atom::Molecule& config,
    const std::vector<ForecastDemand>& demands) const {
  const auto& cat = lib_->catalog();
  double total = 0.0;
  for (const auto& d : demands) {
    const auto& si = lib_->at(d.si_index);
    const auto cycles = si.cycles_with(config, cat);
    total += d.weight() * static_cast<double>(si.software_cycles() - cycles);
  }
  return total;
}

unsigned LruReplacement::pick(const std::vector<VictimCandidate>& candidates) {
  const VictimCandidate* best = nullptr;
  for (const auto& c : candidates)
    if (!best || c.last_used < best->last_used) best = &c;
  return best->container;
}

unsigned MruReplacement::pick(const std::vector<VictimCandidate>& candidates) {
  const VictimCandidate* best = nullptr;
  for (const auto& c : candidates)
    if (!best || c.last_used > best->last_used) best = &c;
  return best->container;
}

unsigned RoundRobinReplacement::pick(
    const std::vector<VictimCandidate>& candidates) {
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

// Keys whose factory was replaced (or added) through register_*_policy.
// The built-in entries installed below never pass through the registration
// functions, so membership here is exactly "no longer the stock builtin" —
// which is what the devirtualized dispatch must check before bypassing the
// factory's virtual product.
std::map<std::string, bool>& selection_overrides() {
  static std::map<std::string, bool> overridden;
  return overridden;
}

std::map<std::string, bool>& replacement_overrides() {
  static std::map<std::string, bool> overridden;
  return overridden;
}

std::map<std::string, SelectionPolicyFactory>& selection_registry() {
  static std::map<std::string, SelectionPolicyFactory> registry = {
      {"greedy",
       [](const isa::SiLibrary& lib) {
         return std::make_unique<GreedySelector>(lib);
       }},
      {"exhaustive",
       [](const isa::SiLibrary& lib) {
         return std::make_unique<ExhaustiveSelector>(lib);
       }},
  };
  return registry;
}

std::map<std::string, ReplacementPolicyFactory>& replacement_registry() {
  static std::map<std::string, ReplacementPolicyFactory> registry = {
      {"lru", [] { return std::make_unique<LruReplacement>(); }},
      {"mru", [] { return std::make_unique<MruReplacement>(); }},
      {"round-robin", [] { return std::make_unique<RoundRobinReplacement>(); }},
  };
  return registry;
}

template <typename Registry>
std::string known_names(const Registry& registry) {
  std::string names;
  for (const auto& [name, factory] : registry) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  return names;
}

}  // namespace

void register_selection_policy(const std::string& name,
                               SelectionPolicyFactory factory) {
  RISPP_REQUIRE(static_cast<bool>(factory), "null selection policy factory");
  selection_registry()[name] = std::move(factory);
  selection_overrides()[name] = true;
}

void register_replacement_policy(const std::string& name,
                                 ReplacementPolicyFactory factory) {
  RISPP_REQUIRE(static_cast<bool>(factory), "null replacement policy factory");
  replacement_registry()[name] = std::move(factory);
  replacement_overrides()[name] = true;
}

std::unique_ptr<SelectionPolicy> make_selection_policy(
    const std::string& name, const isa::SiLibrary& lib) {
  const auto& registry = selection_registry();
  const auto it = registry.find(name);
  RISPP_REQUIRE(it != registry.end(),
                "unknown selection policy '" + name +
                    "' (registered: " + known_names(registry) + ")");
  return it->second(lib);
}

std::unique_ptr<ReplacementPolicy> make_replacement_policy(
    const std::string& name) {
  const auto& registry = replacement_registry();
  const auto it = registry.find(name);
  RISPP_REQUIRE(it != registry.end(),
                "unknown replacement policy '" + name +
                    "' (registered: " + known_names(registry) + ")");
  return it->second();
}

std::vector<std::string> selection_policy_names() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : selection_registry())
    names.push_back(name);
  return names;
}

std::vector<std::string> replacement_policy_names() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : replacement_registry())
    names.push_back(name);
  return names;
}

bool selection_policy_registered(const std::string& name) {
  return selection_registry().count(name) != 0;
}

bool replacement_policy_registered(const std::string& name) {
  return replacement_registry().count(name) != 0;
}

SelectionKind selection_policy_kind(const std::string& name) {
  if (selection_overrides().count(name) != 0) return SelectionKind::Custom;
  if (name == "greedy") return SelectionKind::Greedy;
  if (name == "exhaustive") return SelectionKind::Exhaustive;
  return SelectionKind::Custom;
}

ReplacementKind replacement_policy_kind(const std::string& name) {
  if (replacement_overrides().count(name) != 0) return ReplacementKind::Custom;
  if (name == "lru") return ReplacementKind::Lru;
  if (name == "mru") return ReplacementKind::Mru;
  if (name == "round-robin") return ReplacementKind::RoundRobin;
  return ReplacementKind::Custom;
}

}  // namespace rispp::rt
