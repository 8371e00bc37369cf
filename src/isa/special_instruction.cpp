#include "rispp/isa/special_instruction.hpp"

#include <algorithm>
#include <limits>

#include "rispp/util/error.hpp"

namespace rispp::isa {

SpecialInstruction::SpecialInstruction(std::string name,
                                       std::uint32_t software_cycles,
                                       std::vector<MoleculeOption> options)
    : name_(std::move(name)),
      software_cycles_(software_cycles),
      options_(std::move(options)) {
  RISPP_REQUIRE(!name_.empty(), "SI needs a name");
  RISPP_REQUIRE(software_cycles_ > 0, "software molecule latency must be > 0");
  RISPP_REQUIRE(!options_.empty(), "SI needs at least one hardware molecule");
  for (const auto& o : options_) {
    RISPP_REQUIRE(o.cycles > 0, "molecule latency must be > 0");
    RISPP_REQUIRE(o.cycles < software_cycles_,
                  "hardware molecule must be faster than software");
    RISPP_REQUIRE(!o.atoms.is_zero(), "hardware molecule must use atoms");
  }
}

const MoleculeOption& SpecialInstruction::minimal(const AtomCatalog& cat) const {
  const MoleculeOption* best = nullptr;
  std::uint64_t best_det = std::numeric_limits<std::uint64_t>::max();
  for (const auto& o : options_) {
    const auto det = cat.rotatable_determinant(o.atoms);
    if (!best || det < best_det ||
        (det == best_det && o.cycles < best->cycles)) {
      best = &o;
      best_det = det;
    }
  }
  RISPP_ENSURE(best != nullptr, "non-empty option list must yield a minimum");
  return *best;
}

const MoleculeOption* SpecialInstruction::fastest_supported(
    const atom::Molecule& loaded, const AtomCatalog& cat) const {
  const MoleculeOption* best = nullptr;
  for (const auto& o : options_) {
    if (!cat.satisfied_by(o.atoms, loaded)) continue;
    if (!best || o.cycles < best->cycles) best = &o;
  }
  return best;
}

std::uint32_t SpecialInstruction::cycles_with(const atom::Molecule& loaded,
                                              const AtomCatalog& cat) const {
  const auto* opt = fastest_supported(loaded, cat);
  return opt ? opt->cycles : software_cycles_;
}

std::optional<ParetoPoint> SpecialInstruction::best_with_budget(
    std::uint64_t budget, const AtomCatalog& cat) const {
  std::optional<ParetoPoint> best;
  for (const auto& o : options_) {
    const auto det = cat.rotatable_determinant(o.atoms);
    if (det > budget) continue;
    if (!best || o.cycles < best->cycles ||
        (o.cycles == best->cycles && det < best->rotatable_atoms)) {
      best = ParetoPoint{det, o.cycles, &o};
    }
  }
  return best;
}

std::vector<ParetoPoint> SpecialInstruction::pareto_front(
    const AtomCatalog& cat) const {
  std::vector<ParetoPoint> pts;
  pts.reserve(options_.size());
  for (const auto& o : options_)
    pts.push_back({cat.rotatable_determinant(o.atoms), o.cycles, &o});
  std::sort(pts.begin(), pts.end(), [](const ParetoPoint& a, const ParetoPoint& b) {
    return a.rotatable_atoms != b.rotatable_atoms
               ? a.rotatable_atoms < b.rotatable_atoms
               : a.cycles < b.cycles;
  });
  std::vector<ParetoPoint> front;
  std::uint32_t best_cycles = std::numeric_limits<std::uint32_t>::max();
  for (const auto& p : pts) {
    if (p.cycles < best_cycles) {
      front.push_back(p);
      best_cycles = p.cycles;
    }
  }
  return front;
}

atom::Molecule SpecialInstruction::rep(const AtomCatalog& cat) const {
  std::vector<atom::Molecule> ms;
  ms.reserve(options_.size());
  for (const auto& o : options_) ms.push_back(o.atoms);
  return atom::representative(ms, cat.size());
}

double SpecialInstruction::speedup(const MoleculeOption& opt) const {
  return static_cast<double>(software_cycles_) / static_cast<double>(opt.cycles);
}

double SpecialInstruction::max_speedup() const {
  const auto it = std::min_element(
      options_.begin(), options_.end(),
      [](const MoleculeOption& a, const MoleculeOption& b) {
        return a.cycles < b.cycles;
      });
  return speedup(*it);
}

}  // namespace rispp::isa
