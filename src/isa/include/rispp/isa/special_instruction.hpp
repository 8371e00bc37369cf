#pragma once
/// \file special_instruction.hpp
/// \brief Special Instructions (SIs) and their Molecule implementation
/// options (paper §3, Table 2, Fig 13).
///
/// An SI is one opcode in the application binary with *many* possible
/// executions: an optimized software routine (always available) and a set of
/// hardware Molecules that trade Atom Container usage against cycles. The
/// run-time system picks among them per invocation depending on what is
/// currently loaded — this is the "dynamic trade-off" of Fig 13.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rispp/atom/molecule.hpp"
#include "rispp/isa/atom_catalog.hpp"

namespace rispp::isa {

/// One hardware implementation option of an SI: the Atom instances it wires
/// together and its resulting latency.
struct MoleculeOption {
  atom::Molecule atoms;     ///< full catalog-dimension requirement vector
  std::uint32_t cycles = 0; ///< SI latency when executed on this Molecule
};

/// A point on an SI's resource/performance Pareto front (Fig 13).
struct ParetoPoint {
  std::uint64_t rotatable_atoms = 0;  ///< Atom Container slots required
  std::uint32_t cycles = 0;
  const MoleculeOption* option = nullptr;
};

class SpecialInstruction {
 public:
  /// Throws util::PreconditionError unless the name is non-empty, the
  /// software latency is positive, and there is at least one hardware
  /// Molecule, each using atoms and strictly faster than software.
  SpecialInstruction(std::string name, std::uint32_t software_cycles,
                     std::vector<MoleculeOption> options);

  const std::string& name() const { return name_; }

  /// Latency of the optimized software Molecule — the paper counts this as a
  /// Molecule too ("Optimized software Molecule for each SI"), the one with
  /// zero Atom requirements.
  std::uint32_t software_cycles() const { return software_cycles_; }

  const std::vector<MoleculeOption>& options() const { return options_; }

  /// The hardware Molecule with the fewest Atom Container slots (ties broken
  /// by fewer cycles) — the first implementation an SI upgrades to once "the
  /// minimum number of Atoms is loaded".
  const MoleculeOption& minimal(const AtomCatalog& cat) const;

  /// Fastest option whose rotatable requirement is covered by `loaded`;
  /// nullptr when not even the minimal Molecule fits (→ software execution).
  const MoleculeOption* fastest_supported(const atom::Molecule& loaded,
                                          const AtomCatalog& cat) const;

  /// Cycles this SI takes given `loaded` Atoms (hardware if any Molecule is
  /// supported, otherwise the software Molecule).
  std::uint32_t cycles_with(const atom::Molecule& loaded,
                            const AtomCatalog& cat) const;

  /// Fastest option using at most `budget` Atom Container slots, assuming
  /// the containers are dedicated to this SI (Fig 11's per-SI sweep);
  /// nullopt when the budget cannot even fit the minimal Molecule.
  std::optional<ParetoPoint> best_with_budget(std::uint64_t budget,
                                              const AtomCatalog& cat) const;

  /// Non-dominated (rotatable_atoms, cycles) points, sorted by atoms
  /// ascending / cycles strictly descending — the highlighted lines of
  /// Fig 13.
  std::vector<ParetoPoint> pareto_front(const AtomCatalog& cat) const;

  /// The representing Meta-Molecule Rep(S) over the hardware Molecules
  /// (§3.2): component-wise ⌈average⌉.
  atom::Molecule rep(const AtomCatalog& cat) const;

  /// Speed-up of an option vs the software Molecule.
  double speedup(const MoleculeOption& opt) const;

  /// Speed-up of the fastest hardware Molecule vs software (the ">22×"
  /// headline uses the *minimal* Molecule; this is the ceiling).
  double max_speedup() const;

 private:
  std::string name_;
  std::uint32_t software_cycles_;
  std::vector<MoleculeOption> options_;
};

}  // namespace rispp::isa
