#pragma once
/// \file molecule.hpp
/// \brief The formal Atom/Molecule model of RISPP (paper §3.1).
///
/// A *Molecule* is an element of ℕⁿ where n is the number of distinct Atom
/// types and component i is the number of instances of Atom i needed to
/// implement the Molecule. The paper defines on this set:
///
///  * m ∪ o  — element-wise max: the *Meta-Molecule* containing the Atoms
///             required to implement both m and o (not necessarily
///             concurrently). (ℕⁿ, ∪) is an Abelian semigroup with neutral
///             element (0,…,0).
///  * m ∩ o  — element-wise min: Atoms collectively needed by both.
///  * m ≤ o  — true iff ∀i: mᵢ ≤ oᵢ. (ℕⁿ, ≤) is a partially ordered set and
///             with sup/inf a complete lattice (on finite subsets).
///  * |m|    — the determinant: Σᵢ mᵢ, the total number of Atom instances.
///  * m ▷ o  — the residual (written `o − m` saturating in the paper): the
///             minimal Meta-Molecule that must still be provided to implement
///             o when the Atoms of m are already available.
///
/// These operations drive every decision in the platform: forecast trimming
/// (Fig 5), run-time Molecule selection, and rotation scheduling.

#include <compare>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace rispp::atom {

/// Count of instances of one Atom type. Table 2 tops out at 4; 32 bits is
/// comfortable headroom for synthetic stress tests.
using Count = std::uint32_t;

class Molecule {
 public:
  /// The zero Molecule (0,…,0) of the given dimension — the neutral element
  /// of (ℕⁿ, ∪).
  explicit Molecule(std::size_t dimension = 0) : counts_(dimension, 0) {}

  /// Construct from explicit per-Atom counts.
  Molecule(std::initializer_list<Count> counts) : counts_(counts) {}
  explicit Molecule(std::vector<Count> counts) : counts_(std::move(counts)) {}

  std::size_t dimension() const { return counts_.size(); }
  Count operator[](std::size_t i) const;
  void set(std::size_t i, Count c);
  std::span<const Count> counts() const { return counts_; }

  /// True iff every component is zero.
  bool is_zero() const;

  /// The determinant |m| = Σᵢ mᵢ (total Atom instances required).
  std::uint64_t determinant() const;

  /// Meta-Molecule union: element-wise max. Commutative, associative,
  /// idempotent; neutral element is the zero Molecule.
  Molecule unite(const Molecule& o) const;

  /// Element-wise min — the Atoms collectively needed for both Molecules.
  Molecule intersect(const Molecule& o) const;

  /// Partial order: *this ≤ o iff ∀i: (*this)ᵢ ≤ oᵢ. Note this is a *partial*
  /// order — `!(a <= b)` does not imply `b <= a`.
  bool leq(const Molecule& o) const;

  /// The paper's residual operator: the minimal Meta-Molecule p with
  /// pᵢ = max(oᵢ − mᵢ, 0), i.e. what must still be loaded to implement `o`
  /// when `*this` is already available.
  Molecule residual_to(const Molecule& o) const;

  /// Saturating element-wise difference in the other direction:
  /// what of *this* would become free if `o` were given up.
  Molecule saturating_sub(const Molecule& o) const;

  /// Element-wise sum — used when multiple Molecules must be resident
  /// *concurrently* (distinct from ∪, which allows time-sharing).
  Molecule plus(const Molecule& o) const;

  /// Copy embedded into a space of `dimension` atoms: components beyond the
  /// current dimension are zero. Shrinking requires the dropped components
  /// to be zero (a Molecule must not silently lose requirements).
  Molecule resized(std::size_t dimension) const;

  bool operator==(const Molecule&) const = default;

  /// Render as e.g. "(1,0,2,1)".
  std::string str() const;

 private:
  void require_same_dimension(const Molecule& o, const char* op) const;
  std::vector<Count> counts_;
};

std::ostream& operator<<(std::ostream& os, const Molecule& m);

/// m ≤ o over raw count arrays of one dimension: Molecule::leq for the
/// run-time kernel's flat rows (isa::SiLibrary::projection), which it
/// compares without building Molecules. Unchecked: o.size() >= m.size().
inline bool leq(std::span<const Count> m, std::span<const Count> o) {
  for (std::size_t i = 0; i < m.size(); ++i)
    if (m[i] > o[i]) return false;
  return true;
}

/// Supremum of a non-empty range of Molecules: the least Meta-Molecule that
/// dominates all of them (⋃). sup ∅ of dimension d is the zero Molecule.
Molecule supremum(std::span<const Molecule> ms, std::size_t dimension);

/// Infimum of a non-empty range of Molecules (⋂). Precondition: non-empty.
Molecule infimum(std::span<const Molecule> ms);

/// The representing Meta-Molecule of a Special Instruction (paper §3.2):
/// Rep(S) = ( ⌈ average over S of oᵢ ⌉ )ᵢ over the SI's *hardware* Molecules
/// (the software-execution Molecule is excluded by the caller). Reduces the
/// incompatibility of SIs to the incompatibility of their representatives, so
/// compatibility can be evaluated at run time in O(n).
Molecule representative(std::span<const Molecule> hardware_molecules,
                        std::size_t dimension);

}  // namespace rispp::atom
