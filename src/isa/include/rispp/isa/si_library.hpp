#pragma once
/// \file si_library.hpp
/// \brief A compiled application's Special Instruction set: the catalog of
/// Atom types plus every SI with its Molecule options.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rispp/isa/atom_catalog.hpp"
#include "rispp/isa/special_instruction.hpp"

namespace rispp::isa {

class SiLibrary {
 public:
  SiLibrary(AtomCatalog catalog, std::vector<SpecialInstruction> sis);

  /// The H.264 case-study library: HT_2x2, HT_4x4, DCT_4x4, SATD_4x4 with
  /// the 30 Molecule compositions of the paper's Table 2 (cell values
  /// reconstructed where the available scan is illegible; see EXPERIMENTS.md
  /// "Table 2" for the per-cell provenance).
  static SiLibrary h264();

  /// h264() plus the SAD SI the paper sketches for Integer-Pixel Motion
  /// Estimation ("QuadSub and SATD can also be combined to form an SI that
  /// can execute the SAD operation") — the future-work extension that
  /// attacks the Amdahl limit of Fig 12.
  static SiLibrary h264_with_sad();

  /// The frame-level library behind the Fig-1 study: all of h264_with_sad()
  /// plus Motion Compensation (MC_HPEL_4x4, MC_QPEL_4x4 over SixTap/Clip
  /// Atoms) and Loop Filter (LF_EDGE_4 over EdgeFilter/Clip) — one SI
  /// cluster per functional block (ME / MC / TQ / LF), so a whole encode
  /// frame rotates through several incompatible hot spots. The three extra
  /// Atoms carry synthetic synthesis data (documented in DESIGN.md §2).
  static SiLibrary h264_frame();

  const AtomCatalog& catalog() const { return catalog_; }
  const std::vector<SpecialInstruction>& sis() const { return sis_; }

  const SpecialInstruction& find(const std::string& name) const;
  bool contains(const std::string& name) const;
  std::size_t index_of(const std::string& name) const;
  const SpecialInstruction& at(std::size_t i) const;
  std::size_t size() const { return sis_.size(); }

  /// Rotatable counts of option `option` of SI `si` — its Molecule with the
  /// static-Atom components zeroed, i.e. what it needs from the Atom
  /// Containers. Read from a flat table built once by the constructor, so
  /// the run-time kernel's selection, benefit, fastest-option and LRU-touch
  /// paths compare count arrays instead of projecting Molecules per call.
  /// Unchecked: `si` < size() and `option` < at(si).options().size().
  std::span<const atom::Count> projection(std::size_t si,
                                          std::size_t option) const {
    const auto dim = catalog_.size();
    return {projections_.data() + (first_option_[si] + option) * dim, dim};
  }

  /// fastest_option()'s answer when no option fits: run in software.
  static constexpr std::size_t kSoftware = ~std::size_t{0};

  /// Index of SI `si`'s fastest option whose projection fits in the
  /// rotatable Atoms `loaded` (catalog dimension; the first such option on
  /// a tie), or kSoftware — at(si).fastest_supported(loaded, catalog())
  /// over the projection table.
  std::size_t fastest_option(std::size_t si,
                             std::span<const atom::Count> loaded) const;

  /// Cycles SI `si` takes on `loaded`: its fastest fitting option's, or
  /// software's. Equals at(si).cycles_with(loaded, catalog()).
  std::uint32_t cycles_on(std::size_t si,
                          std::span<const atom::Count> loaded) const {
    const auto o = fastest_option(si, loaded);
    return o == kSoftware ? sis_[si].software_cycles()
                          : sis_[si].options()[o].cycles;
  }

 private:
  AtomCatalog catalog_;
  std::vector<SpecialInstruction> sis_;
  /// projection() rows, one per option in SI-then-option order, each of
  /// catalog dimension; first_option_[si] is the row of SI si's option 0.
  std::vector<atom::Count> projections_;
  std::vector<std::size_t> first_option_;
};

/// Moves a library value into the immutable shared snapshot form that the
/// thread-safe APIs (Simulator, RisppManager, exp::Platform) take: nobody
/// can mutate it (const) and nobody can destroy it early (shared_ptr).
inline std::shared_ptr<const SiLibrary> share(SiLibrary lib) {
  return std::make_shared<const SiLibrary>(std::move(lib));
}

/// Non-owning view of a caller-kept library, in the same shared-snapshot
/// type. The caller must keep `lib` alive for as long as any component
/// holds the pointer — the old reference-parameter contract, but stated
/// explicitly at the call site instead of hidden in an overload. Fine for
/// stack-local single-thread runs; sweeps and anything that outlives the
/// scope should use share() / exp::Platform.
inline std::shared_ptr<const SiLibrary> borrow(const SiLibrary& lib) {
  return std::shared_ptr<const SiLibrary>(std::shared_ptr<const SiLibrary>{},
                                          &lib);
}

}  // namespace rispp::isa
