#pragma once
/// \file platform.hpp
/// \brief The immutable platform snapshot shared by every worker of a sweep.
///
/// A batch experiment evaluates hundreds of configuration points against the
/// *same* SI library, Atom catalog and hardware tables. The seed workflow
/// rebuilt (or worse, re-parsed) that state per point and threaded bare
/// references through every layer — fine for one thread, a lifetime trap for
/// many. `Platform` is the thread-safe answer: everything is built exactly
/// once, the whole object is immutable after construction, and it is only
/// ever handed out as `std::shared_ptr<const Platform>`, so concurrent
/// workers can neither mutate it nor destroy it under each other.
///
/// The library snapshot inside it is the same `shared_ptr<const SiLibrary>`
/// that `sim::Simulator` and `rt::RisppManager` now take — a worker building
/// a simulator from a Platform shares ownership all the way down.

#include <memory>
#include <string>
#include <vector>

#include "rispp/isa/si_library.hpp"
#include "rispp/isa/special_instruction.hpp"

namespace rispp::exp {

class Platform {
 public:
  /// Builds the snapshot from a library value (moved in; nobody else can
  /// hold a mutable handle afterwards). `name` labels result files.
  static std::shared_ptr<const Platform> make(isa::SiLibrary lib,
                                              std::string name = "custom");

  /// One of the built-in case-study libraries: "h264", "h264_with_sad",
  /// "h264_frame", "aes". Each is built once per process, on first use, and
  /// every call returns that same snapshot. Throws util::PreconditionError
  /// listing the valid names.
  static std::shared_ptr<const Platform> builtin(const std::string& name);
  static std::vector<std::string> builtin_names();

  /// Resolves the `NAME|FILE` library argument every tool takes: a built-in
  /// name, else the path of an SI-library text file (isa/io.hpp format),
  /// parsed once, up front, and labelled with that path. Throws
  /// util::PreconditionError when `spec` is neither.
  static std::shared_ptr<const Platform> resolve(const std::string& spec);

  const std::string& name() const { return name_; }
  const isa::SiLibrary& library() const { return *lib_; }
  /// The shared snapshot — hand exactly this to Simulator / RisppManager.
  const std::shared_ptr<const isa::SiLibrary>& library_ptr() const {
    return lib_;
  }
  const isa::AtomCatalog& catalog() const { return lib_->catalog(); }

  /// Precomputed hardware tables: the Fig-13 Pareto front of each SI, in
  /// library order. Pointers inside the points refer into the shared
  /// library, so they stay valid for the Platform's lifetime.
  const std::vector<isa::ParetoPoint>& pareto(std::size_t si_index) const;

 private:
  Platform(std::string name, std::shared_ptr<const isa::SiLibrary> lib);

  std::string name_;
  std::shared_ptr<const isa::SiLibrary> lib_;
  std::vector<std::vector<isa::ParetoPoint>> pareto_;
};

}  // namespace rispp::exp
