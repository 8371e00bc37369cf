#include "rispp/exp/platform.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "rispp/aes/graph.hpp"
#include "rispp/isa/io.hpp"
#include "rispp/util/error.hpp"

namespace rispp::exp {

namespace {

std::string known_builtins() {
  std::string known;
  for (const auto& n : Platform::builtin_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  return known;
}

}  // namespace

Platform::Platform(std::string name, std::shared_ptr<const isa::SiLibrary> lib)
    : name_(std::move(name)), lib_(std::move(lib)) {
  RISPP_REQUIRE(lib_ != nullptr, "platform needs an SI library");
  pareto_.reserve(lib_->size());
  for (const auto& si : lib_->sis())
    pareto_.push_back(si.pareto_front(lib_->catalog()));
}

std::shared_ptr<const Platform> Platform::make(isa::SiLibrary lib,
                                               std::string name) {
  return std::shared_ptr<const Platform>(
      new Platform(std::move(name), isa::share(std::move(lib))));
}

std::vector<std::string> Platform::builtin_names() {
  return {"h264", "h264_with_sad", "h264_frame", "aes"};
}

std::shared_ptr<const Platform> Platform::builtin(const std::string& name) {
  // A Platform is immutable, so each built-in snapshot is built once per
  // process (on first use, thread-safely) and shared by every caller.
  if (name == "h264") {
    static const auto p = make(isa::SiLibrary::h264(), "h264");
    return p;
  }
  if (name == "h264_with_sad") {
    static const auto p =
        make(isa::SiLibrary::h264_with_sad(), "h264_with_sad");
    return p;
  }
  if (name == "h264_frame") {
    static const auto p = make(isa::SiLibrary::h264_frame(), "h264_frame");
    return p;
  }
  if (name == "aes") {
    static const auto p = make(aes::si_library(), "aes");
    return p;
  }
  throw util::PreconditionError("unknown builtin platform '" + name +
                                "' (known: " + known_builtins() + ")");
}

std::shared_ptr<const Platform> Platform::resolve(const std::string& spec) {
  const auto names = builtin_names();
  if (std::find(names.begin(), names.end(), spec) != names.end())
    return builtin(spec);
  // Parsed once, up front; sweep points never touch the parser again.
  std::ifstream in(spec);
  if (!in.good())
    throw util::PreconditionError("'" + spec +
                                  "' is neither a built-in library (" +
                                  known_builtins() +
                                  ") nor a readable SI library file");
  return make(isa::parse_si_library(in), spec);
}

const std::vector<isa::ParetoPoint>& Platform::pareto(
    std::size_t si_index) const {
  RISPP_REQUIRE(si_index < pareto_.size(), "SI index out of range");
  return pareto_[si_index];
}

}  // namespace rispp::exp
