#include "rispp/atom/molecule.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <sstream>

#include "rispp/util/error.hpp"

namespace rispp::atom {

Count Molecule::operator[](std::size_t i) const {
  RISPP_REQUIRE(i < counts_.size(), "atom index out of range");
  return counts_[i];
}

void Molecule::set(std::size_t i, Count c) {
  RISPP_REQUIRE(i < counts_.size(), "atom index out of range");
  counts_[i] = c;
}

bool Molecule::is_zero() const {
  return std::all_of(counts_.begin(), counts_.end(),
                     [](Count c) { return c == 0; });
}

std::uint64_t Molecule::determinant() const {
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

void Molecule::require_same_dimension(const Molecule& o, const char* op) const {
  RISPP_REQUIRE(dimension() == o.dimension(),
                std::string("molecule dimension mismatch in ") + op);
}

Molecule Molecule::unite(const Molecule& o) const {
  require_same_dimension(o, "unite");
  Molecule out(dimension());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    out.counts_[i] = std::max(counts_[i], o.counts_[i]);
  return out;
}

Molecule Molecule::intersect(const Molecule& o) const {
  require_same_dimension(o, "intersect");
  Molecule out(dimension());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    out.counts_[i] = std::min(counts_[i], o.counts_[i]);
  return out;
}

bool Molecule::leq(const Molecule& o) const {
  require_same_dimension(o, "leq");
  return atom::leq(counts_, o.counts_);
}

Molecule Molecule::residual_to(const Molecule& o) const {
  require_same_dimension(o, "residual_to");
  Molecule out(dimension());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    out.counts_[i] = o.counts_[i] > counts_[i] ? o.counts_[i] - counts_[i] : 0;
  return out;
}

Molecule Molecule::saturating_sub(const Molecule& o) const {
  require_same_dimension(o, "saturating_sub");
  Molecule out(dimension());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    out.counts_[i] = counts_[i] > o.counts_[i] ? counts_[i] - o.counts_[i] : 0;
  return out;
}

Molecule Molecule::plus(const Molecule& o) const {
  require_same_dimension(o, "plus");
  Molecule out(dimension());
  for (std::size_t i = 0; i < counts_.size(); ++i)
    out.counts_[i] = counts_[i] + o.counts_[i];
  return out;
}

Molecule Molecule::resized(std::size_t dimension) const {
  Molecule out(dimension);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (i >= dimension) {
      RISPP_REQUIRE(counts_[i] == 0,
                    "resized() would drop a non-zero atom requirement");
      continue;
    }
    out.counts_[i] = counts_[i];
  }
  return out;
}

std::string Molecule::str() const {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < counts_.size(); ++i)
    os << (i ? "," : "") << counts_[i];
  os << ')';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Molecule& m) {
  return os << m.str();
}

Molecule supremum(std::span<const Molecule> ms, std::size_t dimension) {
  Molecule out(dimension);
  for (const auto& m : ms) out = out.unite(m);
  return out;
}

Molecule infimum(std::span<const Molecule> ms) {
  RISPP_REQUIRE(!ms.empty(), "infimum of empty molecule set is undefined");
  Molecule out = ms.front();
  for (std::size_t i = 1; i < ms.size(); ++i) out = out.intersect(ms[i]);
  return out;
}

Molecule representative(std::span<const Molecule> hardware_molecules,
                        std::size_t dimension) {
  RISPP_REQUIRE(!hardware_molecules.empty(),
                "Rep(S) needs at least one hardware molecule");
  Molecule out(dimension);
  const auto k = hardware_molecules.size();
  for (std::size_t i = 0; i < dimension; ++i) {
    std::uint64_t sum = 0;
    for (const auto& m : hardware_molecules) {
      RISPP_REQUIRE(m.dimension() == dimension,
                    "Rep(S): molecule dimension mismatch");
      sum += m[i];
    }
    // ceil(sum / k)
    out.set(i, static_cast<Count>((sum + k - 1) / k));
  }
  return out;
}

}  // namespace rispp::atom
