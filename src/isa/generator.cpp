#include "rispp/isa/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include "rispp/util/error.hpp"
#include "rispp/util/parse.hpp"

namespace rispp::isa {

namespace {

std::string fmt_param(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

double parse_param(const std::string& spec, const std::string& tok) {
  if (const auto v = util::parse_number<double>(tok)) return *v;
  throw util::PreconditionError("invalid distribution parameter '" + tok +
                                "' in '" + spec + "'");
}

}  // namespace

Distribution Distribution::uniform(double lo, double hi) {
  RISPP_REQUIRE(lo >= 0.0 && lo <= hi,
                "uniform distribution needs 0 <= lo <= hi");
  return {Kind::Uniform, lo, hi};
}

Distribution Distribution::lognormal(double mu, double sigma) {
  RISPP_REQUIRE(sigma >= 0.0, "lognormal sigma must be >= 0");
  return {Kind::Lognormal, mu, sigma};
}

Distribution Distribution::pareto(double xm, double alpha) {
  RISPP_REQUIRE(xm > 0.0 && alpha > 0.0,
                "pareto needs scale x_m > 0 and shape alpha > 0");
  return {Kind::Pareto, xm, alpha};
}

Distribution Distribution::parse(const std::string& spec) {
  const auto colon = spec.find(':');
  const auto comma = spec.find(',', colon == std::string::npos ? 0 : colon);
  if (colon == std::string::npos || comma == std::string::npos ||
      comma <= colon + 1 || comma + 1 >= spec.size())
    throw util::PreconditionError(
        "malformed distribution '" + spec +
        "' (expected kind:A,B — uniform:LO,HI, lognormal:MU,SIGMA, "
        "pareto:XM,ALPHA)");
  const auto kind = spec.substr(0, colon);
  const double a = parse_param(spec, spec.substr(colon + 1, comma - colon - 1));
  const double b = parse_param(spec, spec.substr(comma + 1));
  if (kind == "uniform") return uniform(a, b);
  if (kind == "lognormal") return lognormal(a, b);
  if (kind == "pareto") return pareto(a, b);
  throw util::PreconditionError("unknown distribution kind '" + kind +
                                "' (known: uniform, lognormal, pareto)");
}

double Distribution::sample(util::Xoshiro256& rng) const {
  switch (kind) {
    case Kind::Uniform:
      return a + (b - a) * rng.uniform01();
    case Kind::Lognormal: {
      // Box–Muller over the shared stream: exactly two draws per sample.
      const double u1 = rng.uniform01();
      const double u2 = rng.uniform01();
      const double z = std::sqrt(-2.0 * std::log1p(-u1)) *
                       std::cos(2.0 * 3.141592653589793238462643 * u2);
      return std::exp(a + b * z);
    }
    case Kind::Pareto:
      return a / std::pow(1.0 - rng.uniform01(), 1.0 / b);
  }
  return a;  // unreachable
}

std::string Distribution::describe() const {
  switch (kind) {
    case Kind::Uniform:
      return "uniform:" + fmt_param(a) + "," + fmt_param(b);
    case Kind::Lognormal:
      return "lognormal:" + fmt_param(a) + "," + fmt_param(b);
    case Kind::Pareto:
      return "pareto:" + fmt_param(a) + "," + fmt_param(b);
  }
  return "uniform:0,0";  // unreachable
}

LatticeShape parse_lattice_shape(const std::string& spec) {
  if (spec == "chains") return LatticeShape::Chains;
  if (spec == "flat") return LatticeShape::Flat;
  if (spec == "mixed") return LatticeShape::Mixed;
  throw util::PreconditionError("unknown lattice shape '" + spec +
                                "' (known: chains, flat, mixed)");
}

const char* to_string(LatticeShape shape) {
  switch (shape) {
    case LatticeShape::Chains:
      return "chains";
    case LatticeShape::Flat:
      return "flat";
    case LatticeShape::Mixed:
      return "mixed";
  }
  return "mixed";  // unreachable
}

void GeneratorConfig::validate() const {
  RISPP_REQUIRE(!name.empty() &&
                    name.find_first_of(" \t#") == std::string::npos,
                "library name must be non-empty without whitespace or '#'");
  RISPP_REQUIRE(rotatable_atoms >= 1, "need at least one rotatable atom");
  RISPP_REQUIRE(sis >= 1, "need at least one SI");
  RISPP_REQUIRE(molecules_min >= 1 && molecules_min <= molecules_max,
                "need 1 <= molecules_min <= molecules_max");
  RISPP_REQUIRE(max_count >= 1, "max_count must be >= 1");
  // Re-check the distribution parameter ranges: configs assembled field by
  // field (CLI, sweep axes) bypass the factory functions.
  switch (bitstream.kind) {
    case Distribution::Kind::Uniform:
      (void)Distribution::uniform(bitstream.a, bitstream.b);
      break;
    case Distribution::Kind::Lognormal:
      (void)Distribution::lognormal(bitstream.a, bitstream.b);
      break;
    case Distribution::Kind::Pareto:
      (void)Distribution::pareto(bitstream.a, bitstream.b);
      break;
  }
  switch (speedup.kind) {
    case Distribution::Kind::Uniform:
      (void)Distribution::uniform(speedup.a, speedup.b);
      break;
    case Distribution::Kind::Lognormal:
      (void)Distribution::lognormal(speedup.a, speedup.b);
      break;
    case Distribution::Kind::Pareto:
      (void)Distribution::pareto(speedup.a, speedup.b);
      break;
  }
}

std::string GeneratorConfig::describe() const {
  return name + " seed=" + std::to_string(seed) + " atoms=" +
         std::to_string(rotatable_atoms) + "+" +
         std::to_string(static_atoms) + " sis=" + std::to_string(sis) +
         " molecules=" + std::to_string(molecules_min) + ".." +
         std::to_string(molecules_max) + " shape=" + to_string(shape) +
         " bitstream=" + bitstream.describe() +
         " speedup=" + speedup.describe() +
         " max_count=" + std::to_string(max_count);
}

namespace {

/// The quantities the per-SI Molecule builders share.
struct SiPlan {
  std::uint32_t software = 0;
  std::uint32_t fastest = 0;  ///< cycles of the fastest hardware Molecule
  std::uint32_t slowest = 0;  ///< cycles of the minimal hardware Molecule
  std::size_t molecules = 0;
};

std::uint32_t clamp_u32(double v, double lo, double hi) {
  return static_cast<std::uint32_t>(std::llround(std::clamp(v, lo, hi)));
}

/// Strictly decreasing cycle ladder from `slowest` down to `fastest` with
/// `n` rungs (fewer when the integer interval cannot hold n distinct
/// values).
std::vector<std::uint32_t> cycle_ladder(std::uint32_t slowest,
                                        std::uint32_t fastest,
                                        std::size_t n) {
  std::vector<std::uint32_t> cycles;
  if (n == 1 || slowest <= fastest) {
    cycles.push_back(fastest);
    return cycles;
  }
  n = std::min<std::size_t>(n, slowest - fastest + 1);
  for (std::size_t k = 0; k < n; ++k) {
    const double t = static_cast<double>(k) / static_cast<double>(n - 1);
    auto c = static_cast<std::uint32_t>(std::llround(
        static_cast<double>(slowest) -
        t * static_cast<double>(slowest - fastest)));
    if (!cycles.empty() && c >= cycles.back()) c = cycles.back() - 1;
    cycles.push_back(c);
  }
  return cycles;
}

/// Sprinkles static data movers over a Molecule: each mover appears with
/// count 1 with probability 1/2. Static components never affect container
/// pressure; they only make the Molecules look like Table 2's.
void add_movers(atom::Molecule& mol, std::size_t rotatable,
                std::size_t statics, util::Xoshiro256& rng) {
  for (std::size_t s = 0; s < statics; ++s)
    if (rng.chance(0.5)) mol.set(rotatable + s, 1);
}

}  // namespace

LibraryGenerator::LibraryGenerator(GeneratorConfig cfg)
    : cfg_(std::move(cfg)) {
  cfg_.validate();
}

SiLibrary LibraryGenerator::generate() const {
  util::Xoshiro256 rng(cfg_.seed);
  const std::size_t rot = cfg_.rotatable_atoms;
  const std::size_t dim = rot + cfg_.static_atoms;

  // --- Catalog: rotatable compute Atoms G*, static movers M*. Slices/LUTs
  // follow the sampled bitstream at the Table-1 density (~167 bytes/slice
  // for QuadSub), so the area model stays plausible across distributions.
  std::vector<AtomInfo> atoms;
  for (std::size_t a = 0; a < dim; ++a) {
    AtomInfo info;
    info.rotatable = a < rot;
    info.name = info.rotatable ? "G" : "M";
    info.name += std::to_string(info.rotatable ? a : a - rot);
    info.hardware.name = info.name;
    info.hardware.bitstream_bytes =
        clamp_u32(cfg_.bitstream.sample(rng), 1.0, 16.0 * 1024 * 1024);
    const auto slices = std::clamp<std::uint32_t>(
        static_cast<std::uint32_t>(info.hardware.bitstream_bytes / 167), 16,
        1024);
    info.hardware.slices = slices;
    info.hardware.luts = 2 * slices;
    atoms.push_back(std::move(info));
  }
  AtomCatalog catalog(std::move(atoms));

  // --- SIs. Each draws its latency envelope, then builds its Molecule set
  // in the configured lattice shape.
  std::vector<SpecialInstruction> sis;
  for (std::size_t s = 0; s < cfg_.sis; ++s) {
    SiPlan plan;
    plan.molecules =
        cfg_.molecules_min +
        rng.below(cfg_.molecules_max - cfg_.molecules_min + 1);
    plan.fastest = 5 + static_cast<std::uint32_t>(rng.below(56));
    const double speedup =
        std::clamp(cfg_.speedup.sample(rng), 1.1, 10000.0);
    plan.software = std::max<std::uint32_t>(
        plan.fastest + 1,
        clamp_u32(plan.fastest * speedup, 1.0, 4.0e9));
    // The minimal Molecule already beats software, by 20–70 % of the gap.
    const double frac = 0.2 + 0.5 * rng.uniform01();
    plan.slowest = std::max(
        plan.fastest,
        plan.software - 1 -
            static_cast<std::uint32_t>(
                frac * static_cast<double>(plan.software - 1 - plan.fastest)));

    const bool chain = cfg_.shape == LatticeShape::Chains ||
                       (cfg_.shape == LatticeShape::Mixed && rng.chance(0.5));

    std::vector<MoleculeOption> options;
    if (chain) {
      // Deep nested upgrade chain: start minimal, strictly grow. Capacity
      // rot*max_count bounds the chain length; the ladder is truncated to
      // the rungs actually reachable.
      atom::Molecule mol(dim);
      mol.set(rng.below(rot), 1);
      if (rot > 1 && rng.chance(0.5)) {
        const auto extra = rng.below(rot);
        mol.set(extra, std::max<atom::Count>(mol[extra], 1));
      }
      add_movers(mol, rot, cfg_.static_atoms, rng);
      const auto cycles = cycle_ladder(plan.slowest, plan.fastest,
                                       plan.molecules);
      for (std::size_t m = 0; m < cycles.size(); ++m) {
        options.push_back({mol, cycles[m]});
        if (m + 1 == cycles.size()) break;
        // Grow: bump a rotatable component below the ceiling. Bounded scan
        // keeps the draw count finite when the lattice is nearly full.
        bool grew = false;
        for (int attempt = 0; attempt < 16 && !grew; ++attempt) {
          const auto pick = rng.below(rot);
          if (mol[pick] < cfg_.max_count) {
            mol.set(pick, mol[pick] + 1);
            grew = true;
          }
        }
        if (!grew) {
          for (std::size_t a = 0; a < rot && !grew; ++a)
            if (mol[a] < cfg_.max_count) {
              mol.set(a, mol[a] + 1);
              grew = true;
            }
        }
        if (!grew) break;  // lattice saturated: chain ends here
      }
    } else {
      // Wide flat front: distinct rotatable compositions of one common
      // determinant — distinct equal-determinant vectors are pairwise
      // ≤-incomparable, so no option dominates another on Atoms.
      const std::uint64_t det =
          1 + rng.below(std::min<std::uint64_t>(
                  2 * cfg_.max_count,
                  static_cast<std::uint64_t>(rot) * cfg_.max_count));
      std::set<std::vector<atom::Count>> seen;
      const auto cycles = cycle_ladder(plan.slowest, plan.fastest,
                                       plan.molecules);
      for (std::size_t m = 0; m < cycles.size(); ++m) {
        bool placed = false;
        for (int attempt = 0; attempt < 32 && !placed; ++attempt) {
          std::vector<atom::Count> counts(rot, 0);
          std::vector<std::size_t> open;
          for (std::uint64_t unit = 0; unit < det; ++unit) {
            // Uniform pick among atoms with ceiling headroom; det is capped
            // at rot*max_count, so headroom exists until every unit lands —
            // the determinant is exactly det, which is what makes distinct
            // compositions pairwise ≤-incomparable.
            open.clear();
            for (std::size_t a = 0; a < rot; ++a)
              if (counts[a] < cfg_.max_count) open.push_back(a);
            ++counts[open[rng.below(open.size())]];
          }
          if (!seen.insert(counts).second) continue;  // composition reused
          atom::Molecule mol(dim);
          for (std::size_t a = 0; a < rot; ++a) mol.set(a, counts[a]);
          add_movers(mol, rot, cfg_.static_atoms, rng);
          options.push_back({std::move(mol), cycles[m]});
          placed = true;
        }
        if (!placed) break;  // composition space exhausted (tiny catalogs)
      }
    }
    sis.emplace_back("SI" + std::to_string(s), plan.software,
                     std::move(options));
  }
  return SiLibrary(std::move(catalog), std::move(sis));
}

}  // namespace rispp::isa
