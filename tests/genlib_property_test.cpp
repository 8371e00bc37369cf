/// Property-fuzz harness over generated SI libraries (ISSUE: break free of
/// Table 2). Hundreds of seeded isa::LibraryGenerator libraries — the full
/// genlib_fixture matrix of shapes, sizes and distribution families — run
/// through:
///
///   * structural invariants (valid SiLibrary, clamps honoured, Molecule
///     dimensions/counts in range, hardware always beats software),
///   * the lattice-shape contracts (chains totally ordered with strictly
///     decreasing latency; flat fronts pairwise ≤-incomparable; mixed is
///     per-SI one of the two),
///   * isa::io round-trips (generate → write → parse → write byte-identical,
///     and generate() itself is byte-deterministic),
///   * the platform fault invariants I1–I5 (fault_invariant_test.cpp) with
///     randomized manager workloads over every selection × replacement
///     policy combination,
///   * a --jobs differential through the exp:: engine (workload=generated +
///     lib_* axes): worker count must leak into neither the result table
///     nor the per-point run reports.
///
/// Every check runs under SCOPED_TRACE carrying the seed and the full
/// generator parameter line, so a failure names its reproduction.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "genlib_fixture.hpp"
#include "rispp/exp/platform.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/hw/fault.hpp"
#include "rispp/isa/io.hpp"
#include "rispp/rt/manager.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/sim/trace_io.hpp"
#include "rispp/util/rng.hpp"
#include "rispp/workload/trace_source.hpp"
#include "rotation_lifecycle.hpp"

namespace {

using genlib_fixture::generated_library;
using genlib_fixture::matrix_config;
using rispp::atom::Molecule;
using rispp::isa::LatticeShape;
using rispp::isa::LibraryGenerator;
using rispp::isa::SiLibrary;
using rispp::rt::Cycle;
using rispp::rt::RisppManager;
using rispp::rt::RtConfig;

constexpr std::uint64_t kSeedBegin = 1;
constexpr std::uint64_t kSeedEnd = 201;  // 200 libraries per suite

std::string trace_label(std::uint64_t seed) {
  return "seed=" + std::to_string(seed) + " [" +
         matrix_config(seed).describe() + "]";
}

TEST(GenlibProperty, StructuralInvariantsAcrossSeedMatrix) {
  for (std::uint64_t seed = kSeedBegin; seed < kSeedEnd; ++seed) {
    SCOPED_TRACE(trace_label(seed));
    const auto cfg = matrix_config(seed);
    const auto lib = generated_library(seed);
    const auto& cat = lib.catalog();

    ASSERT_EQ(cat.size(), cfg.rotatable_atoms + cfg.static_atoms);
    ASSERT_EQ(lib.size(), cfg.sis);
    for (std::size_t a = 0; a < cat.size(); ++a) {
      const auto& info = cat.at(a);
      EXPECT_EQ(info.rotatable, a < cfg.rotatable_atoms);
      EXPECT_EQ(info.name,
                (info.rotatable ? "G" : "M") +
                    std::to_string(info.rotatable ? a
                                                  : a - cfg.rotatable_atoms));
      EXPECT_GE(info.hardware.bitstream_bytes, 1u);
      EXPECT_LE(info.hardware.bitstream_bytes, 16u * 1024 * 1024);
      EXPECT_GE(info.hardware.slices, 16u);
      EXPECT_LE(info.hardware.slices, 1024u);
      EXPECT_EQ(info.hardware.luts, 2 * info.hardware.slices);
    }

    for (const auto& si : lib.sis()) {
      SCOPED_TRACE(si.name());
      ASSERT_GE(si.options().size(), 1u);
      EXPECT_LE(si.options().size(), cfg.molecules_max);
      for (const auto& opt : si.options()) {
        ASSERT_EQ(opt.atoms.dimension(), cat.size());
        EXPECT_GT(opt.cycles, 0u);
        EXPECT_LT(opt.cycles, si.software_cycles())
            << "a hardware Molecule must beat the software routine";
        // At least one rotatable Atom — otherwise the option would be free
        // hardware and the Pareto front degenerate.
        EXPECT_GE(cat.rotatable_determinant(opt.atoms), 1u);
        for (std::size_t a = 0; a < cat.size(); ++a) {
          EXPECT_LE(opt.atoms[a], cfg.max_count);
          if (!cat.at(a).rotatable) {
            EXPECT_LE(opt.atoms[a], 1u);
          }
        }
      }
      // The Pareto front machinery accepts the SI (non-empty by I5's
      // software fallback plus at least one hardware option).
      EXPECT_GE(si.pareto_front(cat).size(), 1u);
      EXPECT_GT(si.max_speedup(), 1.0);
    }
  }
}

/// One SI's options form a nested ≤-chain with strictly decreasing cycles.
bool is_upgrade_chain(const SiLibrary& lib,
                      const rispp::isa::SpecialInstruction& si) {
  for (std::size_t m = 1; m < si.options().size(); ++m) {
    if (!si.options()[m - 1].atoms.leq(si.options()[m].atoms)) return false;
    if (si.options()[m].cycles >= si.options()[m - 1].cycles) return false;
  }
  (void)lib;
  return true;
}

/// One SI's options are pairwise ≤-incomparable on their rotatable parts.
bool is_flat_front(const SiLibrary& lib,
                   const rispp::isa::SpecialInstruction& si) {
  const auto& cat = lib.catalog();
  for (std::size_t i = 0; i < si.options().size(); ++i)
    for (std::size_t j = i + 1; j < si.options().size(); ++j) {
      const auto a = cat.project_rotatable(si.options()[i].atoms);
      const auto b = cat.project_rotatable(si.options()[j].atoms);
      if (a.leq(b) || b.leq(a)) return false;
    }
  return true;
}

TEST(GenlibProperty, ShapeGovernsTheMoleculeLattice) {
  for (std::uint64_t seed = kSeedBegin; seed < kSeedEnd; ++seed) {
    SCOPED_TRACE(trace_label(seed));
    const auto cfg = matrix_config(seed);
    const auto lib = generated_library(seed);
    for (const auto& si : lib.sis()) {
      SCOPED_TRACE(si.name());
      const bool chain = is_upgrade_chain(lib, si);
      const bool flat = is_flat_front(lib, si);
      switch (cfg.shape) {
        case LatticeShape::Chains:
          EXPECT_TRUE(chain) << "chains library grew a non-nested SI";
          break;
        case LatticeShape::Flat:
          EXPECT_TRUE(flat) << "flat library grew comparable options";
          break;
        case LatticeShape::Mixed:
          EXPECT_TRUE(chain || flat)
              << "mixed SI is neither a chain nor a flat front";
          break;
      }
    }
  }
}

TEST(GenlibProperty, GenerationAndIoAreByteDeterministic) {
  for (std::uint64_t seed = kSeedBegin; seed < kSeedEnd; ++seed) {
    SCOPED_TRACE(trace_label(seed));
    const auto cfg = matrix_config(seed);
    const auto text = rispp::isa::write_si_library(generated_library(seed));
    // Determinism: a fresh generator instance reproduces the bytes.
    EXPECT_EQ(text,
              rispp::isa::write_si_library(LibraryGenerator(cfg).generate()));
    // io round-trip: save → load → save is byte-identical.
    const auto reparsed = rispp::isa::parse_si_library(text);
    EXPECT_EQ(text, rispp::isa::write_si_library(reparsed));
    EXPECT_EQ(reparsed.size(), cfg.sis);
    EXPECT_EQ(reparsed.catalog().size(),
              cfg.rotatable_atoms + cfg.static_atoms);
  }
}

// --- I1–I5 under faults, generated libraries -----------------------------
// The harness mirrors fault_invariant_test.cpp (which pins the H.264
// library); here every seed also picks its own selection × replacement
// policies so the invariants hold for every registered combination.

void check_platform_invariants(RisppManager& mgr, Cycle now) {
  const auto capacity = mgr.containers().size();
  ASSERT_LE(mgr.committed_atoms().determinant(), capacity)
      << "I1: committed atoms exceed the container capacity at " << now;
  ASSERT_TRUE(mgr.available_atoms(now).leq(mgr.committed_atoms()))
      << "available atoms not covered by the committed view at " << now;
}

Cycle drain(RisppManager& mgr, Cycle from) {
  Cycle t = from;
  for (int guard = 0; guard < 20000; ++guard) {
    const auto wake = mgr.next_wakeup(t);
    if (!wake) return t;
    if (*wake <= t) {
      ADD_FAILURE() << "I3: wakeup does not advance the clock";
      return t;
    }
    t = *wake;
    mgr.poll(t);
    check_platform_invariants(mgr, t);
  }
  ADD_FAILURE() << "drain did not terminate — retry loop never settles";
  return t;
}

TEST(GenlibProperty, FaultInvariantsAcrossPoliciesAndShapes) {
  static const char* kReplacement[] = {"lru", "mru", "round-robin"};
  for (std::uint64_t seed = kSeedBegin; seed < kSeedEnd; ++seed) {
    const auto lib = generated_library(seed);
    rispp::obs::TraceRecorder recorder;
    RtConfig cfg;
    cfg.sink = &recorder;
    cfg.atom_containers = 3 + static_cast<unsigned>(seed % 5);
    cfg.faults = rispp::hw::FaultModel::probabilistic(seed, 0.12, 0.05, 0.10,
                                                      2.0);
    cfg.max_rotation_retries = static_cast<unsigned>(seed % 4);
    cfg.retry_backoff_cycles = 500;
    // Exhaustive selection enumerates Molecule combinations; keep it to the
    // small libraries and let greedy carry the big ones.
    cfg.selection_policy =
        (seed % 5 == 0 && lib.size() <= 3) ? "exhaustive" : "greedy";
    cfg.replacement_policy = kReplacement[seed % 3];
    SCOPED_TRACE(trace_label(seed) + " containers=" +
                 std::to_string(cfg.atom_containers) + " sel=" +
                 cfg.selection_policy + " rep=" + cfg.replacement_policy +
                 " retries=" + std::to_string(cfg.max_rotation_retries));

    RisppManager mgr(rispp::isa::borrow(lib), cfg);
    rispp::util::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ull);
    Cycle now = 0;
    std::vector<std::size_t> forecasted;
    for (int op = 0; op < 120; ++op) {
      now += 1 + rng.below(20000);  // I3 by construction
      const auto si = static_cast<std::size_t>(rng.below(lib.size()));
      switch (rng.below(4)) {
        case 0:
          mgr.forecast(si, 100 + rng.below(5000), 1.0, now);
          forecasted.push_back(si);
          break;
        case 1: {
          const auto r = mgr.execute(si, now);
          ASSERT_GT(r.cycles, 0u) << "I5: SI " << si << " not executable";
          if (r.hardware) {
            ASSERT_NE(r.molecule, nullptr);
            const auto needed =
                lib.catalog().project_rotatable(r.molecule->atoms);
            ASSERT_TRUE(needed.leq(mgr.available_atoms(now)))
                << "I2: hardware Molecule not implementable at " << now;
          }
          break;
        }
        case 2:
          if (!forecasted.empty()) {
            const auto idx = rng.below(forecasted.size());
            mgr.forecast_release(forecasted[idx], now);
            forecasted.erase(forecasted.begin() +
                             static_cast<std::ptrdiff_t>(idx));
          }
          break;
        default:
          mgr.poll(now);
          break;
      }
      check_platform_invariants(mgr, now);
    }

    const auto end = drain(mgr, now);
    mgr.flush_events();
    rotation_lifecycle::check_rotation_lifecycle(recorder.events(), mgr);
    for (std::size_t si = 0; si < lib.size(); ++si) {
      const auto r = mgr.execute(si, end + 1 + si);
      EXPECT_GT(r.cycles, 0u) << "I5: SI " << si << " lost its fallback";
    }
    unsigned quarantined = 0;
    for (unsigned c = 0; c < mgr.containers().size(); ++c)
      if (mgr.containers().at(c).quarantined) ++quarantined;
    EXPECT_EQ(mgr.counters().get("acs_quarantined"), quarantined);
  }
}

// --- jobs differential through the exp engine ----------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(GenlibDifferential, WorkerCountLeaksIntoNothing) {
  const auto platform = rispp::exp::Platform::builtin("h264");
  const auto dir1 = testing::TempDir() + "genlib_jobs1";
  const auto dir4 = testing::TempDir() + "genlib_jobs4";
  for (const auto& d : {dir1, dir4}) {
    std::error_code ec;
    std::filesystem::create_directories(d, ec);
    ASSERT_FALSE(ec) << d;
  }

  const auto sweep_for = [](const std::string& report_dir) {
    rispp::exp::Sweep sweep;
    sweep.axis("workload", {"generated"})
        .axis("lib_shape", {"chains", "flat", "mixed"})
        .axis("lib_seed", {"21", "22", "23"})
        .axis("containers", {"5"})
        .axis("wl_tasks", {"3"})
        .axis("wl_events", {"40"})
        .axis("wl_seed", {"77"})
        .axis("report_dir", {report_dir});
    return sweep;
  };

  // Same generator seeds, jobs 1 vs 4: the rendered table must match cell
  // for cell once the (intentionally different) report_dir axis column is
  // removed, and every per-point run report must be byte-identical.
  const auto serial =
      rispp::exp::run_sim_sweep(platform, sweep_for(dir1), 1);
  const auto parallel =
      rispp::exp::run_sim_sweep(platform, sweep_for(dir4), 4);
  ASSERT_EQ(serial.rows().size(), parallel.rows().size());
  const auto without_report_dir = [](const rispp::exp::ResultRow& row) {
    std::vector<std::pair<std::string, std::string>> cells;
    for (const auto& cell : row.cells)
      if (cell.first != "report_dir") cells.push_back(cell);
    return cells;
  };
  for (std::size_t i = 0; i < serial.rows().size(); ++i) {
    EXPECT_EQ(serial.rows()[i].point, parallel.rows()[i].point);
    EXPECT_EQ(serial.rows()[i].seed, parallel.rows()[i].seed);
    EXPECT_EQ(without_report_dir(serial.rows()[i]),
              without_report_dir(parallel.rows()[i]))
        << "row " << i << " differs across --jobs";
  }
  for (std::size_t i = 0; i < serial.rows().size(); ++i) {
    const auto name = "/point_" + std::to_string(i) + ".report.json";
    EXPECT_EQ(slurp(dir1 + name), slurp(dir4 + name))
        << "run report " << i << " differs across --jobs";
  }
}

/// The generated TraceSource honours the seam contract: tasks() is pure,
/// and the emitted workload exercises forecasts and releases over the
/// generated SI names.
TEST(GenlibProperty, GeneratedWorkloadIsPureAndForecastAnnotated) {
  for (std::uint64_t seed : {5ull, 50ull, 150ull}) {
    SCOPED_TRACE(trace_label(seed));
    auto lib_ptr = rispp::isa::share(generated_library(seed));
    rispp::workload::GeneratedWorkloadParams params;
    params.seed = seed;
    params.tasks = 3;
    params.events_per_phase = 60;
    params.task_skew = 0.5;
    rispp::workload::PhasedStats stats;
    const auto source = rispp::workload::TraceSource::make_generated(
        lib_ptr, params, &stats);
    const auto once = source->tasks();
    const auto twice = source->tasks();
    ASSERT_EQ(once.size(), params.tasks);
    std::ostringstream first, second;
    rispp::sim::write_tasks(first, once, *lib_ptr);
    rispp::sim::write_tasks(second, twice, *lib_ptr);
    EXPECT_EQ(first.str(), second.str()) << "tasks() is not pure";
    EXPECT_GT(stats.si_invocations, 0u);
    EXPECT_GT(stats.forecasts, 0u);
    EXPECT_EQ(stats.phases.size(), params.phases);
    EXPECT_GT(stats.releases, 0u);
  }
}

}  // namespace
