/// The simulator against the reference host (tests/reference_host.hpp) on
/// faulty and generated-library runs, where rotations fail, containers back
/// off and quarantine, and the wakeup horizon must include backoff expiries:
///
///   * generated workloads on h264_frame × containers {4, 6, 8} × fault_p
///     {0, 0.05, 0.2} × retries {0, 3} × cancel_stale {0, 1};
///   * every genlib_fixture library (seeds 1–40) with its generated
///     workload × fault_p {0, 0.05, 0.2}.
///
/// A fault_p of p fails a transfer with probability p, poisons it with p/2
/// and degrades it with p/2. Each run must match the reference host as
/// expect_same_run() says.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "genlib_fixture.hpp"
#include "reference_host.hpp"
#include "rispp/hw/fault.hpp"
#include "rispp/isa/si_library.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/workload/trace_source.hpp"

namespace {

using rispp::hw::FaultModel;
using rispp::isa::SiLibrary;
using rispp::sim::SimConfig;
using rispp::workload::GeneratedWorkloadParams;
using rispp::workload::TraceSource;

constexpr double kFaultP[] = {0.0, 0.05, 0.2};

SimConfig faulty_config(unsigned containers, double fault_p, unsigned retries,
                        bool cancel_stale, std::uint64_t fault_seed) {
  SimConfig cfg;
  cfg.rt.atom_containers = containers;
  cfg.rt.faults =
      FaultModel::probabilistic(fault_seed, fault_p, fault_p / 2, fault_p / 2);
  cfg.rt.max_rotation_retries = retries;
  cfg.rt.cancel_stale_rotations = cancel_stale;
  return cfg;
}

/// Failed rotations and quarantines summed over a parameter's faulty runs,
/// so each case shows it reached the paths it is about.
struct FaultTally {
  std::uint64_t failed = 0;
  std::uint64_t quarantined = 0;

  void add(const reference_host::Compared& run) {
    failed += run.sim_counters.get("rotations_failed");
    quarantined += run.sim_counters.get("acs_quarantined");
  }
};

class H264FrameFaultMatrix : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(H264FrameFaultMatrix, SimulatorMatchesReferenceHost) {
  const std::uint64_t seed = GetParam();
  const auto lib = rispp::isa::share(SiLibrary::h264_frame());
  GeneratedWorkloadParams params;
  params.seed = seed;
  params.tasks = 2 + seed % 4;
  params.task_skew = seed % 2 ? 0.6 : 0.0;
  const auto tasks = TraceSource::make_generated(lib, params)->tasks();
  FaultTally tally;
  for (const unsigned containers : {4u, 6u, 8u})
    for (const double fault_p : kFaultP)
      for (const unsigned retries : {0u, 3u})
        for (const bool cancel_stale : {false, true}) {
          SCOPED_TRACE("containers=" + std::to_string(containers) +
                       " fault_p=" + std::to_string(fault_p) + " retries=" +
                       std::to_string(retries) +
                       " cancel_stale=" + std::to_string(cancel_stale));
          auto cfg = faulty_config(containers, fault_p, retries, cancel_stale,
                                   seed);
          cfg.quantum = seed % 2 ? 3000 : 10000;
          tally.add(reference_host::expect_same_run(lib, cfg, tasks));
        }
  EXPECT_GT(tally.failed, 0u);
  EXPECT_GT(tally.quarantined, 0u);
}

INSTANTIATE_TEST_SUITE_P(GeneratedWorkloads, H264FrameFaultMatrix,
                         ::testing::Range<std::uint64_t>(1, 9));

class GeneratedLibraryFaults : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(GeneratedLibraryFaults, SimulatorMatchesReferenceHost) {
  const std::uint64_t seed = GetParam();
  const auto lib = rispp::isa::share(genlib_fixture::generated_library(seed));
  GeneratedWorkloadParams params;
  params.seed = seed;
  const auto tasks = TraceSource::make_generated(lib, params)->tasks();
  for (const double fault_p : kFaultP) {
    SCOPED_TRACE("fault_p=" + std::to_string(fault_p));
    reference_host::expect_same_run(
        lib,
        faulty_config(2 + static_cast<unsigned>(seed % 5), fault_p,
                      static_cast<unsigned>(seed % 3), seed % 2 == 1, seed),
        tasks);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedLibraryFaults,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
