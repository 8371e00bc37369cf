/// Randomized stress testing of the run-time system: long sequences of
/// forecasts, releases, executions and polls at random times, against both
/// SI libraries and all victim policies, with the platform's structural
/// invariants checked after every step.
///
/// Invariants:
///  I1  committed atoms never exceed the container count,
///  I2  available ⊆ committed (an atom must be committed to be usable),
///  I3  execute() returns hardware only if a molecule is actually supported
///      by the available atoms, and the fastest such molecule,
///  I4  latencies are either the software molecule's or one of the
///      hardware molecules' — never anything else,
///  I5  every rotation finishes (no cancellation or faults here), and the
///      finishes on the obs::Event stream are ordered: the single
///      non-preemptive port serializes transfers.

#include <gtest/gtest.h>

#include "rispp/rt/manager.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/rng.hpp"
#include "rotation_lifecycle.hpp"

namespace {

using namespace rispp::rt;
using rispp::isa::SiLibrary;

struct StressCase {
  const char* library;
  unsigned containers;
  const char* policy;  ///< replacement factory key
  std::uint64_t seed;
};

// ctest names each case after its printed parameter. Without this, gtest
// would print the struct's raw bytes, pointers included, and the names
// would change from build to build.
void PrintTo(const StressCase& c, std::ostream* os) {
  *os << c.library << "-" << c.containers << "ac-" << c.policy << "-seed"
      << c.seed;
}

class RtStress : public ::testing::TestWithParam<StressCase> {};

SiLibrary make_library(const std::string& name) {
  if (name == "h264") return SiLibrary::h264();
  if (name == "frame") return SiLibrary::h264_frame();
  return SiLibrary::h264_with_sad();
}

TEST_P(RtStress, InvariantsHoldUnderRandomOperation) {
  const auto& param = GetParam();
  const auto lib = make_library(param.library);
  rispp::obs::TraceRecorder recorder;
  RtConfig cfg;
  cfg.atom_containers = param.containers;
  cfg.replacement_policy = param.policy;
  cfg.sink = &recorder;
  RisppManager mgr(borrow(lib), cfg);
  rispp::util::Xoshiro256 rng(param.seed);

  Cycle now = 0;
  for (int step = 0; step < 2000; ++step) {
    now += rng.below(20000);
    const auto si = static_cast<std::size_t>(rng.below(lib.size()));
    const int task = static_cast<int>(rng.below(3));
    const auto dice = rng.below(10);
    if (dice < 2) {
      mgr.forecast(si, 1.0 + static_cast<double>(rng.below(1000)),
                   0.1 + 0.9 * rng.uniform01(), now, task);
    } else if (dice < 3) {
      mgr.forecast_release(si, now, task);
    } else if (dice < 4) {
      mgr.poll(now);
    } else {
      const auto res = mgr.execute(si, now, task);
      const auto& instr = lib.at(si);
      // I4: the latency is a real molecule latency.
      if (res.hardware) {
        ASSERT_NE(res.molecule, nullptr);
        EXPECT_EQ(res.cycles, res.molecule->cycles);
        // I3: supported and fastest among supported.
        const auto avail = mgr.available_atoms(now);
        EXPECT_TRUE(lib.catalog().satisfied_by(res.molecule->atoms, avail));
        for (const auto& o : instr.options()) {
          if (lib.catalog().satisfied_by(o.atoms, avail)) {
            EXPECT_GE(o.cycles, res.cycles);
          }
        }
      } else {
        EXPECT_EQ(res.molecule, nullptr);
        EXPECT_EQ(res.cycles, instr.software_cycles());
      }
      now += res.cycles;
    }

    // I1: the containers can never hold more atoms than exist.
    const auto committed = mgr.committed_atoms();
    EXPECT_LE(committed.determinant(), param.containers);
    // I2: available ⊆ committed.
    EXPECT_TRUE(mgr.available_atoms(now).leq(committed));
  }

  // I5: rotation events are consistent.
  mgr.flush_events();
  rotation_lifecycle::check_rotation_lifecycle(recorder.events(), mgr);
  Cycle last_done = 0;
  for (const auto& e : recorder.events()) {
    if (e.kind != rispp::obs::EventKind::RotationFinished) continue;
    EXPECT_GE(e.at, last_done);  // port serializes transfers
    last_done = e.at;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtStress,
    ::testing::Values(
        StressCase{"h264", 1, "lru", 1},
        StressCase{"h264", 2, "lru", 2},
        StressCase{"h264", 4, "lru", 3},
        StressCase{"h264", 4, "mru", 4},
        StressCase{"h264", 4, "round-robin", 5},
        StressCase{"h264", 16, "lru", 6},
        StressCase{"sad", 4, "lru", 7},
        StressCase{"sad", 6, "mru", 8},
        StressCase{"frame", 4, "lru", 9},
        StressCase{"frame", 8, "lru", 10},
        StressCase{"frame", 12, "round-robin", 11},
        StressCase{"frame", 24, "lru", 12}));

TEST(SimStress, RandomTracesAreDeterministicAndConserveWork) {
  // Random multi-task traces: the simulator must (a) be bit-deterministic,
  // (b) conserve per-task busy cycles (sum == total on a single core), and
  // (c) report SI invocation counts matching the trace.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto lib = SiLibrary::h264();
    auto build = [&] {
      rispp::util::Xoshiro256 rng(seed);
      rispp::sim::SimConfig cfg;
      cfg.rt.atom_containers = 2 + rng.below(6);
      cfg.quantum = 1000 + rng.below(50000);
      rispp::sim::Simulator sim(borrow(lib), cfg);
      const int tasks = 1 + static_cast<int>(rng.below(3));
      for (int t = 0; t < tasks; ++t) {
        rispp::sim::Trace trace;
        const int ops = 10 + static_cast<int>(rng.below(40));
        for (int o = 0; o < ops; ++o) {
          const auto si = rng.below(lib.size());
          switch (rng.below(4)) {
            case 0: trace.push_back(rispp::sim::TraceOp::compute(1 + rng.below(30000))); break;
            case 1: trace.push_back(rispp::sim::TraceOp::si(si, 1 + rng.below(50))); break;
            case 2: trace.push_back(rispp::sim::TraceOp::forecast(si, 1.0 + static_cast<double>(rng.below(500)))); break;
            case 3: trace.push_back(rispp::sim::TraceOp::release(si)); break;
          }
        }
        sim.add_task({"t" + std::to_string(t), std::move(trace)});
      }
      return sim.run();
    };
    const auto a = build();
    const auto b = build();
    EXPECT_EQ(a.total_cycles, b.total_cycles) << "seed " << seed;
    EXPECT_EQ(a.rotations, b.rotations) << "seed " << seed;

    std::uint64_t busy = 0;
    for (const auto cycles : a.task_cycles) busy += cycles;
    EXPECT_EQ(busy, a.total_cycles) << "seed " << seed;

    for (const auto& [name, st] : a.per_si)
      EXPECT_EQ(st.invocations, st.hw_invocations + st.sw_invocations);
  }
}

}  // namespace
