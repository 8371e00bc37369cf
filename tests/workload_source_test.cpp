/// The TraceSource seam: every producer behind one interface, and the
/// experiment engine running the phased generator as a sweep axis with
/// byte-identical results at any worker count.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "rispp/exp/platform.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/exp/sweep.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/sim/trace_io.hpp"
#include "rispp/util/error.hpp"
#include "rispp/workload/trace_source.hpp"

namespace {

using rispp::isa::SiLibrary;
using rispp::sim::TaskDef;
using rispp::sim::TraceOp;
using rispp::util::PreconditionError;
using rispp::workload::PhasedStats;
using rispp::workload::PhasedWorkload;
using rispp::workload::TraceSource;

std::string serialize(const std::vector<TaskDef>& tasks,
                      const SiLibrary& lib) {
  std::ostringstream out;
  rispp::sim::write_tasks(out, tasks, lib);
  return out.str();
}

TEST(TraceSource, FixedReturnsTheListVerbatim) {
  std::vector<TaskDef> tasks;
  tasks.push_back({"a", {TraceOp::compute(100), TraceOp::si(0, 4)}});
  tasks.push_back({"b", {TraceOp::compute(50)}});
  const auto source = TraceSource::make_fixed(tasks, "scenario");
  const auto got = source->tasks();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].name, "a");
  EXPECT_EQ(got[1].name, "b");
  ASSERT_EQ(got[0].trace.size(), 2u);
  EXPECT_EQ(got[0].trace[1].count, 4u);
  EXPECT_EQ(source->describe(), "scenario (2 fixed tasks)");
  // tasks() is pure: repeated calls keep handing out the same list.
  EXPECT_EQ(got.size(), source->tasks().size());
}

TEST(TraceSource, TextAndFileProducersAgree) {
  const auto lib = SiLibrary::h264();
  const std::string text =
      "task enc\n"
      "  forecast SATD_4x4 16 0.9\n"
      "  compute 1000\n"
      "  si SATD_4x4 16\n"
      "  release SATD_4x4\n"
      "task audio\n"
      "  compute 5000\n";
  const auto from_text = TraceSource::make_from_text(text, borrow(lib));

  const auto path =
      std::filesystem::path(::testing::TempDir()) / "source_test.trace";
  {
    std::ofstream out(path);
    out << text;
  }
  const auto from_file =
      TraceSource::make_from_file(path.string(), borrow(lib));
  EXPECT_EQ(serialize(from_text->tasks(), lib),
            serialize(from_file->tasks(), lib));
  EXPECT_EQ(from_text->tasks().size(), 2u);
}

TEST(TraceSource, MissingTraceFileThrows) {
  const auto lib = SiLibrary::h264();
  EXPECT_THROW(
      (void)TraceSource::make_from_file("/no/such/file.trace", borrow(lib)),
      PreconditionError);
}

TEST(TraceSource, PhasedSourceMatchesGenerateAndRefreshesStats) {
  const auto lib = SiLibrary::h264();
  const std::string config =
      "workload s\n  tasks 3\n  seed 5\n"
      "phase p\n  events 25\n  mix SATD_4x4 DCT_4x4\n  si_chooser uniform\n";
  auto workload = PhasedWorkload::from_string(config, borrow(lib));
  const auto direct = serialize(workload.generate(), lib);

  PhasedStats stats;
  const auto source =
      TraceSource::make_phased(std::move(workload), &stats);
  EXPECT_EQ(serialize(source->tasks(), lib), direct);
  EXPECT_EQ(stats.events, 25u);
  // Stats are refreshed, not accumulated, across tasks() calls.
  (void)source->tasks();
  EXPECT_EQ(stats.events, 25u);
  EXPECT_NE(source->describe().find("phased workload s"), std::string::npos);
}

TEST(TraceSource, AddToFeedsTheSimulatorLikeManualAddTask) {
  const auto lib = SiLibrary::h264();
  const std::string config =
      "workload s\n  tasks 4\n  seed 2\n"
      "phase p\n  events 40\n  mix SATD_4x4=2 HT_4x4\n";
  const auto run = [&](bool through_seam) {
    rispp::sim::SimConfig cfg;
    cfg.rt.atom_containers = 4;
    rispp::sim::Simulator sim(borrow(lib), cfg);
    const auto source = TraceSource::make_phased(
        PhasedWorkload::from_string(config, borrow(lib)));
    if (through_seam) {
      source->add_to(sim);
    } else {
      for (auto task : source->tasks()) sim.add_task(std::move(task));
    }
    return sim.run();
  };
  const auto a = run(true);
  const auto b = run(false);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.rotations, b.rotations);
}

TEST(StandardEvalPhased, SweepIsByteIdenticalAtAnyWorkerCount) {
  const auto platform = rispp::exp::Platform::builtin("h264");
  rispp::exp::Sweep sweep;
  sweep.axis("workload", {"phased"})
      .axis("wl_tasks", {"4", "8"})
      .axis("wl_events", {"60"})
      .axis("wl_skew", {"0", "0.9"})
      .axis("containers", {"3"});
  const auto serial = rispp::exp::run_sim_sweep(platform, sweep, 1);
  const auto parallel = rispp::exp::run_sim_sweep(platform, sweep, 4);
  EXPECT_EQ(serial.csv(), parallel.csv());
  EXPECT_EQ(serial.rows().size(), 4u);

  // Task skew is a real axis: the skewed points do not reproduce the
  // uniform points' cycle counts.
  EXPECT_NE(serial.rows().at(0).at("cycles"), serial.rows().at(1).at("cycles"));
}

TEST(StandardEvalPhased, SeedAxisRidesOnWlSeed) {
  const auto platform = rispp::exp::Platform::builtin("h264");
  rispp::exp::Sweep sweep;
  sweep.axis("workload", {"phased"})
      .axis("wl_tasks", {"4"})
      .axis("wl_events", {"50"})
      .axis("wl_seed", {"1", "2"});
  const auto table = rispp::exp::run_sim_sweep(platform, sweep, 2);
  ASSERT_EQ(table.rows().size(), 2u);
  EXPECT_NE(table.rows().at(0).at("cycles"), table.rows().at(1).at("cycles"));
}

TEST(StandardEvalPhased, ValidationRejectsBadParameters) {
  const auto check_throws = [](const char* axis, const char* value) {
    rispp::exp::Sweep sweep;
    sweep.axis("workload", {"phased"}).axis(axis, {value});
    EXPECT_THROW(rispp::exp::validate_sim_sweep(sweep), PreconditionError)
        << axis << "=" << value;
  };
  check_throws("wl_skew", "1.5");
  check_throws("wl_skew", "-0.1");
  check_throws("wl_tasks", "0");
  check_throws("wl_events", "0");
  check_throws("wl_rate", "0");

  rispp::exp::Sweep good;
  good.axis("workload", {"phased"}).axis("wl_skew", {"0.5"});
  EXPECT_NO_THROW(rispp::exp::validate_sim_sweep(good));
}

TEST(StandardEvalGenerated, LibAxesValidateUpFront) {
  // lib_* axes swap in a generated library, which only makes sense for the
  // synthetic workloads; pairing them with a builtin trace must fail in
  // validation (--dry-run), not midway through a sweep.
  rispp::exp::Sweep bad_workload;
  bad_workload.axis("workload", {"encdec"}).axis("lib_seed", {"3"});
  EXPECT_THROW(rispp::exp::validate_sim_sweep(bad_workload),
               PreconditionError);

  const auto check_throws = [](const char* axis, const char* value) {
    rispp::exp::Sweep sweep;
    sweep.axis("workload", {"generated"}).axis(axis, {value});
    EXPECT_THROW(rispp::exp::validate_sim_sweep(sweep), PreconditionError)
        << axis << "=" << value;
  };
  check_throws("lib_atoms", "0");
  check_throws("lib_sis", "0");
  check_throws("lib_shape", "spiral");
  check_throws("lib_bitstream", "nonsense(1,2)");

  rispp::exp::Sweep good;
  good.axis("workload", {"generated"})
      .axis("lib_seed", {"3"})
      .axis("lib_shape", {"chains"});
  EXPECT_NO_THROW(rispp::exp::validate_sim_sweep(good));
}

TEST(StandardEvalPhased, WconfigAxisLoadsAConfigFile) {
  const auto platform = rispp::exp::Platform::builtin("h264");
  rispp::exp::Sweep sweep;
  sweep.axis("workload", {"phased"})
      .axis("wconfig", {RISPP_TEST_DATA_DIR "/phased_small.workload"})
      .axis("wl_seed", {"7"})
      .axis("containers", {"4"});
  const auto table = rispp::exp::run_sim_sweep(platform, sweep, 1);
  ASSERT_EQ(table.rows().size(), 1u);
  EXPECT_GT(std::stoull(table.rows().at(0).at("cycles")), 0u);

  rispp::exp::Sweep missing;
  missing.axis("workload", {"phased"})
      .axis("wconfig", {"/no/such/config.workload"});
  EXPECT_THROW((void)rispp::exp::run_sim_sweep(platform, missing, 1),
               rispp::util::Error);
}

}  // namespace
