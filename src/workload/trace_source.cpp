#include "rispp/workload/trace_source.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "rispp/sim/trace_io.hpp"
#include "rispp/util/error.hpp"

namespace rispp::workload {

namespace {

/// A task list built once: hand-written scenarios and parsed trace text.
class ListSource final : public TraceSource {
 public:
  ListSource(std::vector<sim::TaskDef> tasks, std::string description)
      : tasks_(std::move(tasks)), description_(std::move(description)) {}

  std::vector<sim::TaskDef> tasks() const override { return tasks_; }
  std::string describe() const override { return description_; }

 private:
  std::vector<sim::TaskDef> tasks_;
  std::string description_;
};

/// The phased generator, for user-written and library-derived configs
/// alike; the factory words the description.
class PhasedSource final : public TraceSource {
 public:
  PhasedSource(PhasedWorkload workload, PhasedStats* stats,
               std::string description)
      : workload_(std::move(workload)),
        stats_(stats),
        description_(std::move(description)) {}

  std::vector<sim::TaskDef> tasks() const override {
    return workload_.generate(stats_);
  }
  std::string describe() const override { return description_; }

 private:
  PhasedWorkload workload_;
  PhasedStats* stats_;
  std::string description_;
};

/// "(N tasks, M <phases>, seed S)" — the tail of both phased descriptions.
std::string phased_tail(const PhasedConfig& cfg, const char* phases) {
  return " (" + std::to_string(cfg.tasks) + " tasks, " +
         std::to_string(cfg.phases.size()) + " " + phases + ", seed " +
         std::to_string(cfg.seed) + ")";
}

/// "<prefix> (N tasks)" for a task list.
std::unique_ptr<TraceSource> make_list(std::vector<sim::TaskDef> tasks,
                                       const std::string& prefix,
                                       const char* noun) {
  auto description = prefix + " (" + std::to_string(tasks.size()) + " " +
                     noun + ")";
  return std::make_unique<ListSource>(std::move(tasks),
                                      std::move(description));
}

}  // namespace

void TraceSource::add_to(sim::Simulator& sim) const {
  for (auto& task : tasks()) sim.add_task(std::move(task));
}

std::unique_ptr<TraceSource> TraceSource::make_fixed(
    std::vector<sim::TaskDef> tasks, std::string label) {
  return make_list(std::move(tasks), label, "fixed tasks");
}

std::unique_ptr<TraceSource> TraceSource::make_fig06(
    const isa::SiLibrary& lib) {
  using sim::TraceOp;
  const auto satd = lib.index_of("SATD_4x4");
  const auto si0 = lib.index_of("HT_2x2");
  const auto si1 = lib.index_of("HT_4x4");

  sim::Trace a;
  a.push_back(TraceOp::label("T0: steady state — A forecasts SATD_4x4"));
  a.push_back(TraceOp::forecast(satd, 5000));
  for (int i = 0; i < 120; ++i) {
    a.push_back(TraceOp::compute(10000));
    a.push_back(TraceOp::si(satd, 50));
  }

  sim::Trace b;
  b.push_back(TraceOp::forecast(si0, 50));
  b.push_back(TraceOp::compute(700000));  // let T0 settle
  b.push_back(TraceOp::si(si0, 20));
  b.push_back(TraceOp::label("T1: B forecasts the more important SI1"));
  b.push_back(TraceOp::forecast(si1, 2000000));
  for (int i = 0; i < 8; ++i) {
    b.push_back(TraceOp::compute(40000));
    b.push_back(TraceOp::si(si1, 100));
  }
  b.push_back(TraceOp::label("T2: forecast states SI1 no longer needed"));
  b.push_back(TraceOp::release(si1));
  b.push_back(TraceOp::label("T3: B's SI0 reuses containers now owned by A"));
  b.push_back(TraceOp::si(si0, 20));

  return make_fixed({{"A", std::move(a)}, {"B", std::move(b)}}, "fig06");
}

std::unique_ptr<TraceSource> TraceSource::make_from_text(
    const std::string& text, std::shared_ptr<const isa::SiLibrary> lib) {
  RISPP_REQUIRE(lib != nullptr, "trace-text source needs an SI library");
  return make_list(sim::parse_tasks(text, *lib), "trace text string", "tasks");
}

std::unique_ptr<TraceSource> TraceSource::make_from_file(
    const std::string& path, std::shared_ptr<const isa::SiLibrary> lib) {
  RISPP_REQUIRE(lib != nullptr, "trace-file source needs an SI library");
  std::ifstream in(path);
  if (!in.good())
    throw util::PreconditionError("cannot open trace file '" + path + "'");
  return make_list(sim::parse_tasks(in, *lib), "trace text " + path, "tasks");
}

std::unique_ptr<TraceSource> TraceSource::make_phased(PhasedWorkload workload,
                                                      PhasedStats* stats) {
  auto description = "phased workload " + workload.config().name +
                     phased_tail(workload.config(), "phases");
  return std::make_unique<PhasedSource>(std::move(workload), stats,
                                        std::move(description));
}

std::unique_ptr<TraceSource> TraceSource::make_generated(
    std::shared_ptr<const isa::SiLibrary> lib,
    const GeneratedWorkloadParams& params, PhasedStats* stats) {
  RISPP_REQUIRE(lib != nullptr, "generated source needs an SI library");
  PhasedWorkload workload(make_generated_config(*lib, params), lib);
  auto description = "generated workload over " + std::to_string(lib->size()) +
                     " SIs" + phased_tail(workload.config(), "sliding phases");
  return std::make_unique<PhasedSource>(std::move(workload), stats,
                                        std::move(description));
}

}  // namespace rispp::workload
