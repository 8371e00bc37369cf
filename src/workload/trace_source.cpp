#include "rispp/workload/trace_source.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "rispp/sim/trace_io.hpp"
#include "rispp/util/error.hpp"

namespace rispp::workload {

namespace {

class FixedSource final : public TraceSource {
 public:
  FixedSource(std::vector<sim::TaskDef> tasks, std::string label)
      : tasks_(std::move(tasks)), label_(std::move(label)) {}

  std::vector<sim::TaskDef> tasks() const override { return tasks_; }
  std::string describe() const override {
    return label_ + " (" + std::to_string(tasks_.size()) + " fixed tasks)";
  }

 private:
  std::vector<sim::TaskDef> tasks_;
  std::string label_;
};

class ParsedSource final : public TraceSource {
 public:
  ParsedSource(std::vector<sim::TaskDef> tasks, std::string origin)
      : tasks_(std::move(tasks)), origin_(std::move(origin)) {}

  std::vector<sim::TaskDef> tasks() const override { return tasks_; }
  std::string describe() const override {
    return "trace text " + origin_ + " (" + std::to_string(tasks_.size()) +
           " tasks)";
  }

 private:
  std::vector<sim::TaskDef> tasks_;
  std::string origin_;
};

class PhasedSource final : public TraceSource {
 public:
  PhasedSource(PhasedWorkload workload, PhasedStats* stats)
      : workload_(std::move(workload)), stats_(stats) {}

  std::vector<sim::TaskDef> tasks() const override {
    return workload_.generate(stats_);
  }

  std::string describe() const override {
    const auto& cfg = workload_.config();
    return "phased workload " + cfg.name + " (" +
           std::to_string(cfg.tasks) + " tasks, " +
           std::to_string(cfg.phases.size()) + " phases, seed " +
           std::to_string(cfg.seed) + ")";
  }

 private:
  PhasedWorkload workload_;
  PhasedStats* stats_;
};

/// Same engine as PhasedSource, but the description names the derivation —
/// the config was computed from the library, not written by a user.
class GeneratedSource final : public TraceSource {
 public:
  GeneratedSource(PhasedWorkload workload, PhasedStats* stats)
      : workload_(std::move(workload)), stats_(stats) {}

  std::vector<sim::TaskDef> tasks() const override {
    return workload_.generate(stats_);
  }

  std::string describe() const override {
    const auto& cfg = workload_.config();
    return "generated workload over " +
           std::to_string(workload_.library().size()) + " SIs (" +
           std::to_string(cfg.tasks) + " tasks, " +
           std::to_string(cfg.phases.size()) + " sliding phases, seed " +
           std::to_string(cfg.seed) + ")";
  }

 private:
  PhasedWorkload workload_;
  PhasedStats* stats_;
};

}  // namespace

void TraceSource::add_to(sim::Simulator& sim) const {
  for (auto& task : tasks()) sim.add_task(std::move(task));
}

std::unique_ptr<TraceSource> TraceSource::make_fixed(
    std::vector<sim::TaskDef> tasks, std::string label) {
  return std::make_unique<FixedSource>(std::move(tasks), std::move(label));
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
  return std::make_unique<ParsedSource>(sim::parse_tasks(text, *lib),
                                        "string");
}

std::unique_ptr<TraceSource> TraceSource::make_from_file(
    const std::string& path, std::shared_ptr<const isa::SiLibrary> lib) {
  RISPP_REQUIRE(lib != nullptr, "trace-file source needs an SI library");
  std::ifstream in(path);
  if (!in.good())
    throw util::PreconditionError("cannot open trace file '" + path + "'");
  return std::make_unique<ParsedSource>(sim::parse_tasks(in, *lib), path);
}

std::unique_ptr<TraceSource> TraceSource::make_phased(PhasedWorkload workload,
                                                      PhasedStats* stats) {
  return std::make_unique<PhasedSource>(std::move(workload), stats);
}

std::unique_ptr<TraceSource> TraceSource::make_generated(
    std::shared_ptr<const isa::SiLibrary> lib,
    const GeneratedWorkloadParams& params, PhasedStats* stats) {
  RISPP_REQUIRE(lib != nullptr, "generated source needs an SI library");
  auto cfg = make_generated_config(*lib, params);
  return std::make_unique<GeneratedSource>(
      PhasedWorkload(std::move(cfg), std::move(lib)), stats);
}

}  // namespace rispp::workload
