/// contention_scaling — many-task contention on the single reconfiguration
/// port, driven by the phased workload generator.
///
/// The paper's scenarios stop at two tasks; this family pushes the run-time
/// system into the hundreds-to-thousands regime where the port becomes the
/// bottleneck. Four sections, all over the same two-phase workload (a
/// zipf-skewed load phase whose SI ranking flips in the second phase — the
/// "hot spot moved" moment rotation exists for):
///
///   scaling     task count 64 → 1024 at fixed total events: tail latency
///               and port utilization as contention widens
///   skew        task-chooser shapes (uniform / zipfian / hotset) at the
///               largest task count: what arrival skew does to the tail
///   saturation  arrival-rate multiplier sweep: the first rate whose port
///               utilization crosses the threshold is the saturation point
///   quarantine  the same load under a probabilistic fault model: failed
///               rotations, quarantined containers, and the tail penalty
///
///   contention_scaling [--tasks=N] [--events=N] [--out=FILE]
///
/// Output: BENCH_contention.json with every section's rows (tail-latency
/// brackets from util::LogHistogram, port busy/utilization, fault counters).
/// Defaults run 512 concurrent tasks at the top of the scaling axis.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "rispp/hw/fault.hpp"
#include "rispp/isa/si_library.hpp"
#include "rispp/obs/event.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/parse.hpp"
#include "rispp/util/stats.hpp"
#include "rispp/util/table.hpp"
#include "rispp/workload/trace_source.hpp"

namespace {

using rispp::isa::SiLibrary;
using rispp::util::TextTable;
using rispp::workload::Chooser;
using rispp::workload::ChooserSpec;
using rispp::workload::PhaseConfig;
using rispp::workload::PhasedConfig;
using rispp::workload::PhasedWorkload;
using rispp::workload::TraceSource;

/// Streams the run into the contention metrics: SI latency and port-queueing
/// histograms, port busy time, and the fault counters.
class ContentionSink final : public rispp::obs::EventSink {
 public:
  void on_event(const rispp::obs::Event& e) override {
    using rispp::obs::EventKind;
    switch (e.kind) {
      case EventKind::SiExecuted:
        latency.add(e.cycles);
        ++(e.hardware ? hw : sw);
        break;
      case EventKind::RotationStarted:
        // `prev_cycles` is the booking cycle: `at` minus it is how long the
        // transfer waited for the port; `cycles` is the transfer itself.
        queueing.add(e.at - e.prev_cycles);
        port_busy += e.cycles;
        break;
      case EventKind::RotationFailed:
        ++failed;
        break;
      case EventKind::AcQuarantined:
        ++quarantined;
        break;
      default:
        break;
    }
  }

  rispp::util::LogHistogram latency;
  rispp::util::LogHistogram queueing;
  std::uint64_t port_busy = 0;
  std::uint64_t hw = 0, sw = 0;
  std::uint64_t failed = 0, quarantined = 0;
};

struct RunMetrics {
  std::uint64_t tasks = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t rotations = 0;
  std::uint64_t si_hw = 0, si_sw = 0;
  std::uint64_t failed = 0, quarantined = 0;
  double utilization = 0.0;   ///< port busy / total cycles
  double queue_mean = 0.0;    ///< mean port-queueing delay [cycles]
  double lat_mean = 0.0;
  std::uint64_t lat_p50 = 0;  ///< histogram-bracket upper bounds
  std::uint64_t lat_p95 = 0;
  std::uint64_t lat_p99 = 0;
};

std::uint64_t pct_upper(const rispp::util::LogHistogram& h, double q) {
  return h.total() == 0
             ? 0
             : static_cast<std::uint64_t>(h.percentile(q).upper);
}

RunMetrics run_point(const SiLibrary& lib, PhasedConfig cfg,
                     unsigned containers,
                     const rispp::hw::FaultModel* faults = nullptr,
                     unsigned retries = 3) {
  RunMetrics m;
  m.tasks = cfg.tasks;
  ContentionSink sink;
  rispp::sim::SimConfig scfg;
  scfg.rt.atom_containers = containers;
  scfg.rt.sink = &sink;
  scfg.quantum = 5000;
  scfg.rt.max_rotation_retries = retries;
  if (faults) scfg.rt.faults = *faults;
  rispp::sim::Simulator sim(borrow(lib), scfg);
  TraceSource::make_phased(PhasedWorkload(std::move(cfg), borrow(lib)))
      ->add_to(sim);
  const auto r = sim.run();

  m.total_cycles = r.total_cycles;
  m.rotations = r.rotations;
  m.si_hw = sink.hw;
  m.si_sw = sink.sw;
  m.failed = sink.failed;
  m.quarantined = sink.quarantined;
  m.utilization = r.total_cycles
                      ? static_cast<double>(sink.port_busy) / r.total_cycles
                      : 0.0;
  m.queue_mean = sink.queueing.total() ? sink.queueing.mean() : 0.0;
  m.lat_mean = sink.latency.total() ? sink.latency.mean() : 0.0;
  m.lat_p50 = pct_upper(sink.latency, 0.50);
  m.lat_p95 = pct_upper(sink.latency, 0.95);
  m.lat_p99 = pct_upper(sink.latency, 0.99);
  return m;
}

/// The family's base workload: a zipf-skewed load phase over every SI the
/// library offers, then a half-length phase whose mix order is reversed —
/// the zipfian rank flip retargets the hot SIs and forces re-rotation.
PhasedConfig base_config(const SiLibrary& lib, std::uint64_t tasks,
                         std::uint64_t events) {
  PhasedConfig cfg;
  cfg.name = "contention";
  cfg.tasks = tasks;
  cfg.seed = 42;

  PhaseConfig load;
  load.name = "load";
  load.events = events;
  for (const auto& si : lib.sis()) load.mix.emplace_back(si.name(), 1.0);
  load.si_chooser.kind = Chooser::Kind::Zipfian;
  load.si_chooser.theta = 0.9;
  load.compute_min = 3000;
  load.compute_max = 9000;
  load.si_count = 4;

  PhaseConfig shift = load;
  shift.name = "shift";
  shift.events = std::max<std::uint64_t>(1, events / 2);
  std::reverse(shift.mix.begin(), shift.mix.end());
  shift.rate_begin = 1.0;
  shift.rate_end = 3.0;

  cfg.phases = {std::move(load), std::move(shift)};
  return cfg;
}

std::string fmt(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

std::string json_row(const RunMetrics& m, const std::string& axis,
                     const std::string& value) {
  std::ostringstream out;
  out << "    {\"" << axis << "\": " << value;
  if (axis != "tasks") out << ", \"tasks\": " << m.tasks;
  out << ", \"cycles\": " << m.total_cycles
      << ", \"rotations\": " << m.rotations << ", \"si_hw\": " << m.si_hw
      << ", \"si_sw\": " << m.si_sw
      << ", \"port_utilization\": " << fmt(m.utilization, 4)
      << ", \"queue_mean\": " << fmt(m.queue_mean, 1)
      << ", \"latency_mean\": " << fmt(m.lat_mean, 1)
      << ", \"latency_p50\": " << m.lat_p50
      << ", \"latency_p95\": " << m.lat_p95
      << ", \"latency_p99\": " << m.lat_p99
      << ", \"rotations_failed\": " << m.failed
      << ", \"acs_quarantined\": " << m.quarantined << "}";
  return out.str();
}

void print_row(TextTable& t, const std::string& head, const RunMetrics& m) {
  t.add_row({head, TextTable::grouped(static_cast<long long>(m.total_cycles)),
             std::to_string(m.rotations), fmt(m.utilization, 3),
             fmt(m.lat_mean, 1), std::to_string(m.lat_p95),
             std::to_string(m.lat_p99),
             fmt(m.si_hw + m.si_sw
                     ? 100.0 * m.si_hw / (m.si_hw + m.si_sw)
                     : 0.0, 1) + "%"});
}

}  // namespace

int main(int argc, char** argv) try {
  std::uint64_t max_tasks = 512;
  std::uint64_t events = 3000;
  std::string out_path = "BENCH_contention.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--tasks=", 0) == 0)
      max_tasks = rispp::util::require_number<std::uint64_t>(arg.substr(8),
                                                             "--tasks");
    else if (arg.rfind("--events=", 0) == 0)
      events = rispp::util::require_number<std::uint64_t>(arg.substr(9),
                                                          "--events");
    else if (arg.rfind("--out=", 0) == 0)
      out_path = arg.substr(6);
    else {
      std::cerr << "usage: contention_scaling [--tasks=N] [--events=N] "
                   "[--out=FILE]\n";
      return 2;
    }
  }

  // The frame-level library: nine SIs competing for four containers — the
  // working set genuinely does not fit, so rotation churn is structural.
  const auto lib = rispp::isa::SiLibrary::h264_frame();
  const unsigned containers = 4;

  // Section 1 — task scaling at a fixed total event count: the same load
  // spread over ever more tasks, every one competing for 4 containers.
  std::vector<std::uint64_t> task_axis;
  for (std::uint64_t t = std::max<std::uint64_t>(1, max_tasks / 8);
       t < max_tasks; t *= 2)
    task_axis.push_back(t);
  task_axis.push_back(max_tasks);

  TextTable scaling{"tasks", "cycles", "rotations", "port util",
                    "lat mean", "lat p95", "lat p99", "hw"};
  scaling.set_title("Task scaling (" + std::to_string(events) +
                    " events, 4 atom containers)");
  std::vector<RunMetrics> scaling_rows;
  for (const auto t : task_axis) {
    scaling_rows.push_back(run_point(lib, base_config(lib, t, events),
                                     containers));
    print_row(scaling, std::to_string(t), scaling_rows.back());
  }
  std::cout << scaling.str() << "\n";

  // Section 2 — arrival skew at the largest task count: who sends matters
  // as much as how much.
  const std::vector<std::pair<std::string, ChooserSpec>> skews = {
      {"uniform", ChooserSpec{Chooser::Kind::Uniform}},
      {"zipfian 0.5", [] { ChooserSpec s{Chooser::Kind::Zipfian};
                           s.theta = 0.5; return s; }()},
      {"zipfian 0.9", [] { ChooserSpec s{Chooser::Kind::Zipfian};
                           s.theta = 0.9; return s; }()},
      {"zipfian 0.99", [] { ChooserSpec s{Chooser::Kind::Zipfian};
                            s.theta = 0.99; return s; }()},
      {"hotset 0.1 0.9", [] { ChooserSpec s{Chooser::Kind::HotSet};
                              s.hot_fraction = 0.1;
                              s.hot_probability = 0.9; return s; }()},
  };
  TextTable skew_t{"task chooser", "cycles", "rotations", "port util",
                   "lat mean", "lat p95", "lat p99", "hw"};
  skew_t.set_title("Arrival skew at " + std::to_string(max_tasks) + " tasks");
  std::vector<std::pair<std::string, RunMetrics>> skew_rows;
  for (const auto& [name, spec] : skews) {
    auto cfg = base_config(lib, max_tasks, events);
    cfg.task_chooser = spec;
    skew_rows.emplace_back(name, run_point(lib, std::move(cfg), containers));
    print_row(skew_t, name, skew_rows.back().second);
  }
  std::cout << skew_t.str() << "\n";

  // Section 3 — arrival-rate multiplier sweep: compute gaps shrink, the
  // port's share of the run grows. The saturation point is the first
  // multiplier whose port utilization crosses the threshold.
  const double saturation_threshold = 0.5;
  const std::vector<double> rate_axis = {0.5, 1, 2, 4, 8, 16, 32};
  TextTable rate_t{"rate x", "cycles", "rotations", "port util",
                   "lat mean", "lat p95", "lat p99", "hw"};
  rate_t.set_title("Arrival-rate sweep (saturation threshold " +
                   fmt(saturation_threshold, 2) + ")");
  std::vector<std::pair<double, RunMetrics>> rate_rows;
  double saturation_rate = 0.0;
  for (const auto mult : rate_axis) {
    auto cfg = base_config(lib, max_tasks, events);
    for (auto& phase : cfg.phases) {
      phase.rate_begin *= mult;
      phase.rate_end *= mult;
    }
    rate_rows.emplace_back(mult, run_point(lib, std::move(cfg), containers));
    const auto& m = rate_rows.back().second;
    if (saturation_rate == 0.0 && m.utilization >= saturation_threshold)
      saturation_rate = mult;
    print_row(rate_t, fmt(mult, 1), m);
  }
  std::cout << rate_t.str();
  std::cout << (saturation_rate > 0.0
                    ? "Port saturates (util >= " +
                          fmt(saturation_threshold, 2) + ") at rate x" +
                          fmt(saturation_rate, 1) + "\n\n"
                    : "Port never crosses the saturation threshold on this "
                      "axis\n\n");

  // Section 4 — the same load with a faulty reconfiguration fabric. Two
  // fault rows: the default retry budget (failures back off and retry) and
  // a zero budget, where every failure quarantines its container — the run
  // then finishes on a shrinking AC pool and the tail pays.
  const auto clean = run_point(lib, base_config(lib, max_tasks, events),
                               containers);
  const auto faults = rispp::hw::FaultModel::probabilistic(
      /*seed=*/7, /*fail=*/0.2, /*poison=*/0.05, /*degrade=*/0.1,
      /*stretch=*/2.0);
  const auto faulty = run_point(lib, base_config(lib, max_tasks, events),
                                containers, &faults);
  const auto no_retry = run_point(lib, base_config(lib, max_tasks, events),
                                  containers, &faults, /*retries=*/0);
  TextTable fq{"configuration", "cycles", "rotations", "port util",
               "lat mean", "lat p95", "lat p99", "hw"};
  fq.set_title("Quarantine under load (fault_p=0.2)");
  print_row(fq, "clean", clean);
  print_row(fq, "faulty, retries=3", faulty);
  print_row(fq, "faulty, retries=0", no_retry);
  std::cout << fq.str();
  std::cout << "retries=3: " << faulty.failed << " failed rotations, "
            << faulty.quarantined << " containers quarantined\n"
            << "retries=0: " << no_retry.failed << " failed rotations, "
            << no_retry.quarantined << " containers quarantined\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"contention_scaling\",\n"
      << "  \"events\": " << events << ",\n"
      << "  \"containers\": " << containers << ",\n"
      << "  \"max_tasks\": " << max_tasks << ",\n"
      << "  \"scaling\": [\n";
  for (std::size_t i = 0; i < scaling_rows.size(); ++i)
    out << json_row(scaling_rows[i], "tasks",
                    std::to_string(scaling_rows[i].tasks))
        << (i + 1 < scaling_rows.size() ? ",\n" : "\n");
  out << "  ],\n  \"skew\": [\n";
  for (std::size_t i = 0; i < skew_rows.size(); ++i)
    out << json_row(skew_rows[i].second, "chooser",
                    "\"" + skew_rows[i].first + "\"")
        << (i + 1 < skew_rows.size() ? ",\n" : "\n");
  out << "  ],\n  \"saturation\": {\n"
      << "    \"threshold\": " << fmt(saturation_threshold, 2) << ",\n"
      << "    \"saturation_rate\": "
      << (saturation_rate > 0.0 ? fmt(saturation_rate, 1) : "null") << ",\n"
      << "    \"sweep\": [\n";
  for (std::size_t i = 0; i < rate_rows.size(); ++i)
    out << "  " << json_row(rate_rows[i].second, "rate",
                            fmt(rate_rows[i].first, 1))
        << (i + 1 < rate_rows.size() ? ",\n" : "\n");
  out << "    ]\n  },\n  \"quarantine\": [\n"
      << json_row(clean, "config", "\"clean\"") << ",\n"
      << json_row(faulty, "config", "\"faulty_retries3\"") << ",\n"
      << json_row(no_retry, "config", "\"faulty_retries0\"") << "\n  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
