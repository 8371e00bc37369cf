/// rispp_workload — generate and inspect phased workload configs
/// (docs/FORMATS.md §8), and run workloads on the cycle simulator.
///
///   rispp_workload describe --config=FILE [--library=L] [--seed=N]
///   rispp_workload generate --config=FILE [--library=L] [--seed=N]
///                           [--out=FILE]
///   rispp_workload simulate (--config=FILE [--seed=N] | --trace=FILE)
///                           [--library=L] [--report-out=FILE] [run knobs]
///
///   --library=NAME|FILE  SI library: h264 (default), h264_with_sad,
///                        h264_frame, aes, or a library file (§1 format)
///   --seed=N             overrides the config's seed
///
/// `describe` prints the resolved plan and the generation totals without
/// writing anything. `generate` emits the workload as §2 trace text (stdout
/// unless --out=), byte-identical for identical (config, seed).
///
/// `simulate` runs a phased config or a §2 trace file and prints the run
/// summary. Its run knobs are the sweep's (exp::kSimKnobs), spelled as flags
/// with '-' for '_': --containers=N --quantum=N --selector=KEY
/// --replacement=KEY --cost-factor=F --cancel-stale=0|1 --bandwidth=MBPS
/// --fault-p=P --fault-poison=P --fault-degrade=P --fault-stretch=F
/// --fault-seed=N --retries=N --backoff=N. The run is point 0 of a one-point
/// sweep over exactly those keys, so exp::sim_config_for gives it the
/// sweep's defaults (10 containers; fault_seed is the point's derived seed)
/// and the sweep's validation. --report-out= streams the run through an
/// obs::Profiler into a run report (render or diff it with rispp_report);
/// its scenario is the config's workload name or the trace file's stem.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rispp/exp/platform.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/obs/profiler.hpp"
#include "rispp/obs/report.hpp"
#include "rispp/sim/observe.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/sim/trace_io.hpp"
#include "rispp/util/parse.hpp"
#include "rispp/util/table.hpp"
#include "rispp/workload/trace_source.hpp"

namespace {

using rispp::util::TextTable;
using rispp::workload::PhasedStats;
using rispp::workload::PhasedWorkload;
using rispp::workload::TraceSource;

void print_stats(const PhasedStats& stats) {
  TextTable t{"phase", "events", "SI invocations", "forecasts", "releases",
              "compute cycles"};
  t.set_title("Generation totals");
  for (const auto& p : stats.phases)
    t.add_row({p.name, std::to_string(p.events),
               std::to_string(p.si_invocations), std::to_string(p.forecasts),
               std::to_string(p.releases),
               TextTable::grouped(static_cast<long long>(p.compute_cycles))});
  t.add_row({"total", std::to_string(stats.events),
             std::to_string(stats.si_invocations),
             std::to_string(stats.forecasts), std::to_string(stats.releases),
             TextTable::grouped(static_cast<long long>(stats.compute_cycles))});
  std::cout << t.str();

  std::uint64_t busiest = 0, idle = 0;
  for (const auto& n : stats.events_per_task) {
    busiest = std::max(busiest, n);
    if (n == 0) ++idle;
  }
  std::cout << stats.events_per_task.size() << " tasks; busiest got "
            << busiest << " events, " << idle << " got none\n";
}

int usage() {
  std::cerr
      << "usage: rispp_workload describe --config=FILE [--library=L] "
         "[--seed=N]\n"
         "       rispp_workload generate --config=FILE [--library=L] "
         "[--seed=N] [--out=FILE]\n"
         "       rispp_workload simulate (--config=FILE [--seed=N] | "
         "--trace=FILE)\n"
         "         [--library=L] [--report-out=FILE] [run knobs]\n"
         "  L: h264 (default) | h264_with_sad | h264_frame | aes | FILE\n";
  std::string line = "  run knobs (exp/standard_eval.hpp):";
  for (const auto key : rispp::exp::kSimKnobs) {
    std::string flag = " --" + std::string(key) + "=";
    std::replace(flag.begin(), flag.end(), '_', '-');
    if (line.size() + flag.size() > 78) {
      std::cerr << line << "\n";
      line = "   ";
    }
    line += flag;
  }
  std::cerr << line << "\n";
  return 2;
}

/// The sweep key a `--name` flag sets, when `name` is a run knob.
std::optional<std::string> knob_key(std::string name) {
  std::replace(name.begin(), name.end(), '-', '_');
  const auto& knobs = rispp::exp::kSimKnobs;
  if (std::find(knobs.begin(), knobs.end(), name) == knobs.end())
    return std::nullopt;
  return name;
}

int simulate(const rispp::exp::Platform& platform, rispp::sim::SimConfig cfg,
             std::vector<rispp::sim::TaskDef> tasks,
             const std::string& scenario, const std::string& report_out) {
  std::vector<std::string> task_names;
  for (const auto& t : tasks) task_names.push_back(t.name);
  const auto& lib = platform.library();
  rispp::obs::Profiler profiler(
      report_out.empty()
          ? rispp::obs::TraceMeta{}
          : rispp::sim::make_trace_meta(lib, cfg, task_names));
  if (!report_out.empty()) cfg.rt.sink = &profiler;
  rispp::sim::Simulator sim(platform.library_ptr(), cfg);
  const auto task_count = tasks.size();
  for (auto& task : tasks) sim.add_task(std::move(task));
  const auto r = sim.run();

  TextTable t{"SI", "invocations", "hw", "sw"};
  t.set_title("Simulated " + std::to_string(task_count) + " tasks, " +
              std::to_string(cfg.rt.atom_containers) + " atom containers");
  for (const auto& [name, st] : r.per_si) {
    if (st.invocations == 0) continue;
    t.add_row({name, std::to_string(st.invocations),
               std::to_string(st.hw_invocations),
               std::to_string(st.sw_invocations)});
  }
  std::cout << t.str();
  std::cout << "Total cycles: " << r.total_cycles
            << "\nRotations:    " << r.rotations << "\n";
  if (cfg.rt.faults.enabled()) {
    const auto& ctr = sim.manager().counters();
    std::cout << "Faults:       " << ctr.get("rotations_failed")
              << " failed, " << ctr.get("rotation_retries") << " retried, "
              << ctr.get("acs_quarantined") << " ACs quarantined\n";
  }
  if (!report_out.empty()) {
    rispp::obs::write_report_file(report_out, profiler.finalize(scenario));
    std::cout << "Run report written to " << report_out << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command != "describe" && command != "generate" && command != "simulate")
    return usage();
  const bool simulating = command == "simulate";

  std::string config_path, trace_path, library = "h264", out_path, report_out;
  std::optional<std::uint64_t> seed;
  std::vector<std::pair<std::string, std::string>> knobs;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return usage();
    const auto name = arg.substr(2, eq - 2);
    const auto value = arg.substr(eq + 1);
    if (name == "config") {
      config_path = value;
    } else if (name == "library") {
      library = value;
    } else if (name == "seed") {
      seed = rispp::util::require_number<std::uint64_t>(value, "--seed");
    } else if (name == "out" && command == "generate") {
      out_path = value;
    } else if (name == "trace" && simulating) {
      trace_path = value;
    } else if (name == "report-out" && simulating) {
      report_out = value;
    } else if (const auto key = simulating ? knob_key(name) : std::nullopt) {
      std::erase_if(knobs, [&](const auto& kv) { return kv.first == *key; });
      knobs.emplace_back(*key, value);  // the last spelling wins
    } else {
      std::cerr << "error: unknown flag for " << command << ": " << arg
                << "\n";
      return usage();
    }
  }
  // Exactly one workload: a config, or (simulate only) a trace file.
  if (config_path.empty() == trace_path.empty()) return usage();
  if (seed && config_path.empty()) return usage();

  const auto platform = rispp::exp::Platform::resolve(library);
  const auto& lib = platform->library();
  if (simulating) {
    // The knobs are validated before the workload is generated or parsed.
    const auto cfg = rispp::exp::sim_config_for(
        rispp::exp::Sweep().add_point(knobs).point_at(0));
    std::vector<rispp::sim::TaskDef> tasks;
    std::string scenario;
    if (trace_path.empty()) {
      const auto workload = PhasedWorkload::from_file(
          config_path, platform->library_ptr(), seed);
      tasks = TraceSource::make_phased(workload)->tasks();
      scenario = workload.config().name;
    } else {
      tasks = TraceSource::make_from_file(trace_path, platform->library_ptr())
                  ->tasks();
      scenario = std::filesystem::path(trace_path).stem().string();
    }
    return simulate(*platform, cfg, std::move(tasks), scenario, report_out);
  }

  const auto workload =
      PhasedWorkload::from_file(config_path, platform->library_ptr(), seed);
  PhasedStats stats;
  if (command == "describe") {
    std::cout << workload.describe();
    (void)workload.generate(&stats);
    print_stats(stats);
    return 0;
  }

  const auto tasks = workload.generate(&stats);
  if (out_path.empty()) {
    rispp::sim::write_tasks(std::cout, tasks, lib);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out.good())
      throw std::runtime_error("cannot open output file '" + out_path + "'");
    rispp::sim::write_tasks(out, tasks, lib);
    std::cout << "wrote " << tasks.size() << " tasks ("
              << stats.si_invocations << " SI invocations) to " << out_path
              << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
