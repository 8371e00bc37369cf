/// rispp_genlib — generate synthetic SI libraries (isa::LibraryGenerator)
/// and their companion workloads from the command line.
///
///   rispp_genlib describe [options]
///   rispp_genlib generate [--out=FILE] [options]
///   rispp_genlib workload [--out=FILE] [options] [workload options]
///
/// Library options (all optional; defaults in brackets):
///   --seed=N             generator seed                        [1]
///   --name=NAME          library name tag                      [genlib]
///   --atoms=N            rotatable compute Atoms               [4]
///   --static=N           static data-mover Atoms               [2]
///   --sis=N              Special Instructions                  [6]
///   --molecules=MIN,MAX  hardware Molecules per SI             [2,8]
///   --shape=S            chains | flat | mixed                 [mixed]
///   --bitstream=DIST     bitstream-size distribution           [uniform:40000,70000]
///   --speedup=DIST       max-speedup distribution              [lognormal:3,0.5]
///   --max-count=N        per-Atom count ceiling per Molecule   [4]
/// DIST specs: uniform:LO,HI | lognormal:MU,SIGMA | pareto:XM,ALPHA.
///
/// Workload options (workload command only):
///   --tasks=N --phases=N --events=N --skew=F --rate=F --wl-seed=N
///
/// `describe` prints the resolved parameters and a per-SI summary table.
/// `generate` emits the library in the §1 text format (docs/FORMATS.md) —
/// byte-identical for identical parameters; the CI generator smoke diffs
/// two runs. `workload` derives the sliding-hot-window workload from the
/// generated library (workload::TraceSource::make_generated) and emits it
/// as §2 trace text, forecast annotations included.

#include <fstream>
#include <iostream>
#include <string>

#include "rispp/isa/generator.hpp"
#include "rispp/isa/io.hpp"
#include "rispp/sim/trace_io.hpp"
#include "rispp/util/parse.hpp"
#include "rispp/util/table.hpp"
#include "rispp/workload/trace_source.hpp"

namespace {

using rispp::isa::Distribution;
using rispp::isa::GeneratorConfig;
using rispp::isa::LibraryGenerator;
using rispp::util::TextTable;

int usage() {
  std::cerr
      << "usage: rispp_genlib <describe|generate|workload> [--seed=N]\n"
         "         [--name=NAME] [--atoms=N] [--static=N] [--sis=N]\n"
         "         [--molecules=MIN,MAX] [--shape=chains|flat|mixed]\n"
         "         [--bitstream=DIST] [--speedup=DIST] [--max-count=N]\n"
         "         [--out=FILE]\n"
         "       workload extras: [--tasks=N] [--phases=N] [--events=N]\n"
         "         [--skew=F] [--rate=F] [--wl-seed=N]\n"
         "       DIST: uniform:LO,HI | lognormal:MU,SIGMA | pareto:XM,ALPHA\n";
  return 2;
}

bool take(const std::string& arg, const std::string& key, std::string& out) {
  if (arg.rfind(key, 0) != 0) return false;
  out = arg.substr(key.size());
  return true;
}

/// `take` for a numeric flag: the value under the one number rule,
/// range-checked to the field it sets.
template <typename T>
bool take_num(const std::string& arg, const std::string& key, T& out) {
  std::string v;
  if (!take(arg, key, v)) return false;
  out = rispp::util::require_number<T>(v, key.substr(0, key.size() - 1));
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command != "describe" && command != "generate" && command != "workload")
    return usage();

  GeneratorConfig cfg;
  rispp::workload::GeneratedWorkloadParams wl;
  bool wl_seed_set = false;
  std::string out_path, v;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (take_num(arg, "--seed=", cfg.seed) ||
        take_num(arg, "--atoms=", cfg.rotatable_atoms) ||
        take_num(arg, "--static=", cfg.static_atoms) ||
        take_num(arg, "--sis=", cfg.sis) ||
        take_num(arg, "--max-count=", cfg.max_count) ||
        take_num(arg, "--tasks=", wl.tasks) ||
        take_num(arg, "--phases=", wl.phases) ||
        take_num(arg, "--events=", wl.events_per_phase) ||
        take_num(arg, "--skew=", wl.task_skew) ||
        take_num(arg, "--rate=", wl.rate))
      continue;
    if (take_num(arg, "--wl-seed=", wl.seed)) {
      wl_seed_set = true;
    } else if (take(arg, "--molecules=", v)) {
      const auto comma = v.find(',');
      if (comma == std::string::npos) return usage();
      cfg.molecules_min = rispp::util::require_number<std::size_t>(
          v.substr(0, comma), "--molecules");
      cfg.molecules_max = rispp::util::require_number<std::size_t>(
          v.substr(comma + 1), "--molecules");
    } else if (take(arg, "--name=", v)) {
      cfg.name = v;
    } else if (take(arg, "--shape=", v)) {
      cfg.shape = rispp::isa::parse_lattice_shape(v);
    } else if (take(arg, "--bitstream=", v)) {
      cfg.bitstream = Distribution::parse(v);
    } else if (take(arg, "--speedup=", v)) {
      cfg.speedup = Distribution::parse(v);
    } else if (take(arg, "--out=", v)) {
      out_path = v;
    } else {
      return usage();
    }
  }

  const LibraryGenerator gen(cfg);
  const auto lib = gen.generate();

  if (command == "describe") {
    std::cout << gen.describe() << "\n";
    std::size_t rotatable = 0;
    for (const auto& a : lib.catalog().atoms()) rotatable += a.rotatable;
    std::cout << lib.catalog().size() << " atoms (" << rotatable
              << " rotatable), " << lib.size() << " SIs\n";
    TextTable t{"SI", "molecules", "software", "fastest", "max speedup",
                "pareto points"};
    t.set_title("Generated library " + cfg.name);
    for (const auto& si : lib.sis()) {
      std::uint32_t fastest = si.software_cycles();
      for (const auto& opt : si.options())
        fastest = std::min(fastest, opt.cycles);
      char speedup[32];
      std::snprintf(speedup, sizeof speedup, "%.1fx", si.max_speedup());
      t.add_row({si.name(), std::to_string(si.options().size()),
                 std::to_string(si.software_cycles()),
                 std::to_string(fastest), speedup,
                 std::to_string(si.pareto_front(lib.catalog()).size())});
    }
    std::cout << t.str();
    return 0;
  }

  if (command == "generate") {
    if (out_path.empty()) {
      rispp::isa::write_si_library(std::cout, lib);
    } else {
      std::ofstream out(out_path, std::ios::binary);
      if (!out.good())
        throw std::runtime_error("cannot open output file '" + out_path +
                                 "'");
      rispp::isa::write_si_library(out, lib);
      std::cout << "wrote " << lib.size() << " SIs over "
                << lib.catalog().size() << " atoms to " << out_path << "\n";
    }
    return 0;
  }

  // workload
  if (!wl_seed_set) wl.seed = cfg.seed;
  rispp::workload::PhasedStats stats;
  const auto lib_ptr = rispp::isa::share(std::move(lib));
  const auto source =
      rispp::workload::TraceSource::make_generated(lib_ptr, wl, &stats);
  const auto tasks = source->tasks();
  if (out_path.empty()) {
    rispp::sim::write_tasks(std::cout, tasks, *lib_ptr);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out.good())
      throw std::runtime_error("cannot open output file '" + out_path + "'");
    rispp::sim::write_tasks(out, tasks, *lib_ptr);
    std::cout << source->describe() << "\nwrote " << tasks.size()
              << " tasks (" << stats.si_invocations << " SI invocations, "
              << stats.forecasts << " forecasts) to " << out_path << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
