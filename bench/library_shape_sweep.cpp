/// Library-shape sweep — what does the Molecule-lattice shape of an SI
/// library demand from the platform?
///
/// The paper's results are all conditioned on one library (Table 2, a
/// chains-shaped lattice). This bench sweeps synthetic libraries from
/// isa::LibraryGenerator across the three lattice shapes × several seeds ×
/// Atom Container counts × reconfiguration bandwidths, running the
/// library-derived sliding-hot-window workload through the exp:: engine
/// (workload=generated + lib_* axes). Per shape it reports the cycle curve
/// against container count and the smallest container budget that gets
/// within 5% of that shape's best — "how many ACs does a shape want".
/// The sweep also re-runs with a parallel worker pool and compares the two
/// renderings byte-for-byte (generated libraries are per-point pure, so the
/// worker count must not leak into any cell).
///
///   library_shape_sweep [--jobs=N] [--out=BENCH_genlib.json]
///
/// Output: BENCH_genlib.json with the grid description, the byte-identity
/// verdict, the per-shape container demand, and the full result table.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "rispp/exp/platform.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/util/parse.hpp"
#include "rispp/util/table.hpp"

int main(int argc, char** argv) try {
  using rispp::util::TextTable;

  unsigned jobs = std::max(2u, std::thread::hardware_concurrency());
  std::string out_path = "BENCH_genlib.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0)
      jobs = rispp::util::require_number<unsigned>(arg.substr(7), "--jobs");
    else if (arg.rfind("--out=", 0) == 0)
      out_path = arg.substr(6);
    else {
      std::cerr << "usage: library_shape_sweep [--jobs=N] [--out=FILE]\n";
      return 2;
    }
  }

  // The platform library is never used (every point carries lib_* axes),
  // but the Runner needs a snapshot to thread through.
  const auto platform = rispp::exp::Platform::builtin("h264");

  const std::vector<std::string> seeds = {"11", "12", "13", "14"};

  rispp::exp::Sweep sweep;
  sweep.axis("workload", {"generated"})
      .axis("lib_shape", {"chains", "flat", "mixed"})
      .axis("lib_seed", seeds)
      .axis("lib_atoms", {"5"})
      .axis("lib_sis", {"8"})
      .axis("containers", {"2", "4", "6", "8", "10", "12"})
      .axis("bandwidth", {"34.6", "69.2"})
      .axis("wl_seed", {"9001"})
      .axis("wl_tasks", {"4"})
      .axis("wl_events", {"120"});

  const auto serial = rispp::exp::run_sim_sweep(platform, sweep, 1);
  const auto parallel = rispp::exp::run_sim_sweep(platform, sweep, jobs);
  const bool identical = serial.json() == parallel.json();

  // Aggregate: mean cycles and hardware-execution share per (shape,
  // containers), averaged over seeds and bandwidths.
  struct Cell {
    double cycles = 0.0, hw_share = 0.0;
    std::uint64_t n = 0;
  };
  std::map<std::string, std::map<std::uint64_t, Cell>> by_shape;
  for (const auto& row : serial.rows()) {
    auto& cell = by_shape[row.at("lib_shape")]
                         [std::stoull(row.at("containers"))];
    cell.cycles += std::stod(row.at("cycles"));
    const double hw = std::stod(row.at("si_hw"));
    const double sw = std::stod(row.at("si_sw"));
    cell.hw_share += hw / std::max(1.0, hw + sw);
    ++cell.n;
  }

  TextTable t{"shape", "containers", "mean cycles", "hw share"};
  t.set_title("Library-shape sweep: " +
              std::to_string(sweep.points().size()) + " points (" +
              std::to_string(seeds.size()) + " seeds)");
  std::map<std::string, std::uint64_t> wants;
  for (const auto& [shape, curve] : by_shape) {
    const double best = curve.rbegin()->second.cycles /
                        static_cast<double>(curve.rbegin()->second.n);
    for (const auto& [acs, cell] : curve) {
      const double mean = cell.cycles / static_cast<double>(cell.n);
      char cycles_buf[32], share_buf[32];
      std::snprintf(cycles_buf, sizeof cycles_buf, "%.0f", mean);
      std::snprintf(share_buf, sizeof share_buf, "%.3f",
                    cell.hw_share / static_cast<double>(cell.n));
      t.add_row({shape, std::to_string(acs), cycles_buf, share_buf});
      // Smallest budget within 5% of this shape's best curve point.
      if (wants.find(shape) == wants.end() && mean <= 1.05 * best)
        wants[shape] = acs;
    }
  }
  std::cout << t.str();
  for (const auto& [shape, acs] : wants)
    std::cout << shape << " libraries reach 95% of their best at " << acs
              << " atom containers\n";
  std::cout << (identical ? "(jobs=1 and jobs=" + std::to_string(jobs) +
                                " renderings are byte-identical)\n"
                          : "ERROR: worker count leaked into the results\n");

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"grid\": \"shape x seed x containers x bandwidth, "
         "workload=generated, "
      << sweep.points().size() << " points\",\n"
      << "  \"jobs_compared\": [1, " << jobs << "],\n"
      << "  \"byte_identical_across_jobs\": "
      << (identical ? "true" : "false") << ",\n"
      << "  \"containers_for_95pct\": {";
  bool first = true;
  for (const auto& [shape, acs] : wants) {
    out << (first ? "" : ", ") << "\"" << shape << "\": " << acs;
    first = false;
  }
  out << "},\n"
      << "  \"table\": " << serial.json() << "\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return identical ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
