/// Fault sweep (DESIGN.md §9) — resilience of the reconfiguration path.
///
/// Sweeps the per-transfer failure probability against two retry budgets on
/// the Fig-7 encoder workload and reports how total cycles, the HW/SW
/// execution mix and the fault counters respond. Runs on the exp:: engine;
/// the sweep is executed once serially and once with a parallel worker pool
/// and the two renderings are compared byte-for-byte — fault outcomes are a
/// pure function of (seed, transfer index), so the worker count must not
/// leak into any cell.
///
///   fault_sweep [--jobs=N] [--out=BENCH_fault.json]
///
/// Output: BENCH_fault.json with the grid description, the byte-identity
/// verdict, and the full result table (cycles vs fault_p per retry budget).

#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "rispp/exp/platform.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/util/parse.hpp"
#include "rispp/util/table.hpp"

int main(int argc, char** argv) try {
  using rispp::util::TextTable;

  unsigned jobs = std::max(2u, std::thread::hardware_concurrency());
  std::string out_path = "BENCH_fault.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0)
      jobs = rispp::util::require_number<unsigned>(arg.substr(7), "--jobs");
    else if (arg.rfind("--out=", 0) == 0)
      out_path = arg.substr(6);
    else {
      std::cerr << "usage: fault_sweep [--jobs=N] [--out=FILE]\n";
      return 2;
    }
  }

  const auto platform = rispp::exp::Platform::builtin("h264");

  // fault_p = 0 keeps the fault machinery engaged (the model draws, the
  // extra metric columns render) but never fires — the clean baseline row
  // of each retry budget. The retries axis spans no-retry (every failure
  // quarantines its container immediately) vs the default budget.
  rispp::exp::Sweep sweep;
  sweep.axis("workload", {"fig7"})
      .axis("containers", {"4"})
      .axis("mb", {"60"})
      .axis("fault_p", {"0", "0.02", "0.05", "0.1", "0.2", "0.4"})
      .axis("retries", {"0", "3"})
      .axis("fault_seed", {"9001"});

  const auto serial = rispp::exp::run_sim_sweep(platform, sweep, 1);
  const auto parallel = rispp::exp::run_sim_sweep(platform, sweep, jobs);
  const bool identical = serial.json() == parallel.json();

  TextTable t{"fault_p", "retries", "cycles", "rotations", "failed",
              "retried", "quarantined", "hw execs", "sw execs"};
  t.set_title("Fault sweep: Fig-7 encoder, 4 atom containers, 60 MBs");
  for (const auto& row : serial.rows())
    t.add_row({row.at("fault_p"), row.at("retries"),
               TextTable::grouped(std::stoll(row.at("cycles"))),
               row.at("rotations"), row.at("rotations_failed"),
               row.at("rotation_retries"), row.at("acs_quarantined"),
               TextTable::grouped(std::stoll(row.at("si_hw"))),
               TextTable::grouped(std::stoll(row.at("si_sw")))});
  std::cout << t.str();
  std::cout << (identical ? "(jobs=1 and jobs=" + std::to_string(jobs) +
                                " renderings are byte-identical)\n"
                          : "ERROR: worker count leaked into the results\n");

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"grid\": \"fault_p x retries, fig7 encoder, 4 containers, "
         "60 macroblocks, " << sweep.points().size() << " points\",\n"
      << "  \"jobs_compared\": [1, " << jobs << "],\n"
      << "  \"byte_identical_across_jobs\": "
      << (identical ? "true" : "false") << ",\n"
      << "  \"table\": " << serial.json() << "\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return identical ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
