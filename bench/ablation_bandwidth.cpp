/// Ablation (DESIGN.md §6.2) — reconfiguration-bandwidth sweep.
///
/// The paper notes RISPP "would directly profit from faster rotation time,
/// due to e.g. faster memory bandwidth". This bench sweeps the SelectMap
/// bandwidth from half the Virtex-II rate to 8x and reports the encoder's
/// cycles/MB and the software-execution fraction of the warm-up transient.
///
/// Runs on the exp:: engine as a one-axis grid (`--jobs=N` parallelizes);
/// the derived columns (cycles/MB, speed-up vs the all-software encoder)
/// are computed from the engine's ResultTable rows.

#include <iostream>
#include <string>

#include "rispp/exp/platform.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/h264/workload.hpp"
#include "rispp/util/parse.hpp"
#include "rispp/util/table.hpp"

int main(int argc, char** argv) try {
  using rispp::util::TextTable;

  unsigned jobs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0)
      jobs = rispp::util::require_number<unsigned>(arg.substr(7), "--jobs");
  }

  const auto platform = rispp::exp::Platform::builtin("h264");
  const std::uint64_t macroblocks = 60;  // short run → the transient matters

  rispp::exp::Sweep sweep;
  sweep.axis("workload", {"fig7"})
      .axis("containers", {"4"})
      .axis("mb", {std::to_string(macroblocks)})
      .axis("bandwidth", {"33", "66", "69.2", "132", "264", "528"});

  const auto table = rispp::exp::run_sim_sweep(platform, sweep, jobs);

  rispp::h264::TraceParams p;
  p.macroblocks = macroblocks;
  const auto sw_per_mb = rispp::h264::software_cycles_per_mb(
      platform->library(), p.counts, p.model);

  TextTable t{"bandwidth [MB/s]", "cycles/MB", "SW SATD execs",
              "HW SATD execs", "speed-up vs Opt.SW"};
  t.set_title("Bandwidth ablation: encoder warm-up vs rotation speed (" +
              std::to_string(macroblocks) + " MBs, 4 atom containers)");
  for (const auto& row : table.rows()) {
    const double per_mb = std::stod(row.at("cycles")) /
                          static_cast<double>(macroblocks);
    t.add_row({TextTable::num(std::stod(row.at("bandwidth")), 1),
               TextTable::grouped(static_cast<long long>(per_mb)),
               TextTable::grouped(std::stoll(row.at("sw_SATD_4x4"))),
               TextTable::grouped(std::stoll(row.at("hw_SATD_4x4"))),
               TextTable::num(static_cast<double>(sw_per_mb) / per_mb, 2) +
                   "x"});
  }
  std::cout << t.str();
  std::cout << "(faster ports shrink the software warm-up window; steady "
               "state is bandwidth-independent)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
