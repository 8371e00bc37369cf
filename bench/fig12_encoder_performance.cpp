/// Fig 12 — "Allover performance for H.264 Encoding Engine".
///
/// Whole-encoder cycles per macroblock for the optimized-software baseline
/// vs RISPP with 4, 5 and 6 Atom Containers, measured by replaying the
/// Fig-7 per-MB trace (256 SATD + 24 DCT + 1 HT_4x4 + 2 HT_2x2 plus non-SI
/// work) through the cycle simulator — including the rotation warm-up
/// transient. Paper: 201,065 / 60,244 / 59,135 / 58,287.

#include <iostream>

#include "rispp/h264/workload.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/table.hpp"

int main() {
  using rispp::util::TextTable;
  const auto lib = rispp::isa::SiLibrary::h264();

  rispp::h264::TraceParams p;
  p.macroblocks = 396;  // one CIF frame worth of MBs

  const auto sw_per_mb =
      rispp::h264::software_cycles_per_mb(lib, p.counts, p.model);

  TextTable t{"configuration", "cycles/MB (measured)", "ideal bound",
              "speed-up vs Opt.SW", "paper cycles/MB"};
  t.set_title("Fig 12: allover encoder performance, " +
              std::to_string(p.macroblocks) + " macroblocks");
  t.add_row({"Opt. SW", TextTable::grouped(static_cast<long long>(sw_per_mb)),
             TextTable::grouped(static_cast<long long>(sw_per_mb)), "1.00x",
             "201,065"});

  const char* paper[] = {"60,244", "59,135", "58,287"};
  int pi = 0;
  for (unsigned containers : {4u, 5u, 6u}) {
    rispp::sim::SimConfig cfg;
    cfg.rt.atom_containers = containers;
    rispp::sim::Simulator sim(borrow(lib), cfg);
    sim.add_task({"encoder", rispp::h264::make_encode_trace(lib, p)});
    const auto r = sim.run();
    const double per_mb = static_cast<double>(r.total_cycles) /
                          static_cast<double>(p.macroblocks);
    const auto ideal =
        rispp::h264::ideal_hw_cycles_per_mb(lib, p.counts, p.model, containers);
    t.add_row({std::to_string(containers) + " Atoms",
               TextTable::grouped(static_cast<long long>(per_mb)),
               TextTable::grouped(static_cast<long long>(ideal)),
               TextTable::num(static_cast<double>(sw_per_mb) / per_mb, 2) + "x",
               paper[pi++]});
  }
  std::cout << t.str() << "\n";
  std::cout << "Shape checks: minimal-atom RISPP > 3x over software (paper: "
               "\"more than 300% faster\"); 5th/6th atom adds only ~1-3% "
               "(Amdahl's law, paper §6).\n";
  return 0;
}
