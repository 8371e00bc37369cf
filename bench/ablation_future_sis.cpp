/// Extension bench — the paper's future work: "Amdahl's law prevents
/// significant further speed-up when offering more Atoms. To overcome this
/// we will consider additional SIs focusing on different hot spots."
///
/// Adds the sketched SAD SI (QuadSub + SATD Atoms) and expresses 16 SAD
/// calls per MB out of the previously SI-free misc work. The all-software
/// total stays 201,065 cycles/MB, so the comparison isolates what the new
/// SI buys at each atom budget.

#include <iostream>

#include "rispp/h264/workload.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/table.hpp"

namespace {

double run_per_mb(const rispp::isa::SiLibrary& lib,
                  const rispp::h264::TraceParams& p, unsigned containers) {
  rispp::sim::SimConfig cfg;
  cfg.rt.atom_containers = containers;
  rispp::sim::Simulator sim(borrow(lib), cfg);
  sim.add_task({"encoder", rispp::h264::make_encode_trace(lib, p)});
  return static_cast<double>(sim.run().total_cycles) /
         static_cast<double>(p.macroblocks);
}

}  // namespace

int main() {
  using rispp::util::TextTable;
  const auto base_lib = rispp::isa::SiLibrary::h264();
  const auto ext_lib = rispp::isa::SiLibrary::h264_with_sad();

  rispp::h264::TraceParams base;
  base.macroblocks = 120;
  auto ext = base;
  ext.misc_sad_calls = 16;

  TextTable t{"atoms", "base cycles/MB", "with SAD SI", "extra gain"};
  t.set_title(
      "Future-SIs ablation: adding the SAD SI against the Amdahl plateau");
  for (unsigned containers : {4u, 6u, 8u, 10u}) {
    const double b = run_per_mb(base_lib, base, containers);
    const double e = run_per_mb(ext_lib, ext, containers);
    t.add_row({std::to_string(containers),
               TextTable::grouped(static_cast<long long>(b)),
               TextTable::grouped(static_cast<long long>(e)),
               TextTable::num((b / e - 1.0) * 100, 1) + "%"});
  }
  std::cout << t.str();
  std::cout << "(base pipeline saturates by Amdahl; the added SI converts "
               "part of the residual misc work and reuses the already-loaded "
               "QuadSub/SATD atoms)\n";
  return 0;
}
