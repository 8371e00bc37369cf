/// Fig 1 (dynamic reproduction) — "performance maintenance using RISPP's
/// rotating concept".
///
/// The static part of Fig 1 (GE provisioning) is in fig01_area_comparison;
/// this bench reproduces its *behavioural* claim: an encode frame passes
/// through the ME → MC → TQ → LF phases, each with its own SI cluster, and
/// RISPP rotates one shared Atom Container set through them — upholding the
/// extensible processor's performance at a fraction of its dedicated area,
/// with forecasts preparing the next hot spot while the current one runs
/// ("Rotation in Advance").

#include <iostream>

#include "rispp/baseline/asip.hpp"
#include "rispp/h264/phases.hpp"
#include "rispp/sim/simulator.hpp"
#include "rispp/util/table.hpp"

int main() {
  using rispp::util::TextTable;
  const auto lib = rispp::isa::SiLibrary::h264_frame();
  const auto phases = rispp::h264::fig1_phases();

  rispp::h264::PhaseTraceParams p;
  p.frames = 3;
  p.macroblocks_per_frame = 99;
  const auto total_mbs = p.frames * p.macroblocks_per_frame;

  // --- baselines -----------------------------------------------------
  std::uint64_t sw_per_mb = 0;
  for (const auto& ph : phases) sw_per_mb += phase_software_cycles(lib, ph);

  const rispp::baseline::Asip asip(lib);  // fastest molecule per SI, fixed
  std::uint64_t asip_per_mb = 0;
  for (const auto& ph : phases) {
    asip_per_mb += ph.compute_cycles;
    for (const auto& [name, count] : ph.si_calls)
      asip_per_mb += count * asip.cycles(name);
  }

  TextTable blocks{"phase", "SW cycles/MB", "share", "ASIP cycles/MB",
                   "phase atom union"};
  blocks.set_title("Fig 1 (dynamic): the four functional blocks");
  for (const auto& ph : phases) {
    rispp::atom::Molecule uni = lib.catalog().zero();
    for (const auto& [name, count] : ph.si_calls) {
      (void)count;
      uni = uni.unite(lib.catalog().project_rotatable(
          asip.chosen(name).atoms));
    }
    std::uint64_t asip_phase = ph.compute_cycles;
    for (const auto& [name, count] : ph.si_calls)
      asip_phase += count * asip.cycles(name);
    blocks.add_row(
        {ph.name,
         TextTable::grouped(static_cast<long long>(phase_software_cycles(lib, ph))),
         TextTable::num(100.0 * phase_software_cycles(lib, ph) / sw_per_mb, 1) + "%",
         TextTable::grouped(static_cast<long long>(asip_phase)),
         std::to_string(uni.determinant()) + " atoms"});
  }
  std::cout << blocks.str() << "\n";

  // --- RISPP over atom-container budgets -------------------------------
  TextTable t{"configuration", "cycles/MB", "speed-up vs SW",
              "% of ASIP speed", "rotations", "atom slices", "energy/MB [nJ]"};
  t.set_title("Fig 1 (dynamic): phase-rotating RISPP vs fixed baselines, " +
              std::to_string(total_mbs) + " MBs");
  t.add_row({"Opt. SW", TextTable::grouped(static_cast<long long>(sw_per_mb)),
             "1.00x", "-", "0", "0", "-"});
  t.add_row({"Extensible processor (all SIs fixed)",
             TextTable::grouped(static_cast<long long>(asip_per_mb)),
             TextTable::num(static_cast<double>(sw_per_mb) / asip_per_mb, 2) + "x",
             "100.0%", "0",
             TextTable::grouped(static_cast<long long>(asip.dedicated_slices())),
             "-"});

  for (unsigned containers : {6u, 8u, 10u, 12u, 16u}) {
    rispp::sim::SimConfig cfg;
    cfg.rt.atom_containers = containers;
    rispp::sim::Simulator sim(borrow(lib), cfg);
    sim.add_task({"frame", rispp::h264::make_phase_trace(lib, p)});
    const auto r = sim.run();
    const double per_mb =
        static_cast<double>(r.total_cycles) / static_cast<double>(total_mbs);
    // One AC = 1024 slices on the prototype (Table 1 geometry).
    const auto slices = static_cast<long long>(containers) * 1024;
    t.add_row({"RISPP, " + std::to_string(containers) + " ACs",
               TextTable::grouped(static_cast<long long>(per_mb)),
               TextTable::num(static_cast<double>(sw_per_mb) / per_mb, 2) + "x",
               TextTable::num(100.0 * asip_per_mb / per_mb, 1) + "%",
               std::to_string(r.rotations), TextTable::grouped(slices),
               TextTable::grouped(static_cast<long long>(
                   r.energy_total_nj / static_cast<double>(total_mbs)))});
  }
  std::cout << t.str() << "\n";

  // --- rotation in advance: lookahead forecasts on/off ----------------
  TextTable la{"forecast mode", "cycles/MB", "SW executions"};
  la.set_title("Rotation in Advance (10 ACs): lookahead FC vs boundary-only");
  for (bool lookahead : {true, false}) {
    auto params = p;
    params.lookahead = lookahead;
    rispp::sim::SimConfig cfg;
    cfg.rt.atom_containers = 10;
    rispp::sim::Simulator sim(borrow(lib), cfg);
    sim.add_task({"frame", rispp::h264::make_phase_trace(lib, params)});
    const auto r = sim.run();
    std::uint64_t sw_exec = 0;
    for (const auto& [name, st] : r.per_si) sw_exec += st.sw_invocations;
    la.add_row({lookahead ? "one phase ahead (paper)" : "at phase boundary",
                TextTable::grouped(static_cast<long long>(
                    static_cast<double>(r.total_cycles) / total_mbs)),
                TextTable::grouped(static_cast<long long>(sw_exec))});
  }
  std::cout << la.str();
  return 0;
}
