/// rispp_explorer — command-line front end to the platform:
///
///   rispp_explorer info <library>
///       catalog and SI summary of a library
///   rispp_explorer pareto <library>
///       per-SI Pareto fronts (the Fig-13 view) for any library
///   rispp_explorer budget <library> <atoms>
///       budget-best molecule per SI at a given container count
///   rispp_explorer policies
///       list the registered selection and replacement policies
///   rispp_explorer emit <library>
///       print a library in the text format (a starting point for custom
///       libraries)
///
/// <library> is a built-in name (h264, h264_with_sad, h264_frame, aes) or an
/// SI-library file (docs/FORMATS.md §1), resolved by exp::Platform::resolve.
/// To run a trace file on the cycle simulator, use
/// `rispp_workload simulate --trace=FILE`.

#include <iostream>
#include <string>

#include "rispp/exp/platform.hpp"
#include "rispp/isa/io.hpp"
#include "rispp/rt/policy.hpp"
#include "rispp/util/parse.hpp"
#include "rispp/util/table.hpp"

namespace {

using rispp::isa::SiLibrary;
using rispp::util::TextTable;

int usage() {
  std::cerr << "usage: rispp_explorer <info|pareto|budget|policies|emit> ...\n"
               "  info <library>\n"
               "  pareto <library>\n"
               "  budget <library> <atoms>\n"
               "  policies\n"
               "  emit <library>\n"
               "  <library>: h264 | h264_with_sad | h264_frame | aes | FILE\n";
  return 2;
}

int cmd_info(const SiLibrary& lib) {
  TextTable atoms{"atom", "slices", "LUTs", "bitstream [B]", "placement"};
  atoms.set_title("Catalog (" + std::to_string(lib.catalog().size()) + " atoms)");
  for (const auto& a : lib.catalog().atoms())
    atoms.add_row({a.name, std::to_string(a.hardware.slices),
                   std::to_string(a.hardware.luts),
                   TextTable::grouped(a.hardware.bitstream_bytes),
                   a.rotatable ? "atom container" : "static region"});
  std::cout << atoms.str() << "\n";

  TextTable sis{"SI", "software", "molecules", "min atoms", "max speed-up"};
  sis.set_title("Special Instructions (" + std::to_string(lib.size()) + ")");
  for (const auto& si : lib.sis()) {
    const auto& min = si.minimal(lib.catalog());
    sis.add_row({si.name(), std::to_string(si.software_cycles()),
                 std::to_string(si.options().size()),
                 std::to_string(lib.catalog().rotatable_determinant(min.atoms)),
                 TextTable::num(si.max_speedup(), 1) + "x"});
  }
  std::cout << sis.str();
  return 0;
}

int cmd_pareto(const SiLibrary& lib) {
  for (const auto& si : lib.sis()) {
    TextTable t{"#atoms", "cycles", "molecule"};
    t.set_title(si.name() + " Pareto front");
    for (const auto& p : si.pareto_front(lib.catalog()))
      t.add_row({std::to_string(p.rotatable_atoms), std::to_string(p.cycles),
                 p.option->atoms.str()});
    std::cout << t.str() << "\n";
  }
  return 0;
}

int cmd_budget(const SiLibrary& lib, const std::string& atoms) {
  const auto budget =
      rispp::util::require_number<std::uint64_t>(atoms, "<atoms>");
  TextTable t{"SI", "best cycles", "vs software"};
  t.set_title("Budget-best execution at " + atoms + " atom containers");
  for (const auto& si : lib.sis()) {
    const auto best = si.best_with_budget(budget, lib.catalog());
    if (best)
      t.add_row({si.name(), std::to_string(best->cycles),
                 TextTable::num(static_cast<double>(si.software_cycles()) /
                                    best->cycles, 1) + "x"});
    else
      t.add_row({si.name(), std::to_string(si.software_cycles()) + " (SW)",
                 "1.0x"});
  }
  std::cout << t.str();
  return 0;
}

int cmd_policies() {
  TextTable t{"kind", "key"};
  t.set_title("Registered run-time policies");
  for (const auto& name : rispp::rt::selection_policy_names())
    t.add_row({"selection", name});
  for (const auto& name : rispp::rt::replacement_policy_names())
    t.add_row({"replacement", name});
  std::cout << t.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const std::string cmd = argc >= 2 ? argv[1] : "";
  if (cmd == "policies" && argc == 2) return cmd_policies();
  const bool known =
      ((cmd == "info" || cmd == "pareto" || cmd == "emit") && argc == 3) ||
      (cmd == "budget" && argc == 4);
  if (!known) return usage();
  const auto platform = rispp::exp::Platform::resolve(argv[2]);
  const auto& lib = platform->library();
  if (cmd == "info") return cmd_info(lib);
  if (cmd == "pareto") return cmd_pareto(lib);
  if (cmd == "budget") return cmd_budget(lib, argv[3]);
  rispp::isa::write_si_library(std::cout, lib);  // emit
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
