/// Table 2 — "Molecule composition of different SIs".
///
/// Prints the full Molecule library: per SI, the Atom composition and cycle
/// count of every Molecule (30 across the four case-study SIs), in the
/// paper's row layout (Atom kinds as rows, Molecules as columns).

#include <iostream>

#include "rispp/isa/si_library.hpp"
#include "rispp/util/table.hpp"

int main() {
  using rispp::util::TextTable;
  const auto lib = rispp::isa::SiLibrary::h264();
  const auto& cat = lib.catalog();

  for (const auto& si : lib.sis()) {
    TextTable t;
    std::vector<std::string> header{si.name()};
    for (std::size_t m = 0; m < si.options().size(); ++m) {
      std::string name = "m";
      name += std::to_string(m + 1);
      header.push_back(std::move(name));
    }
    t.set_header(header);

    for (std::size_t a = 0; a < cat.size(); ++a) {
      bool any = false;
      for (const auto& o : si.options()) any |= o.atoms[a] > 0;
      if (!any) continue;
      std::vector<std::string> row{cat.at(a).name +
                                   (cat.at(a).rotatable ? "" : " (static)")};
      for (const auto& o : si.options())
        row.push_back(o.atoms[a] ? std::to_string(o.atoms[a]) : "");
      t.add_row(row);
    }
    std::vector<std::string> cyc{"Cycles"};
    for (const auto& o : si.options()) cyc.push_back(std::to_string(o.cycles));
    t.add_row(cyc);
    std::vector<std::string> det{"#AC slots"};
    for (const auto& o : si.options())
      det.push_back(std::to_string(cat.rotatable_determinant(o.atoms)));
    t.add_row(det);
    std::cout << t.str() << "software molecule: " << si.software_cycles()
              << " cycles\n\n";
  }

  std::size_t total = 0;
  for (const auto& si : lib.sis()) total += si.options().size();
  std::cout << "Total hardware molecules: " << total
            << " (paper Table 2: 30 across HT_2x2/HT_4x4/DCT_4x4/SATD_4x4)\n";
  return 0;
}
