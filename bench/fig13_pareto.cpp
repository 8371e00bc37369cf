/// Fig 13 — "RISPP SI Trade-off: Performance vs Resources".
///
/// The Pareto fronts of all four SIs: execution time vs number of Atom
/// Container slots, the "highlighted lines of Pareto-optimal Molecules" the
/// run-time system moves along ("dynamic trade-off"), which a classical
/// ASIP must pin at design time. Also dumps CSV for plotting.
///
/// Runs on the exp:: sweep engine (`--jobs=N` parallelizes): the grid is
/// SI × atom budget 0..16, each point evaluating best_with_budget against
/// the shared Platform snapshot. The front rows the engine yields are
/// cross-checked against the Platform's precomputed pareto_front tables —
/// any divergence aborts the bench.

#include <fstream>
#include <iostream>
#include <string>

#include "rispp/exp/platform.hpp"
#include "rispp/exp/runner.hpp"
#include "rispp/util/csv.hpp"
#include "rispp/util/error.hpp"
#include "rispp/util/parse.hpp"
#include "rispp/util/table.hpp"

namespace {

constexpr std::uint64_t kMaxBudget = 16;

rispp::exp::PointMetrics eval_point(const rispp::exp::Platform& platform,
                                    const rispp::exp::SweepPoint& point) {
  const auto& si = platform.library().find(point.at("si"));
  const auto budget = point.get_u64("budget", 0);
  const auto best = si.best_with_budget(budget, platform.catalog());
  rispp::exp::PointMetrics m;
  if (!best) {
    m.emplace_back("feasible", "0");
    return m;
  }
  m.emplace_back("feasible", "1");
  m.emplace_back("atoms", std::to_string(best->rotatable_atoms));
  m.emplace_back("cycles", std::to_string(best->cycles));
  m.emplace_back("molecule", best->option->atoms.str());
  m.emplace_back("speedup", rispp::util::TextTable::num(
                                si.speedup(*best->option), 1));
  return m;
}

}  // namespace

int main(int argc, char** argv) try {
  using rispp::util::TextTable;

  unsigned jobs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0)
      jobs = rispp::util::require_number<unsigned>(arg.substr(7), "--jobs");
  }

  const auto platform = rispp::exp::Platform::builtin("h264");
  const auto& lib = platform->library();

  rispp::exp::Sweep sweep;
  std::vector<std::string> si_names, budgets;
  for (const auto& si : lib.sis()) si_names.push_back(si.name());
  for (std::uint64_t b = 0; b <= kMaxBudget; ++b)
    budgets.push_back(std::to_string(b));
  sweep.axis("si", si_names).axis("budget", budgets);

  const rispp::exp::Runner runner(platform, {jobs});
  const auto table = runner.run(sweep, eval_point);

  std::ofstream csv_file("fig13_pareto.csv");
  rispp::util::CsvWriter csv(csv_file);
  csv.row("si", "atoms", "cycles", "molecule");

  // Walk each SI's budget column: a budget where the best cycles improve is
  // exactly a Pareto-front point (its option first fits at its own atom
  // count). Cross-check against the Platform's precomputed front.
  std::size_t row_i = 0;
  for (std::size_t s = 0; s < lib.size(); ++s) {
    const auto& si = lib.at(s);
    const auto& front = platform->pareto(s);
    std::size_t front_i = 0;
    TextTable t{"#Atoms (AC slots)", "cycles", "molecule", "speed-up vs SW"};
    t.set_title("Fig 13: Pareto front of " + si.name() + "  (" +
                std::to_string(si.options().size()) + " molecules, " +
                std::to_string(front.size()) + " Pareto-optimal)");
    std::uint64_t best_cycles = ~std::uint64_t{0};
    for (std::uint64_t b = 0; b <= kMaxBudget; ++b, ++row_i) {
      const auto& row = table.rows().at(row_i);
      RISPP_REQUIRE(row.at("si") == si.name() &&
                        row.at("budget") == std::to_string(b),
                    "sweep row order diverged from the plan");
      if (row.at("feasible") != "1") continue;
      const auto cycles = std::stoull(row.at("cycles"));
      if (cycles >= best_cycles) continue;
      best_cycles = cycles;
      RISPP_REQUIRE(front_i < front.size() &&
                        front[front_i].rotatable_atoms ==
                            std::stoull(row.at("atoms")) &&
                        front[front_i].cycles == cycles &&
                        front[front_i].option->atoms.str() ==
                            row.at("molecule"),
                    "engine front diverged from pareto_front() for " +
                        si.name() + " at budget " + std::to_string(b));
      ++front_i;
      t.add_row({row.at("atoms"), row.at("cycles"), row.at("molecule"),
                 row.at("speedup") + "x"});
      csv.row(si.name(), row.at("atoms"), row.at("cycles"),
              row.at("molecule"));
    }
    RISPP_REQUIRE(front_i == front.size(),
                  "engine missed pareto points for " + si.name());
    std::cout << t.str() << "\n";
  }

  // ASCII rendition of the figure: cycles (y) vs atoms (x).
  std::cout << "ASCII sketch (x = #Atoms 0..16, letters = SIs on their Pareto "
               "front: S=SATD_4x4 D=DCT_4x4 H=HT_4x4 h=HT_2x2)\n";
  for (std::uint32_t cycles = 25; cycles >= 5; --cycles) {
    std::string line = (cycles % 5 == 0 ? std::to_string(cycles) : "  ");
    while (line.size() < 4) line.insert(line.begin(), ' ');
    line += " |";
    for (std::uint64_t atoms = 0; atoms <= kMaxBudget; ++atoms) {
      char c = ' ';
      const struct {
        const char* name;
        char mark;
      } sis[] = {{"SATD_4x4", 'S'}, {"DCT_4x4", 'D'}, {"HT_4x4", 'H'},
                 {"HT_2x2", 'h'}};
      for (const auto& s : sis)
        for (const auto& p : platform->pareto(lib.index_of(s.name)))
          if (p.rotatable_atoms == atoms && p.cycles == cycles) c = s.mark;
      line += c;
    }
    std::cout << line << "\n";
  }
  std::cout << "     +-----------------\n      0    5    10   15  [#Atoms]\n";
  std::cout << "\n(CSV written to fig13_pareto.csv; computed on the exp:: "
               "sweep engine with "
            << runner.jobs() << " worker(s))\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
