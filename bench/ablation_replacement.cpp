/// Ablation — Atom replacement policy. When a rotation needs a container,
/// the platform only ever evicts atoms in excess of the target
/// configuration; among those, the pick order still matters for quickly
/// alternating multi-task demands (re-rotation churn). Sweeps the
/// replacement policies registered in the factory — `--victim=lru,mru`
/// restricts the sweep (default: all registered policies, plus LRU with
/// stale-transfer cancellation) — on the encoder+decoder co-run.
///
/// Runs on the exp:: engine in explicit-point mode (the plan is not a
/// rectangle: the cancel-stale case only pairs with LRU); `--jobs=N`
/// evaluates the points on a worker pool sharing one Platform snapshot.

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "rispp/exp/platform.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/rt/policy.hpp"
#include "rispp/util/parse.hpp"
#include "rispp/util/table.hpp"

namespace {

std::vector<std::string> parse_list_arg(int argc, char** argv,
                                        const std::string& prefix) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) != 0) continue;
    std::vector<std::string> out;
    std::stringstream ss(arg.substr(prefix.size()));
    std::string item;
    while (std::getline(ss, item, ','))
      if (!item.empty()) out.push_back(item);
    return out;
  }
  return {};
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

  struct Case {
    std::string label;
    std::string policy;  ///< replacement factory key
    bool cancel = false;
  };
  std::vector<Case> cases;
  const auto victims = parse_list_arg(argc, argv, "--victim=");
  if (victims.empty()) {
    for (const auto& name : rispp::rt::replacement_policy_names())
      cases.push_back({name, name, false});
    cases.push_back({"lru + cancel stale transfers", "lru", true});
  } else {
    for (const auto& name : victims) cases.push_back({name, name, false});
  }

  rispp::exp::Sweep sweep;
  for (const auto& c : cases)
    sweep.add_point({{"workload", "encdec"},
                     {"containers", "10"},
                     {"quantum", "30000"},
                     {"replacement", c.policy},
                     {"cancel_stale", c.cancel ? "1" : "0"}});

  const auto table = rispp::exp::run_sim_sweep(
      rispp::exp::Platform::builtin("h264_frame"), sweep, jobs);

  TextTable t{"policy", "total cycles", "rotations", "SW executions"};
  t.set_title("Replacement policy ablation (encoder+decoder, 10 ACs)");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& row = table.rows().at(i);
    t.add_row({cases[i].label,
               TextTable::grouped(std::stoll(row.at("cycles"))),
               row.at("rotations"),
               TextTable::grouped(std::stoll(row.at("si_sw")))});
  }
  std::cout << t.str();
  std::cout << "(excess-only eviction keeps all policies close; the paper's "
               "platform never evicts atoms its target still needs)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
