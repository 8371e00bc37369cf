/// rispp_report — builds, renders and diffs versioned run reports:
///
///   rispp_report profile [--scenario=LABEL] <trace.csv>
///   rispp_report show <report.json>
///   rispp_report diff <golden.json> <candidate.json> [--tol=PATTERN=REL]...
///
/// `profile` replays a CSV trace (`--trace-out=<file>.csv` on the
/// instrumented benches) through obs::Profiler and prints its run report:
/// the same bytes a live `--report-out=` run writes, names taken from the
/// CSV's name columns. LABEL fills the report's `scenario` field.
///
/// `show` prints the report human-readably: per-task cycle-attribution
/// buckets, per-SI latency digests, the upgrade staircase, port economics,
/// per-AC occupancy and the event counts.
///
/// `diff` compares two reports structurally and numerically. A leaf whose
/// dotted path contains PATTERN may drift by the relative tolerance REL
/// (|a-b| / max(|a|,|b|)); everything else must match exactly. Exit codes:
/// 0 = within tolerance, 1 = regression (every divergence is printed),
/// 2 = usage / unreadable input. Typical CI gate:
///
///   rispp_report diff tests/data/fig06_report_golden.json fig06.report.json
///
/// Reports are wall-clock-free, so the default (exact) mode is the right
/// one for simulated-cycle metrics; tolerances exist for derived ratios.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "rispp/obs/csv_trace.hpp"
#include "rispp/obs/profiler.hpp"
#include "rispp/obs/report.hpp"
#include "rispp/util/parse.hpp"
#include "rispp/util/table.hpp"

namespace {

using rispp::util::TextTable;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open report file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string pct(double x) { return TextTable::num(x * 100, 2) + "%"; }

std::string bound(const rispp::util::PercentileBound& b) {
  std::string s = "[";
  s += TextTable::num(b.lower, 0);
  s += ", ";
  s += TextTable::num(b.upper, 0);
  s += ")";
  return s;
}

void add_digest_row(TextTable& t, const std::string& label,
                    const rispp::obs::LatencyDigest& d) {
  if (d.count == 0) {
    t.add_row({label, "0", "-", "-", "-", "-", "-", "-"});
    return;
  }
  t.add_row({label, std::to_string(d.count), TextTable::num(d.mean, 1),
             std::to_string(d.min), std::to_string(d.max), bound(d.p50),
             bound(d.p90), bound(d.p99)});
}

int profile(const std::string& path, const std::string& scenario) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace file: " + path);
  rispp::obs::TraceMeta meta;
  const auto events = rispp::obs::read_csv_trace(in, &meta);
  std::cout << rispp::obs::write_report(
      rispp::obs::Profiler::profile(events, meta, scenario));
  return 0;
}

int show(const std::string& path) {
  const auto r = rispp::obs::read_report(slurp(path));
  const auto span = r.span_cycles();

  std::cout << "run report: scenario '" << r.scenario << "', span "
            << r.first_cycle << " → " << r.last_cycle << " ("
            << TextTable::grouped(static_cast<long long>(span))
            << " cycles), " << r.counts.events << " events\n\n";

  TextTable buckets{"task", "sw_exec", "hw_exec", "plain_compute",
                    "rotation_stall", "idle"};
  buckets.set_title("Cycle attribution (per-task buckets sum to the span)");
  const auto bucket_row = [&](const std::string& name,
                              const rispp::obs::BucketSet& b) {
    const auto cell = [&](std::uint64_t v) {
      return TextTable::grouped(static_cast<long long>(v)) +
             (span ? " (" + pct(static_cast<double>(v) /
                                static_cast<double>(span)) + ")"
                   : "");
    };
    buckets.add_row({name, cell(b.sw_exec), cell(b.hw_exec),
                     cell(b.plain_compute), cell(b.rotation_stall),
                     cell(b.idle)});
  };
  for (const auto& t : r.tasks) bucket_row(t.name, t.buckets);
  std::cout << buckets.str() << "\n";

  TextTable sis{"population", "n", "mean", "min", "max", "p50", "p90", "p99"};
  sis.set_title("Per-SI latency digests [cycles]");
  for (const auto& s : r.sis) {
    add_digest_row(sis, s.name, s.all);
    if (s.hw.count) add_digest_row(sis, "  " + s.name + " (hw)", s.hw);
    if (s.sw.count) add_digest_row(sis, "  " + s.name + " (sw)", s.sw);
    if (s.forecast_lead.count)
      add_digest_row(sis, "  " + s.name + " (forecast lead)", s.forecast_lead);
    if (s.upgrade_gap.count)
      add_digest_row(sis, "  " + s.name + " (forecast to upgrade)",
                     s.upgrade_gap);
  }
  std::cout << sis.str() << "\n";

  TextTable staircase{"SI", "invocations", "hw", "sw", "upgrades",
                      "downgrades"};
  staircase.set_title(
      "Upgrade staircase (latency changes; downgrades = Atoms lost)");
  for (const auto& s : r.sis)
    staircase.add_row({s.name, std::to_string(s.all.count),
                       std::to_string(s.hw.count), std::to_string(s.sw.count),
                       std::to_string(s.upgrades),
                       std::to_string(s.downgrades)});
  std::cout << staircase.str() << "\n";

  TextTable port{"metric", "n", "mean", "min", "max", "p50", "p90", "p99"};
  port.set_title("Reconfiguration port (busy " +
                 TextTable::grouped(
                     static_cast<long long>(r.port.busy_cycles)) +
                 " cycles, utilization " + pct(r.port.utilization) + ")");
  add_digest_row(port, "queueing [cycles]", r.port.queueing);
  add_digest_row(port, "transfer [cycles]", r.port.transfer);
  std::cout << port.str() << "\n";

  TextTable acs{"AC", "rotations", "wasted", "occupancy timeline"};
  acs.set_title("Atom-Container economics (wasted = loaded, 0 uses, evicted)");
  for (const auto& c : r.containers) {
    std::string timeline;
    for (const auto& seg : c.occupancy) {
      if (!timeline.empty()) timeline += " | ";
      timeline += seg.atom_name + " @" + std::to_string(seg.from) + ".." +
                  std::to_string(seg.to) + " ×" + std::to_string(seg.uses);
    }
    acs.add_row({std::to_string(c.container), std::to_string(c.rotations),
                 std::to_string(c.wasted_rotations),
                 timeline.empty() ? "-" : timeline});
  }
  std::cout << acs.str() << "\n";

  TextTable counts{"counter", "value"};
  counts.set_title("Event counts");
  const auto& c = r.counts;
  counts.add_row({"task switches", std::to_string(c.task_switches)});
  counts.add_row({"forecasts / releases", std::to_string(c.forecasts) + " / " +
                                              std::to_string(c.releases)});
  counts.add_row({"rotations", std::to_string(c.rotations)});
  counts.add_row({"rotations cancelled",
                  std::to_string(c.rotations_cancelled)});
  counts.add_row({"rotations failed", std::to_string(c.rotations_failed)});
  counts.add_row({"ACs quarantined", std::to_string(c.acs_quarantined)});
  counts.add_row({"evictions", std::to_string(c.evictions)});
  counts.add_row({"wasted rotations", std::to_string(c.wasted_rotations)});
  std::cout << counts.str();
  return 0;
}

int diff(const std::string& golden_path, const std::string& candidate_path,
         const std::vector<rispp::obs::DiffTolerance>& tols) {
  const auto golden = rispp::obs::json::parse(slurp(golden_path));
  const auto candidate = rispp::obs::json::parse(slurp(candidate_path));
  const auto entries = rispp::obs::diff_reports(golden, candidate, tols);
  if (entries.empty()) {
    std::cout << "reports match (" << golden_path << " vs " << candidate_path
              << ")\n";
    return 0;
  }
  TextTable t{"path", "golden", "candidate", "rel. delta"};
  t.set_title("Report regression: " + std::to_string(entries.size()) +
              " metric(s) out of tolerance");
  for (const auto& e : entries)
    t.add_row({e.path, e.golden, e.candidate,
               e.rel > 0 ? TextTable::num(e.rel * 100, 3) + "%" : "-"});
  std::cerr << t.str();
  return 1;
}

}  // namespace

int main(int argc, char** argv) try {
  const std::string usage =
      "usage: rispp_report profile [--scenario=LABEL] <trace.csv>\n"
      "       rispp_report show <report.json>\n"
      "       rispp_report diff <golden.json> <candidate.json> "
      "[--tol=PATTERN=REL]...\n";
  if (argc < 2) {
    std::cerr << usage;
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "profile") {
    std::string scenario;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--scenario=", 0) == 0)
        scenario = arg.substr(11);
      else
        paths.push_back(arg);
    }
    if (paths.size() == 1) return profile(paths[0], scenario);
  }
  if (cmd == "show" && argc == 3) return show(argv[2]);
  if (cmd == "diff" && argc >= 4) {
    std::vector<rispp::obs::DiffTolerance> tols;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::string prefix = "--tol=";
      const auto eq = arg.rfind('=');
      if (arg.rfind(prefix, 0) != 0 || eq == prefix.size() - 1 ||
          eq == std::string::npos) {
        std::cerr << usage;
        return 2;
      }
      const auto pattern = arg.substr(prefix.size(), eq - prefix.size());
      if (pattern.empty()) {
        std::cerr << usage;
        return 2;
      }
      tols.push_back({pattern, rispp::util::require_number<double>(
                                   arg.substr(eq + 1), "--tol")});
    }
    return diff(argv[2], argv[3], tols);
  }
  std::cerr << usage;
  return 2;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
