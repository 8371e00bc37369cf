/// telemetry_overhead — the price of host telemetry (obs::Telemetry).
///
/// The telemetry contract says span sites cost one TLS load and a branch
/// when no telemetry is bound, and that a fully instrumented sweep (spans +
/// per-worker counters + heartbeats + flight rings) stays within noise of an
/// uninstrumented one. This bench puts numbers on both claims:
///
///   kernel:   one standard evaluator point (workload=encdec, the Fig-1
///             phase traces) evaluated repeatedly on one thread — telemetry
///             unbound vs bound. Exercises the per-point span sites and the
///             flight-ring pushes at the tightest scope we instrument.
///   sweep_1k: a 1024-point grid through the full engine at --jobs=4,
///             streaming into a bounded aggregator — no telemetry vs
///             heartbeats + spans + flight recorder all on.
///
/// Both report best-of-N wall time and the on/off overhead in percent;
/// results land in BENCH_telemetry.json with the shared meta block. The
/// acceptance bar for the observability PR is < 1 % on both, but timing
/// noise on shared CI boxes is real: the bench records, it does not gate.

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "rispp/bench/meta_block.hpp"
#include "rispp/exp/platform.hpp"
#include "rispp/exp/sink.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/obs/telemetry.hpp"
#include "rispp/util/parse.hpp"
#include "rispp/util/table.hpp"

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-N wall time of `body` in milliseconds.
template <typename Fn>
double best_of(int reps, Fn&& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    body();
    best = std::min(best, now_ms() - t0);
  }
  return best;
}

double overhead_pct(double off_ms, double on_ms) {
  return off_ms > 0.0 ? 100.0 * (on_ms - off_ms) / off_ms : 0.0;
}

/// The 1024-point grid: cheap points (one frame, few macroblocks) so the
/// run is dominated by engine + telemetry plumbing, not simulation depth.
std::string sweep_grid() {
  std::string quanta;
  for (int q = 0; q < 128; ++q) {
    if (q) quanta += ',';
    quanta += std::to_string(2000 + 500 * q);
  }
  return "workload=enc;frames=1;mb=8;containers=2,3,4,5,6,7,8,9;quantum=" +
         quanta;
}

}  // namespace

int main(int argc, char** argv) try {
  const char* out_path = "BENCH_telemetry.json";
  int reps = 5;
  unsigned jobs = 4;
  int kernel_points = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) out_path = argv[i] + 6;
    if (arg.rfind("--reps=", 0) == 0)
      reps = rispp::util::require_number<int>(arg.substr(7), "--reps");
    if (arg.rfind("--jobs=", 0) == 0)
      jobs = rispp::util::require_number<unsigned>(arg.substr(7), "--jobs");
  }

  const auto platform = rispp::exp::Platform::builtin("h264_frame");

  // --- kernel: one point, one thread, telemetry unbound vs bound ----------
  auto point_sweep =
      rispp::exp::Sweep::parse_grid("workload=encdec;frames=2;mb=60");
  const auto point = point_sweep.point_at(0);
  const auto eval_point = [&] {
    for (int i = 0; i < kernel_points; ++i)
      (void)rispp::exp::run_sim_point(*platform, point);
  };

  const double kernel_off = best_of(reps, eval_point);
  double kernel_on = 0.0;
  {
    rispp::obs::Telemetry::Config cfg;
    cfg.keep_spans = false;  // steady state: rings + counters, no growth
    rispp::obs::Telemetry tel(cfg);
    rispp::obs::Telemetry::Binding bind(tel, 0);
    kernel_on = best_of(reps, eval_point);
  }

  // --- sweep_1k: the full engine, all telemetry channels on ---------------
  const auto sweep = rispp::exp::Sweep::parse_grid(sweep_grid());
  const std::size_t points = sweep.total_points();
  const auto run_sweep = [&](rispp::obs::Telemetry* tel) {
    rispp::exp::StreamingAggregator agg;
    rispp::exp::Runner::RunOptions opts;
    opts.telemetry = tel;
    rispp::exp::run_sim_sweep_into(platform, sweep, jobs, agg, opts);
  };

  const double sweep_off = best_of(reps, [&] { run_sweep(nullptr); });
  double sweep_on = 0.0;
  std::size_t heartbeats = 0;
  {
    std::ostringstream jsonl;
    rispp::obs::Telemetry::Config cfg;
    cfg.heartbeat_every = 32;
    cfg.heartbeat_out = &jsonl;
    cfg.keep_spans = true;
    rispp::obs::Telemetry tel(cfg);
    rispp::obs::Telemetry::Binding bind(tel, 0);
    sweep_on = best_of(reps, [&] { run_sweep(&tel); });
    heartbeats = tel.heartbeats_emitted();
  }

  const double kernel_pct = overhead_pct(kernel_off, kernel_on);
  const double sweep_pct = overhead_pct(sweep_off, sweep_on);

  using rispp::util::TextTable;
  TextTable t{"scenario", "telemetry", "best wall [ms]", "overhead"};
  t.set_title("Host-telemetry overhead (best of " + std::to_string(reps) +
              " runs)");
  t.add_row({"kernel", "off", TextTable::num(kernel_off, 3), ""});
  t.add_row({"kernel", "on", TextTable::num(kernel_on, 3),
             TextTable::num(kernel_pct, 2) + "%"});
  t.add_row({"sweep_1k", "off", TextTable::num(sweep_off, 3), ""});
  t.add_row({"sweep_1k", "on", TextTable::num(sweep_on, 3),
             TextTable::num(sweep_pct, 2) + "%"});
  std::cout << t.str();

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"meta\": " << rispp::bench::meta_block("telemetry_overhead")
       << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"kernel_points_per_rep\": " << kernel_points << ",\n"
       << "  \"kernel_off_ms\": " << kernel_off << ",\n"
       << "  \"kernel_on_ms\": " << kernel_on << ",\n"
       << "  \"kernel_overhead_pct\": " << kernel_pct << ",\n"
       << "  \"sweep_points\": " << points << ",\n"
       << "  \"sweep_jobs\": " << jobs << ",\n"
       << "  \"sweep_off_ms\": " << sweep_off << ",\n"
       << "  \"sweep_on_ms\": " << sweep_on << ",\n"
       << "  \"sweep_overhead_pct\": " << sweep_pct << ",\n"
       << "  \"heartbeats_per_run\": " << heartbeats / std::max(1, reps)
       << "\n}\n";
  std::cout << "Wrote " << out_path << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
