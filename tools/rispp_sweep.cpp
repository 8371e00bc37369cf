/// rispp_sweep — batch-experiment CLI over the exp:: engine.
///
/// Evaluates a parameter grid against one shared Platform snapshot with a
/// worker pool. Results *stream*: completed points flow through ResultSink
/// implementations — the classic aggregated table (--out), a bounded-memory
/// statistics summary (--agg-out), an incremental CSV spill (--spill-csv)
/// and the JSONL shard manifest (--out-shard), which doubles as the
/// checkpoint a killed sweep resumes from (--resume). Results are
/// byte-identical at any --jobs and across any shard partition
/// (docs/FORMATS.md §4, §7); per-point RNG seeds derive from --seed and the
/// global point index, so shard i/N evaluates exactly the rows a
/// single-process run would.
///
/// Examples:
///   rispp_sweep --grid="workload=enc;containers=4,8;quantum=10000,30000"
///   rispp_sweep --grid="workload=fig7;bandwidth=66,264" --dry-run
///   rispp_sweep --grid=... --shard=0/3 --jobs=4 --out-shard=s0.jsonl
///   rispp_sweep --grid=... --resume=s0.jsonl        # after a kill
///   rispp_merge s0.jsonl s1.jsonl s2.jsonl --out=final.csv
///
/// Grid axes are the standard evaluator's parameters — see
/// exp/standard_eval.hpp for the full list and defaults.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "rispp/exp/manifest.hpp"
#include "rispp/exp/platform.hpp"
#include "rispp/exp/sink.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/obs/chrome_trace.hpp"
#include "rispp/obs/telemetry.hpp"
#include "rispp/util/error.hpp"
#include "rispp/util/parse.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --grid=SPEC [options]\n"
      << "  --grid=SPEC       axes, e.g. \"containers=4,8;workload=enc\"\n"
      << "  --platform=L      SI library: h264, h264_with_sad, h264_frame\n"
      << "                    (default), aes, or a library file\n"
      << "  --jobs=N          worker threads (default 1; 0 = all cores)\n"
      << "  --seed=S          base seed for per-point RNG streams "
         "(default 1)\n"
      << "  --out=FILE        aggregated table; a .json extension selects\n"
      << "                    JSON ('-' or no sink flags = CSV to stdout)\n"
      << "  --format=csv|json override the table format choice\n"
      << "  --shard=I/N       evaluate only points with index %% N == I\n"
      << "  --out-shard=FILE  stream rows to a JSONL shard manifest\n"
      << "                    (checkpoint; merge with rispp_merge)\n"
      << "  --resume=FILE     continue a killed --out-shard run: re-evaluate\n"
      << "                    only the points FILE is missing\n"
      << "  --agg-out=FILE    bounded-memory streaming summary JSON\n"
      << "  --spill-csv=FILE  stream rows to CSV incrementally (fixed\n"
      << "                    columns from the first row)\n"
      << "  --window=W        reorder-buffer capacity in rows (default 4x "
         "jobs)\n"
      << "  --max-points=K    stop after K points (checkpoint testing;\n"
      << "                    exits 3 when the run is left incomplete)\n"
      << "  --dry-run         print the resolved plan (points, axes, seeds)\n"
      << "                    and validate it without evaluating anything\n"
      << "  --progress[=N]    print a progress/ETA line to stderr every N\n"
      << "                    completed points (default: ~64 per run)\n"
      << "  --telemetry-out=F stream rispp.telemetry/1 JSONL heartbeats to F\n"
      << "                    (docs/FORMATS.md §9)\n"
      << "  --telemetry-trace=F  write host-side spans as a Chrome trace to\n"
      << "                    F (open in Perfetto; pid 2 = rispp host)\n"
      << "  --flight-out=F    on evaluator/sink failure or a fatal signal,\n"
      << "                    dump the flight recorder (rispp.flight/1) to F\n"
      << "                    (exit code is preserved)\n";
  return 2;
}

bool parse_shard(const std::string& spec, std::size_t& index,
                 std::size_t& count) {
  const auto slash = spec.find('/');
  if (slash == std::string::npos) return false;
  const std::string_view view(spec);
  const auto i = rispp::util::parse_number<std::size_t>(view.substr(0, slash));
  const auto n = rispp::util::parse_number<std::size_t>(view.substr(slash + 1));
  if (!i || !n || *n < 1 || *i >= *n) return false;
  index = *i;
  count = *n;
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  std::string grid, platform_name = "h264_frame", out, format;
  std::string out_shard, resume, agg_out, spill_csv, shard_spec;
  std::string telemetry_out, telemetry_trace, flight_out;
  unsigned jobs = 1;
  std::uint64_t seed = 1;
  std::size_t window = 0, max_points = 0, progress_every = 0;
  bool dry_run = false, progress = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    const auto count = [&](const std::string& prefix) {  // "--name="
      return rispp::util::require_number<std::size_t>(
          value(prefix), prefix.substr(0, prefix.size() - 1));
    };
    if (arg.rfind("--grid=", 0) == 0) grid = value("--grid=");
    else if (arg.rfind("--platform=", 0) == 0)
      platform_name = value("--platform=");
    else if (arg.rfind("--jobs=", 0) == 0)
      jobs = rispp::util::require_number<unsigned>(value("--jobs="), "--jobs");
    else if (arg.rfind("--seed=", 0) == 0)
      seed = rispp::util::require_number<std::uint64_t>(value("--seed="),
                                                        "--seed");
    else if (arg.rfind("--out=", 0) == 0) out = value("--out=");
    else if (arg.rfind("--format=", 0) == 0) format = value("--format=");
    else if (arg.rfind("--shard=", 0) == 0) shard_spec = value("--shard=");
    else if (arg.rfind("--out-shard=", 0) == 0)
      out_shard = value("--out-shard=");
    else if (arg.rfind("--resume=", 0) == 0) resume = value("--resume=");
    else if (arg.rfind("--agg-out=", 0) == 0) agg_out = value("--agg-out=");
    else if (arg.rfind("--spill-csv=", 0) == 0)
      spill_csv = value("--spill-csv=");
    else if (arg.rfind("--window=", 0) == 0)
      window = count("--window=");
    else if (arg.rfind("--max-points=", 0) == 0)
      max_points = count("--max-points=");
    else if (arg == "--dry-run") dry_run = true;
    else if (arg == "--progress") progress = true;
    else if (arg.rfind("--progress=", 0) == 0) {
      progress = true;
      progress_every = count("--progress=");
    } else if (arg.rfind("--telemetry-out=", 0) == 0)
      telemetry_out = value("--telemetry-out=");
    else if (arg.rfind("--telemetry-trace=", 0) == 0)
      telemetry_trace = value("--telemetry-trace=");
    else if (arg.rfind("--flight-out=", 0) == 0)
      flight_out = value("--flight-out=");
    else return usage(argv[0]);
  }
  if (grid.empty()) return usage(argv[0]);
  if (format.empty())
    format = out.size() >= 5 && out.rfind(".json") == out.size() - 5
                 ? "json"
                 : "csv";
  if (format != "csv" && format != "json") return usage(argv[0]);
  if (!resume.empty() && !out_shard.empty() && resume != out_shard) {
    std::cerr << "error: --resume continues its own file; --out-shard must "
                 "be absent or equal\n";
    return 2;
  }

  auto sweep = rispp::exp::Sweep::parse_grid(grid);
  sweep.base_seed(seed);
  std::size_t shard_index = 0, shard_count = 1;
  if (!shard_spec.empty()) {
    if (!parse_shard(shard_spec, shard_index, shard_count)) {
      std::cerr << "error: --shard wants I/N with I < N, got '" << shard_spec
                << "'\n";
      return 2;
    }
    sweep.shard(shard_index, shard_count);
  }

  if (dry_run) {
    rispp::exp::validate_sim_sweep(sweep);  // typos fail before any worker
    std::cout << sweep.describe();
    std::cout << "plan valid; no points evaluated (--dry-run)\n";
    return 0;
  }

  const auto platform = rispp::exp::Platform::resolve(platform_name);

  const auto header = rispp::exp::ManifestHeader::for_sweep(
      sweep, platform->name(), rispp::exp::kSimEvaluatorId);

  // Resume: read the checkpoint, verify it belongs to this very plan and
  // shard view, and skip whatever it already holds.
  rispp::exp::Runner::RunOptions opts;
  std::vector<bool> completed;
  if (!resume.empty()) {
    const auto manifest = rispp::exp::read_manifest(resume);
    if (!manifest.header.compatible_with(header) ||
        manifest.header.shard_index != sweep.shard_index() ||
        manifest.header.shard_count != sweep.shard_count()) {
      std::cerr << "error: " << resume
                << " was written by a different plan or shard view than "
                   "the flags given\n";
      return 1;
    }
    completed = manifest.completed();
    opts.completed = &completed;
    if (manifest.torn_tail) {
      // Cut the partial line off before appending — otherwise the first
      // resumed row would fuse with it into one malformed line.
      std::filesystem::resize_file(resume, manifest.valid_bytes);
      std::cerr << "note: dropped a torn final line in " << resume
                << " (killed mid-write); its point will be re-evaluated\n";
    }
    out_shard = resume;
  }
  opts.max_points = max_points;
  rispp::exp::RunStats stats;
  opts.stats = &stats;

  // Assemble the sink stack.
  const bool want_table = !out.empty() || (out_shard.empty() &&
                                           agg_out.empty() &&
                                           spill_csv.empty());
  rispp::exp::ResultTable table;
  rispp::exp::TableSink table_sink(table);
  rispp::exp::StreamingAggregator agg;
  std::unique_ptr<rispp::exp::ManifestWriter> manifest_sink;
  std::ofstream spill_file;
  std::unique_ptr<rispp::exp::CsvSpillSink> spill_sink;
  std::vector<rispp::exp::ResultSink*> sinks;
  if (!out_shard.empty()) {
    manifest_sink = std::make_unique<rispp::exp::ManifestWriter>(
        out_shard, header, /*append=*/!resume.empty());
    sinks.push_back(manifest_sink.get());
  }
  if (!spill_csv.empty()) {
    spill_file.open(spill_csv, std::ios::binary);
    if (!spill_file.good()) {
      std::cerr << "error: cannot open " << spill_csv << " for writing\n";
      return 1;
    }
    spill_sink = std::make_unique<rispp::exp::CsvSpillSink>(spill_file);
    sinks.push_back(spill_sink.get());
  }
  if (!agg_out.empty()) sinks.push_back(&agg);
  if (want_table) sinks.push_back(&table_sink);
  rispp::exp::MultiSink multi(sinks);

  // Host telemetry (tentpole of the observability PR): heartbeats, spans and
  // the flight recorder all ride *side* channels — rows and sinks are
  // untouched, so output stays byte-identical with telemetry on or off.
  const bool want_telemetry = progress || !telemetry_out.empty() ||
                              !telemetry_trace.empty() || !flight_out.empty();
  std::ofstream telemetry_file;
  std::unique_ptr<rispp::obs::Telemetry> telemetry;
  std::unique_ptr<rispp::obs::Telemetry::Binding> binding;
  if (want_telemetry) {
    rispp::obs::Telemetry::Config tcfg;
    tcfg.heartbeat_every = progress_every;
    if (!telemetry_out.empty()) {
      telemetry_file.open(telemetry_out, std::ios::binary);
      if (!telemetry_file.good()) {
        std::cerr << "error: cannot open " << telemetry_out
                  << " for writing\n";
        return 1;
      }
      tcfg.heartbeat_out = &telemetry_file;
    }
    if (progress) tcfg.progress_out = &std::cerr;
    tcfg.flight_path = flight_out;
    tcfg.crash_handler = !flight_out.empty();
    tcfg.keep_spans = !telemetry_trace.empty();
    telemetry = std::make_unique<rispp::obs::Telemetry>(tcfg);
    binding =
        std::make_unique<rispp::obs::Telemetry::Binding>(*telemetry, 0);
    opts.telemetry = telemetry.get();
  }

  try {
    rispp::obs::ScopedSpan sweep_span(
        "sweep", "shard " + std::to_string(shard_index) + "/" +
                     std::to_string(shard_count));
    rispp::exp::run_sim_sweep_into(platform, sweep, jobs, multi, opts,
                                   window);
  } catch (...) {
    if (!flight_out.empty())
      std::cerr << "note: flight recorder dumped to " << flight_out << "\n";
    throw;  // main's catch keeps the exit code at 1
  }

  if (!telemetry_trace.empty()) {
    std::ofstream tf(telemetry_trace, std::ios::binary);
    if (!tf.good()) {
      std::cerr << "error: cannot open " << telemetry_trace
                << " for writing\n";
      return 1;
    }
    rispp::obs::write_host_chrome_trace(tf, telemetry->spans());
    std::cerr << "wrote host trace to " << telemetry_trace
              << " (open in Perfetto)\n";
  }

  if (!agg_out.empty()) {
    std::ofstream f(agg_out, std::ios::binary);
    if (!f.good()) {
      std::cerr << "error: cannot open " << agg_out << " for writing\n";
      return 1;
    }
    f << agg.summary_json();
  }

  if (want_table) {
    // A resumed run's sinks only saw the freshly evaluated points; the
    // aggregated table comes from the (now complete) manifest instead.
    if (!resume.empty())
      table = rispp::exp::merge_manifest_files({out_shard},
                                               /*allow_partial=*/true);
    if (out.empty() || out == "-") {
      format == "json" ? table.write_json(std::cout)
                       : table.write_csv(std::cout);
    } else {
      std::ofstream file(out, std::ios::binary);
      if (!file.good()) {
        std::cerr << "error: cannot open " << out << " for writing\n";
        return 1;
      }
      format == "json" ? table.write_json(file) : table.write_csv(file);
      std::cerr << "wrote " << table.size() << " points to " << out << " ("
                << format << ")\n";
    }
  }

  // End-of-run summary: the full RunStats, not just the point count. All of
  // this is collected unconditionally (relaxed per-worker counters), so the
  // summary costs nothing extra and needs no telemetry flags.
  const double wall_s = static_cast<double>(stats.wall_ns) / 1e9;
  char rate_buf[64];
  std::snprintf(rate_buf, sizeof rate_buf, "%.3f s, %.1f pt/s", wall_s,
                wall_s > 0.0 ? static_cast<double>(stats.points_evaluated) /
                                   wall_s
                             : 0.0);
  std::cerr << "evaluated " << stats.points_evaluated << "/"
            << stats.points_total << " points in " << rate_buf
            << " (reorder window " << stats.reorder_window
            << ", peak buffered " << stats.max_reorder_buffered
            << " rows, gate waits " << stats.total_gate_waits() << ")\n";
  for (std::size_t w = 0; w < stats.workers.size(); ++w) {
    const auto& ws = stats.workers[w];
    const double busy_ms = static_cast<double>(ws.busy_ns) / 1e6;
    const double util =
        stats.wall_ns > 0
            ? 100.0 * static_cast<double>(ws.busy_ns) /
                  static_cast<double>(stats.wall_ns)
            : 0.0;
    char line[160];
    std::snprintf(line, sizeof line,
                  "  worker %zu: %llu points, busy %.1f ms (%.0f%%), "
                  "%llu gate waits (%.1f ms), flush %.1f ms\n",
                  w, static_cast<unsigned long long>(ws.points), busy_ms,
                  util, static_cast<unsigned long long>(ws.gate_waits),
                  static_cast<double>(ws.gate_wait_ns) / 1e6,
                  static_cast<double>(ws.flush_ns) / 1e6);
    std::cerr << line;
  }
  if (stats.points_evaluated < stats.points_total) {
    std::cerr << "sweep incomplete (--max-points); resume with --resume="
              << (out_shard.empty() ? std::string("<manifest>") : out_shard)
              << "\n";
    return 3;
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
