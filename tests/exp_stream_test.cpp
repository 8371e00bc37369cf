/// Streaming-engine tests: the ResultSink seam (ordered delivery, bounded
/// reorder buffer, cancellation), sweep sharding and index-addressed point
/// materialization, the JSONL manifest (spill / checkpoint / shard output)
/// with kill-and-resume including torn tails, and the merge determinism
/// contract — merged bytes identical to a single-process run at any shard
/// count and worker count.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "rispp/exp/manifest.hpp"
#include "rispp/exp/platform.hpp"
#include "rispp/exp/runner.hpp"
#include "rispp/exp/sink.hpp"
#include "rispp/exp/standard_eval.hpp"
#include "rispp/exp/sweep.hpp"
#include "rispp/obs/json.hpp"
#include "rispp/util/error.hpp"

namespace {

using namespace rispp::exp;
using rispp::util::PreconditionError;

/// A cheap pure-ISA evaluator (no simulation) for engine-mechanics tests.
PointMetrics cheap_eval(const Platform& platform, const SweepPoint& point) {
  const auto& si = platform.library().find(point.at("si"));
  const auto best =
      si.best_with_budget(point.get_u64("budget", 0), platform.catalog());
  return {{"cycles",
           std::to_string(best ? best->cycles : si.software_cycles())},
          {"feasible", best ? "1" : "0"}};
}

Sweep cheap_sweep(const Platform& platform, std::uint64_t seed = 3) {
  Sweep sweep;
  std::vector<std::string> names;
  for (const auto& si : platform.library().sis()) names.push_back(si.name());
  sweep.axis("si", names)
      .axis("budget", {"0", "2", "4", "8", "16"})
      .base_seed(seed);
  return sweep;
}

/// Records everything it sees, for asserting the delivery contract.
struct RecordingSink : ResultSink {
  std::vector<std::size_t> order;
  ResultTable table;
  bool finished = false;
  void on_row(const ResultRow& row) override {
    order.push_back(row.point);
    table.add(row);
  }
  void finish() override { finished = true; }
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(StreamRunner, SinkSeesRowsInAscendingPointOrderAtAnyJobs) {
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  const auto serial = Runner(platform, {1}).run(sweep, cheap_eval);
  for (const unsigned jobs : {1u, 4u, 8u}) {
    RecordingSink sink;
    RunStats stats;
    Runner::RunOptions opts;
    opts.stats = &stats;
    Runner(platform, {jobs}).run(sweep, cheap_eval, sink, opts);
    ASSERT_EQ(sink.order.size(), sweep.size()) << jobs;
    for (std::size_t i = 1; i < sink.order.size(); ++i)
      EXPECT_LT(sink.order[i - 1], sink.order[i]) << jobs;
    EXPECT_TRUE(sink.finished);
    EXPECT_EQ(sink.table.csv(), serial.csv()) << jobs;
    EXPECT_EQ(stats.points_evaluated, sweep.size());
    EXPECT_LE(stats.max_reorder_buffered, stats.reorder_window);
  }
}

TEST(StreamRunner, ReorderBufferStaysWithinWindowUnderSkew) {
  // Point 0 is deliberately slow: without backpressure the other workers
  // would race ahead and buffer nearly the whole sweep. The claim gate must
  // cap the buffer at the window — O(window), not O(points).
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  const auto slow_first = [](const Platform& p, const SweepPoint& point) {
    if (point.index == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return cheap_eval(p, point);
  };
  RunnerConfig cfg;
  cfg.jobs = 4;
  cfg.reorder_window = 5;
  RecordingSink sink;
  RunStats stats;
  Runner::RunOptions opts;
  opts.stats = &stats;
  Runner(platform, cfg).run(sweep, slow_first, sink, opts);
  EXPECT_EQ(stats.reorder_window, 5u);
  EXPECT_LE(stats.max_reorder_buffered, 5u);
  EXPECT_LT(stats.max_reorder_buffered, sweep.size());
  ASSERT_EQ(sink.order.size(), sweep.size());
  for (std::size_t i = 1; i < sink.order.size(); ++i)
    EXPECT_LT(sink.order[i - 1], sink.order[i]);
}

TEST(StreamRunner, MaxPointsStopsAfterACleanPrefix) {
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  RecordingSink sink;
  RunStats stats;
  Runner::RunOptions opts;
  opts.max_points = 7;
  opts.stats = &stats;
  Runner(platform, {4}).run(sweep, cheap_eval, sink, opts);
  EXPECT_EQ(stats.points_total, sweep.size());
  EXPECT_EQ(stats.points_evaluated, 7u);
  ASSERT_EQ(sink.order.size(), 7u);
  const auto indices = sweep.indices();
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(sink.order[i], indices[i]);
  EXPECT_TRUE(sink.finished);  // a clean partial run still finishes sinks
}

TEST(StreamRunner, CompletedMaskSkipsExactlyThosePoints) {
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  std::vector<bool> completed(sweep.total_points(), false);
  completed[0] = completed[3] = completed[17] = true;
  RecordingSink sink;
  RunStats stats;
  Runner::RunOptions opts;
  opts.completed = &completed;
  opts.stats = &stats;
  Runner(platform, {4}).run(sweep, cheap_eval, sink, opts);
  EXPECT_EQ(stats.points_evaluated, sweep.size() - 3);
  for (const auto p : sink.order)
    EXPECT_TRUE(p != 0 && p != 3 && p != 17) << p;
}

TEST(StreamRunner, SinkExceptionCancelsTheRun) {
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  struct ThrowingSink : ResultSink {
    std::size_t seen = 0;
    void on_row(const ResultRow&) override {
      if (++seen == 3) throw PreconditionError("sink is full");
    }
  };
  for (const unsigned jobs : {1u, 4u}) {
    ThrowingSink sink;
    EXPECT_THROW(Runner(platform, {jobs}).run(sweep, cheap_eval, sink),
                 PreconditionError)
        << jobs;
  }
}

TEST(StreamAggregator, DeterministicAcrossJobsAndKnownValues) {
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  StreamingAggregator serial, parallel;
  Runner(platform, {1}).run(sweep, cheap_eval, serial);
  Runner(platform, {4}).run(sweep, cheap_eval, parallel);
  EXPECT_EQ(serial.summary_json(), parallel.summary_json());
  EXPECT_EQ(serial.rows(), sweep.size());

  // Known values: metric x = 1..100 in point order.
  Sweep plan;
  for (int i = 1; i <= 100; ++i) {
    std::string label = "p";
    label += std::to_string(i);
    plan.add_point({{"x", std::to_string(i)}, {"label", std::move(label)}});
  }
  StreamingAggregator agg;
  for (const auto& p : plan.points()) {
    ResultRow row;
    row.point = p.index;
    row.seed = p.seed;
    row.cells = p.params;
    agg.on_row(row);
  }
  ASSERT_EQ(agg.metrics().size(), 2u);
  const auto& x = agg.metrics()[0];
  EXPECT_EQ(x.name, "x");
  EXPECT_EQ(x.acc.count(), 100u);
  EXPECT_DOUBLE_EQ(x.acc.mean(), 50.5);
  EXPECT_DOUBLE_EQ(x.acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(x.acc.max(), 100.0);
  const auto p50 = x.sketch.percentile(0.50);
  EXPECT_LE(p50.lower, 50.0);
  EXPECT_GT(p50.upper, 50.0);
  // The non-numeric label column folds nothing but is counted.
  const auto& label = agg.metrics()[1];
  EXPECT_EQ(label.name, "label");
  EXPECT_EQ(label.acc.count(), 0u);
  EXPECT_EQ(label.non_numeric, 100u);
  const auto json = agg.summary_json();
  EXPECT_NE(json.find("\"schema\": \"rispp.sweep_summary\""),
            std::string::npos);
  EXPECT_NE(json.find("\"mean\": 50.5"), std::string::npos);
}

TEST(StreamAggregator, HugeValuesKeepEveryDigitInTheSummary) {
  // A summary real is written in full however long it is: 1e70 has 71
  // integer digits and must read back as 1e70, not lose its tail. The
  // sketch holds integers below 2^64 only, so 1e70 has no percentile
  // bracket, while 1.5e19 still lands in [2^63, 2^64).
  StreamingAggregator agg;
  agg.on_row({0, 1, {{"x", "1e70"}, {"y", "1.5e19"}}});
  const auto doc = rispp::obs::json::parse(agg.summary_json());
  const auto& x = doc.at("metrics").items().at(0);
  ASSERT_EQ(x.at("metric").as_string(), "x");
  for (const char* key : {"mean", "min", "max"})
    EXPECT_EQ(x.at(key).as_double(), 1e70) << key;
  for (const char* key : {"p50", "p90", "p99"})
    EXPECT_EQ(x.find(key), nullptr) << key;
  const auto& y = doc.at("metrics").items().at(1);
  ASSERT_EQ(y.at("metric").as_string(), "y");
  for (const char* key : {"p50", "p90", "p99"}) {
    const auto& bracket = y.at(key).items();
    ASSERT_EQ(bracket.size(), 2u) << key;
    EXPECT_EQ(bracket[0].as_double(), 0x1p63) << key;
    EXPECT_EQ(bracket[1].as_double(), 0x1p64) << key;
  }
}

TEST(StreamCsvSpill, MatchesTableCsvForRectangularSweeps) {
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  std::ostringstream spill;
  CsvSpillSink sink(spill);
  Runner(platform, {4}).run(sweep, cheap_eval, sink);
  const auto table = Runner(platform, {1}).run(sweep, cheap_eval);
  EXPECT_EQ(spill.str(), table.csv());
}

TEST(StreamCsvSpill, RejectsColumnsAppearingAfterTheHeader) {
  std::ostringstream out;
  CsvSpillSink sink(out);
  sink.on_row({0, 1, {{"a", "1"}}});
  EXPECT_THROW(sink.on_row({1, 2, {{"a", "2"}, {"b", "3"}}}),
               PreconditionError);
  // Missing cells are fine — they render empty, like ResultTable CSV.
  sink.on_row({2, 3, {}});
  EXPECT_EQ(out.str(), "point,seed,a\n0,1,1\n2,3,\n");
}

TEST(SweepShard, ViewsPartitionThePlanWithUnchangedSeeds) {
  const auto platform = Platform::builtin("h264");
  const auto full = cheap_sweep(*platform);
  const auto all = full.points();
  for (const std::size_t n : {1u, 3u, 8u}) {
    std::set<std::size_t> seen;
    std::size_t view_total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      auto view = cheap_sweep(*platform);
      view.shard(i, n);
      EXPECT_EQ(view.total_points(), all.size());
      const auto pts = view.points();
      EXPECT_EQ(pts.size(), view.size());
      view_total += pts.size();
      for (const auto& p : pts) {
        EXPECT_TRUE(seen.insert(p.index).second) << "overlap at " << p.index;
        EXPECT_EQ(p.seed, all[p.index].seed);
        EXPECT_EQ(p.params, all[p.index].params);
      }
    }
    EXPECT_EQ(view_total, all.size()) << n << " shards";
    EXPECT_EQ(seen.size(), all.size()) << n << " shards";
  }
  Sweep bad = cheap_sweep(*platform);
  EXPECT_THROW(bad.shard(3, 3), PreconditionError);
  EXPECT_THROW(bad.shard(0, 0), PreconditionError);
}

TEST(SweepShard, PointAtMatchesEnumerationInBothModes) {
  const auto platform = Platform::builtin("h264");
  const auto grid = cheap_sweep(*platform);
  const auto pts = grid.points();
  for (const auto& p : pts) {
    const auto q = grid.point_at(p.index);
    EXPECT_EQ(q.index, p.index);
    EXPECT_EQ(q.seed, p.seed);
    EXPECT_EQ(q.params, p.params);
  }
  EXPECT_THROW(grid.point_at(pts.size()), PreconditionError);
  Sweep list;
  list.add_point({{"a", "1"}}).add_point({{"a", "2"}});
  EXPECT_EQ(list.point_at(1).at("a"), "2");
  EXPECT_EQ(list.point_at(1).seed, Sweep::derive_seed(1, 1));
}

TEST(SweepShard, SpecFingerprintAndDescribe) {
  auto a = Sweep::parse_grid("containers=4,8;workload=enc");
  EXPECT_EQ(a.spec(), "containers=4,8;workload=enc");
  auto b = Sweep::parse_grid(a.spec());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Sharding does not change the plan identity; seeds and values do.
  b.shard(1, 2);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.base_seed(9);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(),
            Sweep::parse_grid("containers=4,9;workload=enc").fingerprint());

  const auto text = a.describe(1);
  EXPECT_NE(text.find("total points: 2"), std::string::npos);
  EXPECT_NE(text.find("axis containers (2): 4,8"), std::string::npos);
  EXPECT_NE(text.find("point 0 seed"), std::string::npos);
  EXPECT_NE(text.find("... (1 more points)"), std::string::npos);
}

TEST(ManifestIo, RoundTripsHeaderAndRows) {
  const auto platform = Platform::builtin("h264");
  auto sweep = cheap_sweep(*platform);
  sweep.shard(1, 3);
  const auto header =
      ManifestHeader::for_sweep(sweep, platform->name(), "cheap/1");
  const auto path = temp_path("manifest_roundtrip.jsonl");
  {
    ManifestWriter writer(path, header);
    Runner(platform, {2}).run(sweep, cheap_eval, writer);
    EXPECT_EQ(writer.rows_written(), sweep.size());
  }
  const auto m = read_manifest(path);
  EXPECT_FALSE(m.torn_tail);
  EXPECT_TRUE(m.header.compatible_with(header));
  EXPECT_EQ(m.header.shard_index, 1u);
  EXPECT_EQ(m.header.shard_count, 3u);
  EXPECT_EQ(m.header.grid, sweep.spec());
  ASSERT_EQ(m.rows.size(), sweep.size());
  const auto pts = sweep.points();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(m.rows[i].point, pts[i].index);
    EXPECT_EQ(m.rows[i].seed, pts[i].seed);
  }
  const auto done = m.completed();
  EXPECT_EQ(done.size(), sweep.total_points());
  for (std::size_t k = 0; k < done.size(); ++k)
    EXPECT_EQ(done[k], k % 3 == 1) << k;
}

TEST(ManifestIo, TornTailIsDroppedAndReportsValidPrefix) {
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  const auto header =
      ManifestHeader::for_sweep(sweep, platform->name(), "cheap/1");
  const auto path = temp_path("manifest_torn.jsonl");
  {
    ManifestWriter writer(path, header);
    Runner::RunOptions opts;
    opts.max_points = 4;
    Runner(platform, {1}).run(sweep, cheap_eval, writer, opts);
  }
  const auto intact_bytes = std::filesystem::file_size(path);
  const auto intact = read_manifest(path);
  ASSERT_EQ(intact.rows.size(), 4u);
  EXPECT_EQ(intact.valid_bytes, intact_bytes);
  std::filesystem::resize_file(path, intact_bytes - 5);  // kill mid-write
  const auto torn = read_manifest(path);
  EXPECT_TRUE(torn.torn_tail);
  ASSERT_EQ(torn.rows.size(), 3u);
  // The valid prefix ends where the torn row began: truncating there and
  // re-reading yields a clean manifest.
  std::filesystem::resize_file(path, torn.valid_bytes);
  const auto clean = read_manifest(path);
  EXPECT_FALSE(clean.torn_tail);
  EXPECT_EQ(clean.rows.size(), 3u);
}

TEST(ManifestIo, InteriorCorruptionThrows) {
  const auto path = temp_path("manifest_corrupt.jsonl");
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  const auto header =
      ManifestHeader::for_sweep(sweep, platform->name(), "cheap/1");
  std::ofstream out(path, std::ios::binary);
  out << manifest_header_line(header) << "\n";
  out << "{\"point\":0,\"seed\":garbage}\n";
  out << manifest_row_line({1, Sweep::derive_seed(3, 1), {{"a", "1"}}})
      << "\n";
  out.close();
  EXPECT_THROW(read_manifest(path), PreconditionError);
}

TEST(MergeDeterminism, ByteIdenticalAcrossShardCountsJobsAndResume) {
  const auto platform = Platform::builtin("h264");
  const auto reference =
      Runner(platform, {1}).run(cheap_sweep(*platform), cheap_eval);
  const auto ref_csv = reference.csv();
  const auto ref_json = reference.json();

  for (const std::size_t shards : {1u, 3u, 8u}) {
    for (const unsigned jobs : {1u, 4u}) {
      std::vector<std::string> paths;
      for (std::size_t i = 0; i < shards; ++i) {
        auto view = cheap_sweep(*platform);
        view.shard(i, shards);
        const auto path = temp_path("merge_s" + std::to_string(shards) +
                                    "_j" + std::to_string(jobs) + "_" +
                                    std::to_string(i) + ".jsonl");
        ManifestWriter writer(
            path, ManifestHeader::for_sweep(view, platform->name(),
                                            "cheap/1"));
        Runner(platform, {jobs}).run(view, cheap_eval, writer);
        paths.push_back(path);
      }
      const auto merged = merge_manifest_files(paths);
      EXPECT_EQ(merged.csv(), ref_csv) << shards << " shards, " << jobs
                                       << " jobs";
      EXPECT_EQ(merged.json(), ref_json) << shards << " shards, " << jobs
                                         << " jobs";
    }
  }

  // Kill/resume: evaluate half of one full-view run, then resume the rest
  // into the same file — merged output must still match byte for byte.
  const auto path = temp_path("merge_resumed.jsonl");
  auto sweep = cheap_sweep(*platform);
  const auto header =
      ManifestHeader::for_sweep(sweep, platform->name(), "cheap/1");
  {
    ManifestWriter writer(path, header);
    Runner::RunOptions opts;
    opts.max_points = sweep.size() / 2;
    Runner(platform, {4}).run(sweep, cheap_eval, writer, opts);
  }
  {
    const auto checkpoint = read_manifest(path);
    const auto completed = checkpoint.completed();
    ManifestWriter writer(path, header, /*append=*/true);
    Runner::RunOptions opts;
    opts.completed = &completed;
    Runner(platform, {4}).run(sweep, cheap_eval, writer, opts);
  }
  EXPECT_EQ(merge_manifest_files({path}).csv(), ref_csv);
}

TEST(MergeDeterminism, RejectsMissingForeignAndConflictingRows) {
  const auto platform = Platform::builtin("h264");
  auto s0 = cheap_sweep(*platform);
  s0.shard(0, 2);
  const auto p0 = temp_path("merge_bad_s0.jsonl");
  {
    ManifestWriter writer(
        p0, ManifestHeader::for_sweep(s0, platform->name(), "cheap/1"));
    Runner(platform, {1}).run(s0, cheap_eval, writer);
  }
  // Missing shard 1: the error lists absent points.
  try {
    merge_manifest_files({p0});
    FAIL() << "expected missing points to throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1"), std::string::npos);
  }
  EXPECT_EQ(merge_manifest_files({p0}, /*allow_partial=*/true).size(),
            s0.size());

  // A shard of a different plan (other base seed) is refused.
  auto foreign = cheap_sweep(*platform, /*seed=*/99);
  foreign.shard(1, 2);
  const auto pf = temp_path("merge_bad_foreign.jsonl");
  {
    ManifestWriter writer(
        pf, ManifestHeader::for_sweep(foreign, platform->name(), "cheap/1"));
    Runner(platform, {1}).run(foreign, cheap_eval, writer);
  }
  EXPECT_THROW(merge_manifest_files({p0, pf}), PreconditionError);

  // Conflicting duplicate: same point, different cells.
  auto m = read_manifest(p0);
  auto tampered = m;
  tampered.rows.at(0).cells.at(0).second += "x";
  EXPECT_THROW(merge_manifests({m, tampered}), PreconditionError);
  // Identical duplicates (overlapping shards) are fine.
  EXPECT_EQ(merge_manifests({m, m}, /*allow_partial=*/true).size(),
            m.rows.size());
}

TEST(MergeDeterminism, SimEvaluatorGoldenAcrossShardsMatchesCheckedInCsv) {
  // The real evaluator on the ShardGolden grid: 3 shards, mixed jobs, merged —
  // byte-identical to tests/data/sweep_golden.csv.
  auto base = Sweep::parse_grid(
      "workload=enc;frames=1;mb=20;containers=4,6;quantum=10000,30000");
  base.base_seed(1);
  const auto platform = Platform::builtin("h264_frame");
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < 3; ++i) {
    auto view = base;
    view.shard(i, 3);
    const auto path = temp_path("golden_shard_" + std::to_string(i) +
                                ".jsonl");
    ManifestWriter writer(
        path,
        ManifestHeader::for_sweep(view, platform->name(), kSimEvaluatorId));
    run_sim_sweep_into(platform, view, i % 2 ? 1 : 2, writer);
    paths.push_back(path);
  }
  const auto merged = merge_manifest_files(paths);
  std::ifstream in(std::string(RISPP_TEST_DATA_DIR) + "/sweep_golden.csv",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(merged.csv(), golden.str());
}

TEST(StreamCancellation, ThrowingPointFnJoinsWorkersWithSpillSinkOpen) {
  // A mid-sweep evaluator exception with a manifest (spill) sink open must
  // cancel outstanding points, join every worker (TSan watches for leaked
  // threads and races), leave the manifest a valid prefix, and not call
  // finish(). Runs under the `concurrency` ctest label.
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  const auto cursed = [](const Platform& p, const SweepPoint& point) {
    if (point.index == 10) throw PreconditionError("point 10 is cursed");
    return cheap_eval(p, point);
  };
  for (const unsigned jobs : {1u, 4u, 8u}) {
    const auto path =
        temp_path("cancel_spill_j" + std::to_string(jobs) + ".jsonl");
    std::atomic<bool> finished{false};
    struct NotifyingWriter : ManifestWriter {
      std::atomic<bool>* flag;
      NotifyingWriter(const std::string& p, const ManifestHeader& h,
                      std::atomic<bool>* f)
          : ManifestWriter(p, h), flag(f) {}
      void finish() override {
        flag->store(true);
        ManifestWriter::finish();
      }
    } writer(path,
             ManifestHeader::for_sweep(sweep, platform->name(), "cheap/1"),
             &finished);
    EXPECT_THROW(Runner(platform, {jobs}).run(sweep, cursed, writer),
                 PreconditionError)
        << jobs;
    EXPECT_FALSE(finished.load()) << jobs;
    // The file is a clean prefix: readable, rows only for points < 10.
    const auto m = read_manifest(path);
    EXPECT_FALSE(m.torn_tail);
    EXPECT_LT(m.rows.size(), sweep.size());
    for (const auto& row : m.rows) EXPECT_LT(row.point, 10u);
  }
}

TEST(StreamCancellation, FirstEvaluatorErrorWinsAndNothingDeadlocks) {
  // Every point throws; whatever the interleaving, the run must terminate
  // and rethrow exactly one of them.
  const auto platform = Platform::builtin("h264");
  const auto sweep = cheap_sweep(*platform);
  const auto always = [](const Platform&, const SweepPoint&) -> PointMetrics {
    throw PreconditionError("every point is cursed");
  };
  for (const unsigned jobs : {1u, 4u})
    EXPECT_THROW(Runner(platform, {jobs}).run(sweep, always), PreconditionError);
}

}  // namespace
