#pragma once
/// \file runner.hpp
/// \brief The parallel sweep executor: a worker pool that streams completed
/// rows into a ResultSink in deterministic point order.
///
/// Threading model — the whole reason the session API moved to
/// `shared_ptr<const>`: every worker thread builds its *own* Simulator /
/// RisppManager from the one shared Platform snapshot; mutable state is
/// strictly thread-local, the shared state is strictly immutable.
///
/// Streaming model (the v2 engine): workers claim points from an ordered
/// ticket counter and deliver rows through a bounded reorder buffer, so the
/// sink observes rows in strictly ascending point order no matter which
/// worker finished first — memory stays O(reorder window), not O(points),
/// and an aggregating sink's floating-point folds are identical at any
/// `--jobs`. Backpressure lives at the *claim* gate: a worker does not start
/// point k until fewer than `reorder_window` rows separate it from the next
/// row the sink is owed. The worker holding that next row is always past the
/// gate, so the pipeline cannot deadlock; everyone else parks until the
/// window slides.
///
/// The first evaluator exception cancels outstanding points, joins every
/// worker, and is rethrown on the caller's thread; the sink's `finish()` is
/// *not* called, so spill files remain valid prefixes of a complete run.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rispp/exp/platform.hpp"
#include "rispp/exp/result_table.hpp"
#include "rispp/exp/sink.hpp"
#include "rispp/exp/sweep.hpp"
#include "rispp/obs/telemetry.hpp"

namespace rispp::exp {

/// Metric cells one point evaluation produced, in emission order.
using PointMetrics = std::vector<std::pair<std::string, std::string>>;

/// A point evaluator. Called concurrently from pool workers: it must treat
/// the Platform as read-only (it is const — and shared) and keep everything
/// else local.
using PointFn =
    std::function<PointMetrics(const Platform&, const SweepPoint&)>;

struct RunnerConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). 1 evaluates
  /// inline on the calling thread (no pool).
  unsigned jobs = 1;
  /// Reorder-buffer capacity in rows — the engine's only O(window) row
  /// storage. 0 = max(8, 4 * jobs). Must cover at least the worker count;
  /// smaller values are clamped up.
  std::size_t reorder_window = 0;
};

/// What a run actually did — the checkpoint/resume and bounded-memory
/// contracts are asserted against these numbers, and `rispp_sweep` prints
/// them in its end-of-run summary.
struct RunStats {
  /// Points this run was asked to evaluate (the sweep view minus any
  /// `completed` skips, before the `max_points` cap).
  std::size_t points_total = 0;
  /// Points actually evaluated and delivered to the sink.
  std::size_t points_evaluated = 0;
  /// High-water mark of rows buffered for reordering — bounded by the
  /// resolved reorder window, never by the point count.
  std::size_t max_reorder_buffered = 0;
  /// The resolved window (after defaulting/clamping).
  std::size_t reorder_window = 0;
  /// Wall-clock time of the whole run (claim through join).
  std::uint64_t wall_ns = 0;
  /// Per-worker telemetry: points claimed, evaluator busy time, claim-gate
  /// waits, sink-flush time. Always collected (the counters are relaxed
  /// atomic bumps in worker-owned cache lines — they never perturb the
  /// byte-identical-at-any-jobs contract, which covers *rows*, not stats).
  /// The ticket-claim pool has no steal counter: work distribution shows up
  /// as the per-worker `points` spread, contention as `gate_waits`.
  std::vector<obs::WorkerStats> workers;

  std::uint64_t total_gate_waits() const {
    std::uint64_t n = 0;
    for (const auto& w : workers) n += w.gate_waits;
    return n;
  }
};

class Runner {
 public:
  explicit Runner(std::shared_ptr<const Platform> platform,
                  RunnerConfig cfg = {});

  struct RunOptions {
    /// When set, global point indices marked true are skipped (already
    /// evaluated — the resume path). Size must be >= the sweep's
    /// total_points().
    const std::vector<bool>* completed = nullptr;
    /// Evaluate at most this many points, in view order, then return
    /// normally with a partial run (0 = no cap). Exists to exercise the
    /// kill/resume path deterministically: the sink sees a clean prefix,
    /// exactly as if the process had died after that many checkpoints.
    std::size_t max_points = 0;
    RunStats* stats = nullptr;  ///< filled when non-null
    /// Optional host telemetry: spans per point, live per-worker counters,
    /// heartbeats from the flush path, and a flight-recorder dump when the
    /// run fails. Results are byte-identical with or without it (pinned by
    /// tests/exp_telemetry_test).
    obs::Telemetry* telemetry = nullptr;
  };

  /// Evaluates the sweep view (its shard's points, minus `completed`),
  /// streaming rows into `sink` in ascending global point order. Cells per
  /// row: point parameters first, then the evaluator's metrics. Calls
  /// `sink.finish()` on success (including the max_points partial case).
  void run(const Sweep& sweep, const PointFn& fn, ResultSink& sink,
           const RunOptions& opts) const;
  void run(const Sweep& sweep, const PointFn& fn, ResultSink& sink) const;

  /// Convenience: run into a TableSink and return the aggregated table —
  /// the materialize-all behaviour as one sink among several.
  ResultTable run(const Sweep& sweep, const PointFn& fn) const;

  const Platform& platform() const { return *platform_; }
  /// Resolved worker count (after the jobs=0 → hardware_concurrency rule).
  unsigned jobs() const { return jobs_; }

 private:
  std::shared_ptr<const Platform> platform_;
  unsigned jobs_ = 1;
  std::size_t reorder_window_ = 0;
};

}  // namespace rispp::exp
