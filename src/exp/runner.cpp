#include "rispp/exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <thread>

#include "rispp/util/error.hpp"

namespace rispp::exp {

namespace {

std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Extracts a printable message from the in-flight exception (for the
/// flight-recorder note; the exception itself is rethrown untouched).
std::string current_exception_what() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "non-std exception";
  }
}

}  // namespace

Runner::Runner(std::shared_ptr<const Platform> platform, RunnerConfig cfg)
    : platform_(std::move(platform)),
      jobs_(cfg.jobs),
      reorder_window_(cfg.reorder_window) {
  RISPP_REQUIRE(platform_ != nullptr, "runner needs a platform");
  if (jobs_ == 0) {
    jobs_ = std::thread::hardware_concurrency();
    if (jobs_ == 0) jobs_ = 1;
  }
}

void Runner::run(const Sweep& sweep, const PointFn& fn, ResultSink& sink,
                 const RunOptions& opts) const {
  RISPP_REQUIRE(fn != nullptr, "runner needs a point evaluator");

  // The work list: global indices of the sweep view, ascending, minus
  // already-completed points (the resume path). 8 bytes per point — the
  // only O(points) state a streaming run keeps.
  std::vector<std::size_t> todo;
  if (opts.completed != nullptr)
    RISPP_REQUIRE(opts.completed->size() >= sweep.total_points(),
                  "completed mask smaller than the sweep plan");
  todo.reserve(sweep.size());
  for (const auto k : sweep.indices())
    if (opts.completed == nullptr || !(*opts.completed)[k]) todo.push_back(k);

  RunStats stats;
  stats.points_total = todo.size();
  if (opts.max_points != 0 && todo.size() > opts.max_points)
    todo.resize(opts.max_points);

  const unsigned workers = static_cast<unsigned>(
      std::max<std::size_t>(1, std::min<std::size_t>(jobs_, todo.size())));
  std::size_t window =
      reorder_window_ != 0 ? reorder_window_
                           : std::max<std::size_t>(8, 4 * std::size_t{jobs_});
  window = std::max<std::size_t>(window, workers);
  stats.reorder_window = window;

  // Host telemetry: per-worker counters are collected for every run (relaxed
  // bumps in worker-owned cache lines — they feed RunStats and the sweep
  // CLI's summary); spans, heartbeats and the flight recorder only engage
  // when a Telemetry is attached.
  obs::Telemetry* const tel = opts.telemetry;
  std::vector<obs::WorkerCounters> counters(workers);
  if (tel != nullptr) {
    tel->begin_run(todo.size(), workers, window);
    tel->attach_workers(counters.data(), counters.size());
  }
  const auto run_start_ns = mono_ns();

  // Shared run state. `positions` are indices into `todo` (dense), so the
  // claim-gate arithmetic is independent of shard striding.
  std::atomic<std::size_t> next_claim{0};
  std::mutex mutex;
  std::condition_variable admitted;
  std::map<std::size_t, ResultRow> buffer;  // completed, waiting their turn
  std::size_t next_flush = 0;               // next position the sink is owed
  std::size_t max_buffered = 0;
  bool cancelled = false;
  std::exception_ptr first_error;
  std::string first_error_what;
  const char* first_error_stage = "";

  const auto fail = [&](std::unique_lock<std::mutex>& lock,
                        const char* stage) {
    (void)lock;  // must be held
    if (!first_error) {
      first_error = std::current_exception();
      first_error_what = current_exception_what();
      first_error_stage = stage;
    }
    cancelled = true;
    admitted.notify_all();
  };

  const auto evaluate = [&](std::size_t pos) {
    const auto point = sweep.point_at(todo[pos]);
    ResultRow row;
    row.point = point.index;
    row.seed = point.seed;
    row.cells = point.params;
    std::string detail = "#";  // "#" + to_string trips GCC 12's -Wrestrict
    detail += std::to_string(point.index);
    obs::ScopedSpan span("point", std::move(detail));
    auto metrics = fn(*platform_, point);
    row.cells.insert(row.cells.end(),
                     std::make_move_iterator(metrics.begin()),
                     std::make_move_iterator(metrics.end()));
    return row;
  };

  const auto worker = [&](unsigned w) {
    // Worker threads bind to telemetry ordinal w+1 (ordinal 0 is the host
    // thread); the binding also covers the inline single-worker path, which
    // temporarily rebinds the caller's thread.
    std::unique_ptr<obs::Telemetry::Binding> binding;
    if (tel != nullptr)
      binding = std::make_unique<obs::Telemetry::Binding>(*tel, w + 1);
    auto& ctr = counters[w];
    for (;;) {
      const auto pos = next_claim.fetch_add(1, std::memory_order_relaxed);
      if (pos >= todo.size()) return;
      {
        // Backpressure: start point `pos` only once it is within the
        // reorder window of the next row owed to the sink. The worker
        // holding position `next_flush` always passes, so the window
        // always slides and waiters always wake.
        std::unique_lock<std::mutex> lock(mutex);
        if (cancelled) return;
        if (pos >= next_flush + window) {
          ctr.gate_waits.fetch_add(1, std::memory_order_relaxed);
          const auto t0 = mono_ns();
          {
            obs::ScopedSpan wait_span("gate.wait");
            admitted.wait(
                lock, [&] { return cancelled || pos < next_flush + window; });
          }
          ctr.gate_wait_ns.fetch_add(mono_ns() - t0,
                                     std::memory_order_relaxed);
        }
        if (cancelled) return;
      }
      ResultRow row;
      const auto busy0 = mono_ns();
      try {
        row = evaluate(pos);
      } catch (...) {
        ctr.busy_ns.fetch_add(mono_ns() - busy0, std::memory_order_relaxed);
        std::unique_lock<std::mutex> lock(mutex);
        fail(lock, "evaluator exception");
        return;
      }
      ctr.busy_ns.fetch_add(mono_ns() - busy0, std::memory_order_relaxed);
      ctr.points.fetch_add(1, std::memory_order_relaxed);
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (cancelled) return;
        buffer.emplace(pos, std::move(row));
        max_buffered = std::max(max_buffered, buffer.size());
        std::size_t flushed = 0;
        const auto flush0 = mono_ns();
        try {
          // Drain every in-order row. Sink calls run under the lock: they
          // are serialized, ordered, and any sink exception cancels the
          // run exactly like an evaluator exception.
          obs::ScopedSpan flush_span("sink.flush");
          for (auto it = buffer.find(next_flush); it != buffer.end();
               it = buffer.find(next_flush)) {
            sink.on_row(it->second);
            buffer.erase(it);
            ++next_flush;
            ++flushed;
          }
        } catch (...) {
          ctr.flush_ns.fetch_add(mono_ns() - flush0,
                                 std::memory_order_relaxed);
          fail(lock, "sink exception");
          return;
        }
        if (flushed > 0) {
          ctr.flush_ns.fetch_add(mono_ns() - flush0,
                                 std::memory_order_relaxed);
          ctr.rows_flushed.fetch_add(flushed, std::memory_order_relaxed);
          // Heartbeats ride the flush path: already serialized (the lock is
          // held), `next_flush` is monotone, and nothing here ever touches
          // a row — results stay byte-identical with telemetry on or off.
          if (tel != nullptr) tel->on_progress(next_flush);
        }
        admitted.notify_all();
      }
    }
  };

  {
    obs::ScopedSpan run_span("run", sweep.spec());
    if (workers <= 1 || todo.size() <= 1) {
      worker(0);  // inline: already ordered, gate always open
    } else {
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back([&worker, w] { worker(w); });
      for (auto& t : pool) t.join();
    }
  }

  stats.points_evaluated = next_flush;
  stats.max_reorder_buffered = max_buffered;
  stats.wall_ns = mono_ns() - run_start_ns;
  stats.workers.reserve(counters.size());
  for (const auto& c : counters)
    stats.workers.push_back(obs::WorkerStats::snapshot(c));
  if (opts.stats != nullptr) *opts.stats = stats;
  if (first_error) {
    // Workers are joined: the flight rings are quiescent, so the dump sees
    // every worker's last moments. end_run is *not* called — mirroring the
    // sink contract (no finish() on a failed run).
    if (tel != nullptr) {
      tel->record_failure(first_error_stage, first_error_what);
      tel->attach_workers(nullptr, 0);
    }
    std::rethrow_exception(first_error);
  }
  if (tel != nullptr) {
    tel->end_run(next_flush, max_buffered);
    tel->attach_workers(nullptr, 0);
  }
  sink.finish();
}

void Runner::run(const Sweep& sweep, const PointFn& fn,
                 ResultSink& sink) const {
  run(sweep, fn, sink, RunOptions());
}

ResultTable Runner::run(const Sweep& sweep, const PointFn& fn) const {
  ResultTable table;
  TableSink sink(table);
  run(sweep, fn, sink);
  return table;
}

}  // namespace rispp::exp
