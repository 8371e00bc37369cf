#pragma once
/// \file telemetry.hpp
/// \brief Host-side telemetry for the sweep harness: hierarchical wall-clock
/// spans, a lock-free per-worker counter registry, and a progress/heartbeat
/// stream — the run-level introspection layer the *simulated*-cycle profiler
/// (profiler.hpp) cannot see.
///
/// Where obs::Profiler attributes simulated cycles, obs::Telemetry attributes
/// wall-clock time of the serving path itself: how long each sweep point took
/// to evaluate, how busy each worker was, how long the claim gate blocked,
/// how much the sink flushes cost — and it emits periodic JSONL heartbeats
/// ("rispp.telemetry/1", docs/FORMATS.md §9) with points done/total, a
/// Welford-smoothed ETA, per-worker utilization and RSS, so a 102k-point
/// sweep is no longer a black box between launch and exit.
///
/// Design constraints, in order:
///  1. **Results stay byte-identical with telemetry on or off, at any
///     --jobs.** Telemetry never touches rows or sinks; heartbeats are
///     emitted from the (already serialized) flush path to side streams.
///  2. **Near-zero cost when off.** Span sites go through a thread-local
///     binding: unbound threads pay one TLS load and a branch, and record
///     nothing (ScopedSpan.IsANoOpWhenNoTelemetryIsBound). Hostbench's
///     phased_sweep runs every pass with a Telemetry attached, so the cost
///     when on is inside that workload's timings.
///  3. **Per-worker counters are lock-free.** WorkerCounters are relaxed
///     atomics in worker-owned cache lines; the heartbeat emitter reads them
///     live without perturbing the claim gate.
///
/// Span hierarchy (recorded via ScopedSpan guards):
///   sweep → run → point → {point.workload, point.sim, point.report}
///   plus sink.flush and gate.wait on the worker threads. Spans export
/// through the Chrome-trace writer (write_host_chrome_trace, chrome_trace
/// .hpp) so a whole sweep opens in Perfetto next to the simulated-cycle
/// tracks. Every span enter/exit also lands in the crash-safe flight
/// recorder (flight_recorder.hpp), which Telemetry owns.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rispp/obs/flight_recorder.hpp"
#include "rispp/util/stats.hpp"

namespace rispp::obs {

/// One completed wall-clock span. Times are nanoseconds since the owning
/// Telemetry's epoch; `thread` is the telemetry thread ordinal (0 = the
/// host/main thread, 1..N = pool workers).
struct TelemetrySpan {
  const char* name = "";  ///< static string (site name, e.g. "point.sim")
  std::string detail;     ///< optional instance label, e.g. "#37"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
  std::uint32_t depth = 0;  ///< nesting depth at open (0 = top level)
};

/// Live per-worker counters, one cache line each, written by exactly one
/// worker with relaxed atomics and read live by the heartbeat emitter.
/// The exp::Runner keeps a vector of these for every run — with or without
/// a Telemetry attached — and folds them into RunStats at the end.
struct alignas(64) WorkerCounters {
  std::atomic<std::uint64_t> points{0};        ///< points claimed & evaluated
  std::atomic<std::uint64_t> busy_ns{0};       ///< evaluator wall time
  std::atomic<std::uint64_t> gate_waits{0};    ///< claim-gate blocks
  std::atomic<std::uint64_t> gate_wait_ns{0};  ///< time parked at the gate
  std::atomic<std::uint64_t> flush_ns{0};      ///< sink on_row wall time paid
  std::atomic<std::uint64_t> rows_flushed{0};  ///< rows this worker delivered
};

/// Plain snapshot of WorkerCounters — what lands in exp::RunStats.
struct WorkerStats {
  std::uint64_t points = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t gate_waits = 0;
  std::uint64_t gate_wait_ns = 0;
  std::uint64_t flush_ns = 0;
  std::uint64_t rows_flushed = 0;

  static WorkerStats snapshot(const WorkerCounters& c);
};

class Telemetry;

/// RAII guard recording one hierarchical wall-clock span against the
/// telemetry instance bound to this thread (Telemetry::Binding). When no
/// telemetry is bound — the common case — construction is one thread-local
/// load and a branch; instrumented call sites cost nothing measurable.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ScopedSpan(const char* name, std::string detail);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  friend class Telemetry;

  Telemetry* tel_ = nullptr;  ///< nullptr = unbound, dtor is a no-op
  const char* name_ = "";
  std::string detail_;
  std::uint64_t start_ns_ = 0;
  std::uint32_t thread_ = 0;
  std::uint32_t depth_ = 0;
};

class Telemetry {
 public:
  struct Config {
    /// Completed points between heartbeats; 0 = auto:
    /// max(1, points_total / 64), so every point of a run under 128 points
    /// and 64 to 127 heartbeats over a longer one.
    std::size_t heartbeat_every = 0;
    /// JSONL heartbeat stream ("rispp.telemetry/1" records); null = none.
    std::ostream* heartbeat_out = nullptr;
    /// Human-readable one-line progress stream (typically stderr);
    /// null = none.
    std::ostream* progress_out = nullptr;
    /// When non-empty, a run failure (evaluator/sink exception) dumps the
    /// flight recorder here; with `crash_handler` also the fatal-signal path.
    std::string flight_path;
    /// Install the fatal-signal handler (flight_recorder.hpp) for
    /// flight_path. Ignored when flight_path is empty.
    bool crash_handler = false;
    /// Retain completed spans for chrome-trace export. Off: spans still feed
    /// the flight-recorder rings, but nothing accumulates O(points) memory.
    bool keep_spans = true;
  };

  explicit Telemetry(Config cfg);
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Binds `tel` to the current thread as ordinal `thread` for the guard's
  /// lifetime (saving any previous binding — the Runner's inline-worker path
  /// nests). ScopedSpan sites on this thread record against it.
  class Binding {
   public:
    Binding(Telemetry& tel, std::uint32_t thread);
    ~Binding();
    Binding(const Binding&) = delete;
    Binding& operator=(const Binding&) = delete;

   private:
    Telemetry* prev_tel_;
    std::uint32_t prev_thread_;
    std::uint32_t prev_depth_;
  };

  /// The telemetry bound to the calling thread, or nullptr.
  static Telemetry* bound();

  // --- run lifecycle (driven by exp::Runner) -------------------------------

  /// Announces a run: allocates thread slots 0..workers, emits the "start"
  /// heartbeat record, and arms the crash handler when configured.
  void begin_run(std::size_t points_total, unsigned workers,
                 std::size_t reorder_window);
  /// Points at the Runner's live per-worker counters for the lifetime of the
  /// run (heartbeats read them with relaxed loads).
  void attach_workers(const WorkerCounters* counters, std::size_t n);
  /// Called from the Runner's flush path (serialized, ascending `done`)
  /// after rows were delivered; emits a heartbeat every `heartbeat_every`
  /// points and always at done == total.
  void on_progress(std::size_t done);
  /// Emits the "finish" record with final per-worker stats.
  void end_run(std::size_t done, std::size_t max_reorder_buffered);
  /// Records the failure in the flight ring and dumps the recorder to
  /// Config::flight_path (when set). The Runner calls this after joining
  /// workers, before rethrowing. Returns the dump path actually written
  /// ("" when none).
  std::string record_failure(const char* stage, std::string_view what);

  // --- introspection -------------------------------------------------------

  /// Nanoseconds since this instance's (steady-clock) epoch.
  std::uint64_t now_ns() const;
  /// Completed spans, all threads, in completion order per thread. Safe once
  /// recording threads have joined (or from tests driving one thread).
  std::vector<TelemetrySpan> spans() const;
  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }
  std::size_t heartbeats_emitted() const { return heartbeats_; }
  const Config& config() const { return cfg_; }

  /// One "rispp.telemetry/1" JSONL record (compact, newline-terminated)
  /// describing current progress — also the exact line on_progress writes.
  std::string heartbeat_json(std::size_t done) const;

 private:
  friend class ScopedSpan;

  struct ThreadSlot {
    std::vector<TelemetrySpan> spans;  ///< completed, in completion order
  };

  void ensure_threads(std::size_t threads);
  void close_span(const ScopedSpan& span, std::uint64_t end_ns);
  void emit_heartbeat(std::size_t done);
  void progress_line(std::size_t done, double elapsed_ms, double rate,
                     double eta_ms);

  Config cfg_;
  std::chrono::steady_clock::time_point epoch_;
  FlightRecorder flight_;
  std::vector<std::unique_ptr<ThreadSlot>> slots_;
  const WorkerCounters* workers_ = nullptr;
  std::size_t worker_count_ = 0;
  std::size_t points_total_ = 0;
  std::size_t reorder_window_ = 0;
  std::size_t resolved_every_ = 1;
  std::size_t heartbeats_ = 0;
  std::size_t last_emit_done_ = 0;
  std::uint64_t last_emit_ns_ = 0;
  util::Accumulator rates_;  ///< Welford over per-interval rates (ETA)
};

}  // namespace rispp::obs
