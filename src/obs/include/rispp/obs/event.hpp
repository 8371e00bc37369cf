#pragma once
/// \file event.hpp
/// \brief Structured run-time events — the observability layer's vocabulary.
///
/// The simulator and the run-time manager emit timestamped typed events
/// through an EventSink — their only event output: neither keeps a log of
/// its own, so a caller that wants the stream attaches a TraceRecorder.
/// Exporters (chrome_trace.hpp, csv_trace.hpp) turn a recorded stream into
/// files; profiler.hpp aggregates it. The disabled path is a
/// null sink pointer: every emission site is a single `if (sink)` branch,
/// so instrumented code pays nothing when tracing is off. The hostbench
/// ledger measures both per event: `emit.base_ns_per_event` is a run with
/// no sink, `emit.ns_per_event` what a null sink adds to it.
///
/// Events are emitted at *issue* time: a RotationFinished event is recorded
/// the moment the transfer is booked, carrying its (future) completion
/// timestamp. Streams are therefore ordered by emission, not by timestamp —
/// exporters and consumers must not assume `at` is monotone.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rispp::obs {

/// Ids in an event stream (task, SI, container) index dense state in
/// the stream's producer (rt::RisppManager's upgrade rows) and consumer
/// (obs::Profiler), counted from each id's first value (−1 for tasks).
/// Platforms have a few thousand tasks at most and far fewer SIs and
/// containers; an id at or past this many slots comes from a corrupt
/// stream, and growing a vector to it would allocate without bound.
inline constexpr std::int64_t kMaxDenseIds = std::int64_t{1} << 20;

enum class EventKind {
  SiExecuted,        ///< one SI invocation completed (hw or sw Molecule)
  ForecastSeen,      ///< a Forecast point fired
  ForecastReleased,  ///< a forecast declared its SI no longer needed
  RotationStarted,   ///< a bitstream transfer begins occupying the port
  RotationFinished,  ///< the transfer completes; the Atom becomes usable
  RotationCancelled, ///< a queued (not yet started) transfer was cancelled
  RotationFailed,    ///< the transfer ended Failed/Poisoned; nothing usable
  AcQuarantined,     ///< a repeatedly-failing container left service
  MoleculeUpgraded,  ///< an SI's effective latency changed (SW→HW→faster)
  TaskSwitch,        ///< the round-robin scheduler switched tasks
  AtomEvicted,       ///< a loaded Atom was given up to a new rotation
};

const char* to_string(EventKind k);
/// Inverse of to_string; returns false when `s` names no kind.
bool kind_from_string(const std::string& s, EventKind& out);

/// One timestamped event. Unused reference fields stay at their -1 / 0
/// defaults; consumers key off `kind` to know which fields are meaningful.
struct Event {
  std::uint64_t at = 0;           ///< cycle timestamp
  EventKind kind{};
  std::int32_t task = -1;         ///< task id (simulator slot), -1 = none
  std::int32_t container = -1;    ///< Atom Container id, -1 = none
  std::int64_t si = -1;           ///< SI index, -1 = none
  std::int64_t atom = -1;         ///< Atom kind (catalog index), -1 = none
  /// SiExecuted: invocation latency. Rotation*: transfer duration (the
  /// hw::ReconfigPort latency, excluding port queueing). MoleculeUpgraded:
  /// the new latency.
  std::uint64_t cycles = 0;
  /// MoleculeUpgraded: the previous latency. RotationCancelled /
  /// RotationFailed: the start cycle of the cancelled/failed booking
  /// (identifies the span to drop or mark faulty). RotationStarted /
  /// RotationFinished: the cycle the transfer was *booked* at — `at` minus
  /// this is the port queueing delay, kept separate from the transfer time.
  std::uint64_t prev_cycles = 0;
  bool hardware = false;          ///< SiExecuted/MoleculeUpgraded: hw Molecule

  friend bool operator==(const Event&, const Event&) = default;
};

/// Receiver of an event stream. Implementations must tolerate events whose
/// timestamps are not monotone (see file comment).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const Event& e) = 0;

  /// Batched delivery: one virtual call for a contiguous run of events, in
  /// emission order. Producers on hot paths buffer into an EventBatch and
  /// hand over whole runs; the default unrolls to on_event so every existing
  /// sink keeps working unchanged. High-volume sinks (TraceRecorder)
  /// override this with a bulk implementation.
  virtual void on_batch(std::span<const Event> events) {
    for (const auto& e : events) on_event(e);
  }
};

/// Buffers the stream in emission order — the input to every exporter.
class TraceRecorder final : public EventSink {
 public:
  void on_event(const Event& e) override { events_.push_back(e); }
  void on_batch(std::span<const Event> events) override {
    events_.insert(events_.end(), events.begin(), events.end());
  }
  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

/// Fans one stream out to two sinks (e.g. a TraceRecorder for the trace
/// file and a Profiler for the run report). Either side may be null.
class TeeSink final : public EventSink {
 public:
  TeeSink(EventSink* a, EventSink* b) : a_(a), b_(b) {}
  void on_event(const Event& e) override {
    if (a_) a_->on_event(e);
    if (b_) b_->on_event(e);
  }
  void on_batch(std::span<const Event> events) override {
    if (a_) a_->on_batch(events);
    if (b_) b_->on_batch(events);
  }

 private:
  EventSink* a_;
  EventSink* b_;
};

/// Small emission buffer between an instrumented hot path and its sink:
/// emit() is a plain vector append (no virtual call), and whole runs are
/// handed to the sink with a single on_batch() call at flush points. The
/// run-time manager flushes at reallocation (poll / rotation) boundaries,
/// on capacity, and on destruction; hosts that read the sink mid-stream
/// (tests driving a RisppManager directly) call flush() — or the manager's
/// flush_events() — first. Order is preserved exactly: sinks observe the
/// same sequence they would have seen unbatched, just later in wall time.
class EventBatch {
 public:
  explicit EventBatch(EventSink* sink = nullptr) : sink_(sink) {
    if (sink_) buffer_.reserve(kCapacity);
  }
  ~EventBatch() { flush(); }
  EventBatch(const EventBatch&) = delete;
  EventBatch& operator=(const EventBatch&) = delete;

  /// True when a sink is attached — emission sites guard on this so the
  /// disabled path stays one dead branch, exactly like the raw-sink idiom.
  bool enabled() const { return sink_ != nullptr; }

  /// Appends one event (caller must have checked enabled()).
  void emit(const Event& e) {
    buffer_.push_back(e);
    if (buffer_.size() >= kCapacity) flush();
  }

  /// Delivers everything buffered to the sink, in emission order.
  void flush() {
    if (sink_ == nullptr || buffer_.empty()) return;
    sink_->on_batch(buffer_);
    buffer_.clear();
  }

  static constexpr std::size_t kCapacity = 64;

 private:
  EventSink* sink_;
  std::vector<Event> buffer_;
};

/// Static names and unit conversions the exporters need to render a stream.
/// Indices not covered by a name vector fall back to "si#3"-style labels.
struct TraceMeta {
  double clock_mhz = 100.0;             ///< converts cycles to microseconds
  unsigned containers = 0;              ///< Atom Container count (track hint)
  std::vector<std::string> task_names;  ///< by simulator task id
  std::vector<std::string> si_names;    ///< by SI index
  std::vector<std::string> atom_names;  ///< by catalog index

  std::string task_name(std::int32_t t) const;
  std::string si_name(std::int64_t s) const;
  std::string atom_name(std::int64_t a) const;
};

}  // namespace rispp::obs
