#include "rispp/obs/chrome_trace.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rispp/obs/json.hpp"
#include "rispp/obs/profiler.hpp"

namespace rispp::obs {

namespace {

constexpr int kPid = 1;
constexpr std::int64_t kSchedulerTid = 0;
constexpr std::int64_t kPortTid = 50;
constexpr std::int64_t kTaskTidBase = 1;
constexpr std::int64_t kContainerTidBase = 100;

/// The framing both exporters share: `{"displayTimeUnit":"ms",
/// "traceEvents":[`, one compact JSON object per event and line, `]}`.
/// Every event ends with its "args" object: begin() opens an event and
/// args() its "args"; the next begin(), or close(), closes both and writes
/// the event's line.
class TraceEvents {
 public:
  TraceEvents(std::ostream& out, int pid) : out_(&out), pid_(pid) {
    *out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  }
  void close() {
    finish();
    *out_ << "\n]}\n";
  }

  json::Writer& begin() {
    finish();
    w_.begin_object();
    open_ = true;
    return w_;
  }
  json::Writer& args() {
    w_.key("args").begin_object();
    return w_;
  }

  /// A metadata ("ph":"M") event such as "thread_name"; returns the writer
  /// inside its "args".
  json::Writer& metadata(const char* what, std::int64_t tid) {
    auto& w = begin();
    w.key("name").str(what);
    w.key("ph").str("M");
    w.key("pid").integer(pid_);
    w.key("tid").integer(tid);
    return args();
  }

 private:
  void finish() {
    if (!open_) return;
    w_.end_object();
    w_.end_object();
    *out_ << separator_ << w_.take();
    separator_ = ",\n";
    open_ = false;
  }

  std::ostream* out_;
  int pid_;
  json::Writer w_{json::Writer::Layout::Compact};
  bool open_ = false;  ///< an event is being written
  const char* separator_ = "\n";
};

/// The simulated-cycle trace (pid 1), cycles shown as microseconds with six
/// decimals (docs/FORMATS.md §5).
class CycleTrace : public TraceEvents {
 public:
  CycleTrace(std::ostream& out, double clock_mhz)
      : TraceEvents(out, kPid), mhz_(clock_mhz) {}

  /// Names thread track `tid` and sorts it by its tid.
  void track(std::int64_t tid, std::string_view name) {
    metadata("thread_name", tid).key("name").str(name);
    metadata("thread_sort_index", tid).key("sort_index").integer(tid);
  }

  /// Opens an event of phase `ph` at cycle `at` and returns the writer
  /// inside its "args": a span ("X") lasts `cycles`, an instant ("i") is
  /// thread-scoped, and a counter ("C") belongs to the process, not to
  /// track `tid`.
  json::Writer& event(std::string_view name, const char* cat,
                      std::string_view ph, std::uint64_t at,
                      std::int64_t tid = 0, std::uint64_t cycles = 0) {
    auto& w = begin();
    w.key("name").str(name);
    w.key("cat").str(cat);
    w.key("ph").str(ph);
    if (ph == "i") w.key("s").str("t");
    w.key("ts").real(us(at), kDecimals);
    if (ph == "X") w.key("dur").real(us(cycles), kDecimals);
    w.key("pid").integer(kPid);
    if (ph != "C") w.key("tid").integer(tid);
    return args();
  }

 private:
  static constexpr int kDecimals = 6;

  double us(std::uint64_t cycles) const {
    return static_cast<double>(cycles) / mhz_;
  }

  double mhz_;
};

}  // namespace

void write_chrome_trace(std::ostream& out, const std::vector<Event>& events,
                        const TraceMeta& meta) {
  const double mhz = meta.clock_mhz > 0 ? meta.clock_mhz : 100.0;

  // Track extents: count tasks/containers actually referenced so traces
  // without meta hints still get named tracks.
  std::int64_t tasks = static_cast<std::int64_t>(meta.task_names.size());
  std::int64_t containers = static_cast<std::int64_t>(meta.containers);
  bool any_rotation = false, any_switch = false;
  for (const auto& e : events) {
    tasks = std::max<std::int64_t>(tasks, e.task + 1);
    containers = std::max<std::int64_t>(containers, e.container + 1);
    any_rotation |= e.kind == EventKind::RotationStarted;
    any_switch |= e.kind == EventKind::TaskSwitch;
  }

  // Cancelled bookings, keyed by (container, transfer-start cycle): their
  // RotationStarted/Finished spans never happen and must not be drawn. The
  // mapped value is the cancellation cycle (when the queue counter drops).
  std::map<std::pair<std::int32_t, std::uint64_t>, std::uint64_t> cancelled;
  for (const auto& e : events)
    if (e.kind == EventKind::RotationCancelled)
      cancelled.emplace(std::pair{e.container, e.prev_cycles}, e.at);

  CycleTrace w(out, mhz);
  w.metadata("process_name", kSchedulerTid).key("name").str("rispp");
  if (any_switch) w.track(kSchedulerTid, "scheduler");
  for (std::int64_t t = 0; t < tasks; ++t)
    w.track(kTaskTidBase + t,
            "task " + meta.task_name(static_cast<std::int32_t>(t)));
  if (any_rotation) w.track(kPortTid, "SelectMap port");
  for (std::int64_t c = 0; c < containers; ++c)
    w.track(kContainerTidBase + c, "AC " + std::to_string(c));

  for (const auto& e : events) {
    const auto task_tid = kTaskTidBase + std::max<std::int64_t>(e.task, 0);
    const auto ac_tid = kContainerTidBase + std::max<std::int64_t>(e.container, 0);
    const auto molecule = e.hardware ? "hw" : "sw";
    switch (e.kind) {
      case EventKind::SiExecuted: {
        auto& a =
            w.event(meta.si_name(e.si), "si", "X", e.at, task_tid, e.cycles);
        a.key("cycles").integer(e.cycles);
        a.key("molecule").str(molecule);
        break;
      }
      case EventKind::ForecastSeen:
        w.event("forecast " + meta.si_name(e.si), "forecast", "i", e.at,
                task_tid).key("si").str(meta.si_name(e.si));
        break;
      case EventKind::ForecastReleased:
        w.event("release " + meta.si_name(e.si), "forecast", "i", e.at,
                task_tid).key("si").str(meta.si_name(e.si));
        break;
      case EventKind::RotationStarted: {
        if (cancelled.count({e.container, e.at})) break;
        const auto atom = meta.atom_name(e.atom);
        const auto rotation = [&](std::string_view name, std::int64_t tid) {
          auto& a = w.event(name, "rotation", "X", e.at, tid, e.cycles);
          a.key("atom").str(atom);
          a.key("container").integer(e.container);
          a.key("cycles").integer(e.cycles);
        };
        rotation("rotate " + atom, ac_tid);
        rotation("rotate " + atom + " → AC " + std::to_string(e.container),
                 kPortTid);
        break;
      }
      case EventKind::RotationFinished:
        break;  // the span is drawn from RotationStarted
      case EventKind::RotationCancelled:
        w.event("cancel " + meta.atom_name(e.atom), "rotation", "i", e.at,
                ac_tid).key("atom").str(meta.atom_name(e.atom));
        break;
      case EventKind::RotationFailed: {
        // The faulty transfer's span was drawn from RotationStarted; this
        // marks its end as a failure (the Atom never became usable).
        auto& a = w.event("fail " + meta.atom_name(e.atom), "fault", "i",
                          e.at, ac_tid);
        a.key("atom").str(meta.atom_name(e.atom));
        a.key("container").integer(e.container);
        break;
      }
      case EventKind::AcQuarantined:
        w.event("quarantine AC " + std::to_string(e.container), "fault", "i",
                e.at, ac_tid).key("container").integer(e.container);
        break;
      case EventKind::MoleculeUpgraded: {
        auto& a = w.event("upgrade " + meta.si_name(e.si), "upgrade", "i",
                          e.at, task_tid);
        a.key("from_cycles").integer(e.prev_cycles);
        a.key("to_cycles").integer(e.cycles);
        a.key("molecule").str(molecule);
        break;
      }
      case EventKind::TaskSwitch:
        w.event("switch → " + meta.task_name(e.task), "sched", "i", e.at,
                kSchedulerTid).key("task").str(meta.task_name(e.task));
        break;
      case EventKind::AtomEvicted:
        w.event("evict " + meta.atom_name(e.atom), "rotation", "i", e.at,
                ac_tid).key("atom").str(meta.atom_name(e.atom));
        break;
    }
  }

  // Port counters: occupancy as a 0/1 square wave at transfer edges, and
  // queued-booking depth (+1 when booked, −1 at start or cancellation).
  if (any_rotation) {
    std::vector<std::pair<std::uint64_t, int>> busy, queue;
    for (const auto& e : events) {
      if (e.kind != EventKind::RotationStarted) continue;
      queue.emplace_back(e.prev_cycles, +1);
      if (const auto it = cancelled.find({e.container, e.at});
          it != cancelled.end()) {
        queue.emplace_back(it->second, -1);
      } else {
        queue.emplace_back(e.at, -1);
        busy.emplace_back(e.at, +1);
        busy.emplace_back(e.at + e.cycles, -1);
      }
    }
    std::stable_sort(busy.begin(), busy.end());
    std::stable_sort(queue.begin(), queue.end());
    int level = 0;
    for (const auto& [at, delta] : busy) {
      level += delta;
      w.event("port busy", "counter", "C", at).key("busy").integer(level);
    }
    level = 0;
    for (const auto& [at, delta] : queue) {
      level += delta;
      w.event("port queue", "counter", "C", at).key("queued").integer(level);
    }
  }
  // Running cycle-attribution totals, sampled at task-switch boundaries.
  if (any_switch) {
    Profiler profiler(meta);
    for (const auto& e : events) {
      profiler.on_event(e);
      if (e.kind != EventKind::TaskSwitch) continue;
      const auto b = profiler.running_totals();
      auto& a = w.event("cycle buckets", "counter", "C", e.at);
      a.key("sw_exec").integer(b.sw_exec);
      a.key("hw_exec").integer(b.hw_exec);
      a.key("plain_compute").integer(b.plain_compute);
      a.key("rotation_stall").integer(b.rotation_stall);
      a.key("idle").integer(b.idle);
    }
  }
  w.close();
}

void write_host_chrome_trace(std::ostream& out,
                             const std::vector<TelemetrySpan>& spans) {
  // Separate process (pid 2, "rispp host"): wall-clock spans next to the
  // pid-1 simulated-cycle tracks. One tid per telemetry thread ordinal.
  // Nanoseconds are shown as microseconds with three decimals.
  constexpr int kHostPid = 2;
  TraceEvents trace(out, kHostPid);
  trace.metadata("process_name", 0).key("name").str("rispp host");
  std::uint32_t max_thread = 0;
  for (const auto& s : spans) max_thread = std::max(max_thread, s.thread);
  for (std::uint32_t t = 0; t <= max_thread; ++t)
    trace.metadata("thread_name", t).key("name").str(
        t == 0 ? "host" : "worker " + std::to_string(t));
  for (const auto& s : spans) {
    std::string name = s.name;
    if (!s.detail.empty()) name += " " + s.detail;
    auto& w = trace.begin();
    w.key("name").str(name);
    w.key("ph").str("X");
    w.key("pid").integer(kHostPid);
    w.key("tid").integer(s.thread);
    w.key("ts").real(static_cast<double>(s.start_ns) / 1e3, 3);
    w.key("dur").real(static_cast<double>(s.end_ns - s.start_ns) / 1e3, 3);
    trace.args().key("depth").integer(s.depth);
  }
  trace.close();
}

}  // namespace rispp::obs
