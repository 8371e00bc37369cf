#include "rispp/obs/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rispp/obs/profiler.hpp"

namespace rispp::obs {

namespace {

constexpr int kPid = 1;
constexpr std::int64_t kSchedulerTid = 0;
constexpr std::int64_t kPortTid = 50;
constexpr std::int64_t kTaskTidBase = 1;
constexpr std::int64_t kContainerTidBase = 100;

std::string esc(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Microsecond value with trailing zeros trimmed (deterministic, compact).
std::string us(std::uint64_t cycles, double clock_mhz) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f",
                static_cast<double>(cycles) / clock_mhz);
  std::string s(buf);
  s.erase(s.find_last_not_of('0') + 1);
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(&out) {}

  void open() { *out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["; }
  void close() { *out_ << "\n]}\n"; }

  void raw(const std::string& json_object) {
    *out_ << (first_ ? "\n" : ",\n") << json_object;
    first_ = false;
  }

  void meta(const char* name, std::int64_t tid, const std::string& value) {
    raw("{\"name\":\"" + std::string(name) + "\",\"ph\":\"M\",\"pid\":" +
        std::to_string(kPid) + ",\"tid\":" + std::to_string(tid) +
        ",\"args\":{\"name\":\"" + esc(value) + "\"}}");
  }

  void sort_index(std::int64_t tid, std::int64_t index) {
    raw("{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":" +
        std::to_string(kPid) + ",\"tid\":" + std::to_string(tid) +
        ",\"args\":{\"sort_index\":" + std::to_string(index) + "}}");
  }

  void complete(const std::string& name, const char* cat, std::int64_t tid,
                const std::string& ts, const std::string& dur,
                const std::string& args) {
    raw("{\"name\":\"" + esc(name) + "\",\"cat\":\"" + cat +
        "\",\"ph\":\"X\",\"ts\":" + ts + ",\"dur\":" + dur +
        ",\"pid\":" + std::to_string(kPid) + ",\"tid\":" +
        std::to_string(tid) + ",\"args\":{" + args + "}}");
  }

  void instant(const std::string& name, const char* cat, std::int64_t tid,
               const std::string& ts, const std::string& args) {
    raw("{\"name\":\"" + esc(name) + "\",\"cat\":\"" + cat +
        "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + ts +
        ",\"pid\":" + std::to_string(kPid) + ",\"tid\":" +
        std::to_string(tid) + ",\"args\":{" + args + "}}");
  }

  void counter(const std::string& name, const std::string& ts,
               const std::string& args) {
    raw("{\"name\":\"" + esc(name) + "\",\"cat\":\"counter\",\"ph\":\"C\"" +
        ",\"ts\":" + ts + ",\"pid\":" + std::to_string(kPid) + ",\"args\":{" +
        args + "}}");
  }

 private:
  std::ostream* out_;
  bool first_ = true;
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

  Writer w(out);
  w.open();
  w.meta("process_name", kSchedulerTid, "rispp");
  if (any_switch) {
    w.meta("thread_name", kSchedulerTid, "scheduler");
    w.sort_index(kSchedulerTid, kSchedulerTid);
  }
  for (std::int64_t t = 0; t < tasks; ++t) {
    w.meta("thread_name", kTaskTidBase + t,
           "task " + meta.task_name(static_cast<std::int32_t>(t)));
    w.sort_index(kTaskTidBase + t, kTaskTidBase + t);
  }
  if (any_rotation) {
    w.meta("thread_name", kPortTid, "SelectMap port");
    w.sort_index(kPortTid, kPortTid);
  }
  for (std::int64_t c = 0; c < containers; ++c) {
    w.meta("thread_name", kContainerTidBase + c, "AC " + std::to_string(c));
    w.sort_index(kContainerTidBase + c, kContainerTidBase + c);
  }

  for (const auto& e : events) {
    const auto ts = us(e.at, mhz);
    const auto task_tid = kTaskTidBase + std::max<std::int64_t>(e.task, 0);
    const auto ac_tid = kContainerTidBase + std::max<std::int64_t>(e.container, 0);
    switch (e.kind) {
      case EventKind::SiExecuted:
        w.complete(meta.si_name(e.si), "si", task_tid, ts, us(e.cycles, mhz),
                   "\"cycles\":" + std::to_string(e.cycles) +
                       ",\"molecule\":\"" + (e.hardware ? "hw" : "sw") + "\"");
        break;
      case EventKind::ForecastSeen:
        w.instant("forecast " + meta.si_name(e.si), "forecast", task_tid, ts,
                  "\"si\":\"" + esc(meta.si_name(e.si)) + "\"");
        break;
      case EventKind::ForecastReleased:
        w.instant("release " + meta.si_name(e.si), "forecast", task_tid, ts,
                  "\"si\":\"" + esc(meta.si_name(e.si)) + "\"");
        break;
      case EventKind::RotationStarted: {
        if (cancelled.count({e.container, e.at})) break;
        const auto args = "\"atom\":\"" + esc(meta.atom_name(e.atom)) +
                          "\",\"container\":" + std::to_string(e.container) +
                          ",\"cycles\":" + std::to_string(e.cycles);
        w.complete("rotate " + meta.atom_name(e.atom), "rotation", ac_tid, ts,
                   us(e.cycles, mhz), args);
        w.complete("rotate " + meta.atom_name(e.atom) + " → AC " +
                       std::to_string(e.container),
                   "rotation", kPortTid, ts, us(e.cycles, mhz), args);
        break;
      }
      case EventKind::RotationFinished:
        break;  // the span is drawn from RotationStarted
      case EventKind::RotationCancelled:
        w.instant("cancel " + meta.atom_name(e.atom), "rotation", ac_tid, ts,
                  "\"atom\":\"" + esc(meta.atom_name(e.atom)) + "\"");
        break;
      case EventKind::RotationFailed:
        // The faulty transfer's span was drawn from RotationStarted; this
        // marks its end as a failure (the Atom never became usable).
        w.instant("fail " + meta.atom_name(e.atom), "fault", ac_tid, ts,
                  "\"atom\":\"" + esc(meta.atom_name(e.atom)) +
                      "\",\"container\":" + std::to_string(e.container));
        break;
      case EventKind::AcQuarantined:
        w.instant("quarantine AC " + std::to_string(e.container), "fault",
                  ac_tid, ts,
                  "\"container\":" + std::to_string(e.container));
        break;
      case EventKind::MoleculeUpgraded:
        w.instant("upgrade " + meta.si_name(e.si), "upgrade", task_tid, ts,
                  "\"from_cycles\":" + std::to_string(e.prev_cycles) +
                      ",\"to_cycles\":" + std::to_string(e.cycles) +
                      ",\"molecule\":\"" + (e.hardware ? "hw" : "sw") + "\"");
        break;
      case EventKind::TaskSwitch:
        w.instant("switch → " + meta.task_name(e.task), "sched",
                  kSchedulerTid, ts,
                  "\"task\":\"" + esc(meta.task_name(e.task)) + "\"");
        break;
      case EventKind::AtomEvicted:
        w.instant("evict " + meta.atom_name(e.atom), "rotation", ac_tid, ts,
                  "\"atom\":\"" + esc(meta.atom_name(e.atom)) + "\"");
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
      w.counter("port busy", us(at, mhz),
                "\"busy\":" + std::to_string(level));
    }
    level = 0;
    for (const auto& [at, delta] : queue) {
      level += delta;
      w.counter("port queue", us(at, mhz),
                "\"queued\":" + std::to_string(level));
    }
  }
  // Running cycle-attribution totals, sampled at task-switch boundaries.
  if (any_switch) {
    Profiler profiler(meta);
    for (const auto& e : events) {
      profiler.on_event(e);
      if (e.kind != EventKind::TaskSwitch) continue;
      const auto b = profiler.running_totals();
      w.counter("cycle buckets", us(e.at, mhz),
                "\"sw_exec\":" + std::to_string(b.sw_exec) +
                    ",\"hw_exec\":" + std::to_string(b.hw_exec) +
                    ",\"plain_compute\":" +
                    std::to_string(b.plain_compute) +
                    ",\"rotation_stall\":" +
                    std::to_string(b.rotation_stall) +
                    ",\"idle\":" + std::to_string(b.idle));
    }
  }
  w.close();
}

void write_host_chrome_trace(std::ostream& out,
                             const std::vector<TelemetrySpan>& spans) {
  // Separate process (pid 2, "rispp host"): wall-clock spans next to the
  // pid-1 simulated-cycle tracks. One tid per telemetry thread ordinal.
  constexpr int kHostPid = 2;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto raw = [&](const std::string& obj) {
    out << (first ? "\n" : ",\n") << obj;
    first = false;
  };
  raw("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
      std::to_string(kHostPid) +
      ",\"tid\":0,\"args\":{\"name\":\"rispp host\"}}");
  std::uint32_t max_thread = 0;
  for (const auto& s : spans) max_thread = std::max(max_thread, s.thread);
  for (std::uint32_t t = 0; t <= max_thread; ++t)
    raw("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
        std::to_string(kHostPid) + ",\"tid\":" + std::to_string(t) +
        ",\"args\":{\"name\":\"" +
        (t == 0 ? std::string("host") : "worker " + std::to_string(t)) +
        "\"}}");
  const auto ns_to_us = [](std::uint64_t ns) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
    std::string s(buf);
    s.erase(s.find_last_not_of('0') + 1);
    if (!s.empty() && s.back() == '.') s.pop_back();
    return s;
  };
  for (const auto& s : spans) {
    std::string name = s.name;
    if (!s.detail.empty()) name += " " + s.detail;
    raw("{\"name\":\"" + esc(name) + "\",\"ph\":\"X\",\"pid\":" +
        std::to_string(kHostPid) + ",\"tid\":" + std::to_string(s.thread) +
        ",\"ts\":" + ns_to_us(s.start_ns) +
        ",\"dur\":" + ns_to_us(s.end_ns - s.start_ns) +
        ",\"args\":{\"depth\":" + std::to_string(s.depth) + "}}");
  }
  out << "\n]}\n";
}

}  // namespace rispp::obs
