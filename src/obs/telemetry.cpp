#include "rispp/obs/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "rispp/obs/json.hpp"
#include "rispp/util/error.hpp"

#ifdef __linux__
#include <fstream>
#endif

namespace rispp::obs {

namespace {

/// The per-thread binding ScopedSpan sites read. One TLS load + branch when
/// unbound — the whole "cheap when off" story.
struct TlsBinding {
  Telemetry* tel = nullptr;
  std::uint32_t thread = 0;
  std::uint32_t depth = 0;
};
thread_local TlsBinding tls_binding;

/// Wall-clock milliseconds, rates and utilizations carry three decimals:
/// std::to_string's six would add only noise digits to every heartbeat.
constexpr int kDecimals = 3;

json::Value millis(std::uint64_t ns) {
  return json::Value::real(static_cast<double>(ns) / 1e6, kDecimals);
}

/// Current resident set in KiB (VmRSS), or 0 where /proc is unavailable.
std::uint64_t read_rss_kib() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    unsigned long long kib = 0;
    if (std::sscanf(line.c_str(), "VmRSS: %llu", &kib) == 1) return kib;
    break;
  }
#endif
  return 0;
}

}  // namespace

WorkerStats WorkerStats::snapshot(const WorkerCounters& c) {
  WorkerStats s;
  s.points = c.points.load(std::memory_order_relaxed);
  s.busy_ns = c.busy_ns.load(std::memory_order_relaxed);
  s.gate_waits = c.gate_waits.load(std::memory_order_relaxed);
  s.gate_wait_ns = c.gate_wait_ns.load(std::memory_order_relaxed);
  s.flush_ns = c.flush_ns.load(std::memory_order_relaxed);
  s.rows_flushed = c.rows_flushed.load(std::memory_order_relaxed);
  return s;
}

// --- ScopedSpan -------------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name) : ScopedSpan(name, std::string()) {}

ScopedSpan::ScopedSpan(const char* name, std::string detail) {
  auto& b = tls_binding;
  if (b.tel == nullptr) return;
  tel_ = b.tel;
  name_ = name;
  detail_ = std::move(detail);
  thread_ = b.thread;
  depth_ = b.depth++;
  start_ns_ = tel_->now_ns();
  tel_->flight_.ring(thread_).push(start_ns_, FlightEvent::Kind::Enter, name_,
                                   detail_);
}

ScopedSpan::~ScopedSpan() {
  if (tel_ == nullptr) return;
  --tls_binding.depth;
  tel_->close_span(*this, tel_->now_ns());
}

// --- Telemetry --------------------------------------------------------------

Telemetry::Telemetry(Config cfg)
    : cfg_(std::move(cfg)),
      epoch_(std::chrono::steady_clock::now()),
      flight_(1) {
  slots_.push_back(std::make_unique<ThreadSlot>());  // slot 0: host thread
}

Telemetry::~Telemetry() = default;

Telemetry::Binding::Binding(Telemetry& tel, std::uint32_t thread) {
  auto& b = tls_binding;
  prev_tel_ = b.tel;
  prev_thread_ = b.thread;
  prev_depth_ = b.depth;
  tel.ensure_threads(thread + 1);
  b.tel = &tel;
  b.thread = thread;
  b.depth = 0;
}

Telemetry::Binding::~Binding() {
  auto& b = tls_binding;
  b.tel = prev_tel_;
  b.thread = prev_thread_;
  b.depth = prev_depth_;
}

Telemetry* Telemetry::bound() { return tls_binding.tel; }

std::uint64_t Telemetry::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Telemetry::ensure_threads(std::size_t threads) {
  // Called from begin_run (host thread) and Binding construction. Worker
  // ordinals are assigned before the pool spawns, so slot creation never
  // races span recording.
  while (slots_.size() < threads)
    slots_.push_back(std::make_unique<ThreadSlot>());
  flight_.ensure_threads(threads);
}

void Telemetry::close_span(const ScopedSpan& span, std::uint64_t end_ns) {
  auto& slot = *slots_[span.thread_];
  flight_.ring(span.thread_)
      .push(end_ns, FlightEvent::Kind::Exit, span.name_, span.detail_);
  if (!cfg_.keep_spans) return;
  slot.spans.push_back({span.name_, span.detail_, span.start_ns_, end_ns,
                        span.thread_, span.depth_});
}

void Telemetry::begin_run(std::size_t points_total, unsigned workers,
                          std::size_t reorder_window) {
  points_total_ = points_total;
  reorder_window_ = reorder_window;
  ensure_threads(std::size_t{workers} + 1);
  resolved_every_ = cfg_.heartbeat_every != 0
                        ? cfg_.heartbeat_every
                        : std::max<std::size_t>(1, points_total / 64);
  last_emit_done_ = 0;
  last_emit_ns_ = now_ns();
  if (!cfg_.flight_path.empty() && cfg_.crash_handler)
    flight_.install_crash_handler(cfg_.flight_path);
  if (cfg_.heartbeat_out != nullptr) {
    auto rec = json::Value::object();
    rec.add("schema", json::Value::string("rispp.telemetry/1"));
    rec.add("kind", json::Value::string("start"));
    rec.add("total", json::Value::number(
                         static_cast<std::uint64_t>(points_total)));
    rec.add("workers", json::Value::number(std::uint64_t{workers}));
    rec.add("window", json::Value::number(
                          static_cast<std::uint64_t>(reorder_window)));
    rec.add("heartbeat_every", json::Value::number(static_cast<std::uint64_t>(
                                   resolved_every_)));
    *cfg_.heartbeat_out << rec.dump(-1) << "\n";
  }
}

void Telemetry::attach_workers(const WorkerCounters* counters, std::size_t n) {
  workers_ = counters;
  worker_count_ = n;
}

std::string Telemetry::heartbeat_json(std::size_t done) const {
  const auto now = now_ns();
  const double elapsed_ms = static_cast<double>(now) / 1e6;
  // Welford-smoothed rate: mean of the per-interval rates observed so far
  // (rates_ is fed by on_progress); fall back to the cumulative rate before
  // the first interval closes.
  double rate = rates_.count() > 0 ? rates_.mean()
                : elapsed_ms > 0.0
                    ? static_cast<double>(done) / (elapsed_ms / 1e3)
                    : 0.0;
  const double remaining =
      static_cast<double>(points_total_ > done ? points_total_ - done : 0);
  const double eta_ms = rate > 0.0 ? remaining / rate * 1e3 : 0.0;

  auto rec = json::Value::object();
  rec.add("schema", json::Value::string("rispp.telemetry/1"));
  rec.add("kind", json::Value::string("heartbeat"));
  rec.add("done", json::Value::number(static_cast<std::uint64_t>(done)));
  rec.add("total",
          json::Value::number(static_cast<std::uint64_t>(points_total_)));
  rec.add("elapsed_ms", json::Value::real(elapsed_ms, kDecimals));
  rec.add("rate_pps", json::Value::real(rate, kDecimals));
  rec.add("eta_ms", json::Value::real(eta_ms, kDecimals));
  rec.add("rss_kib", json::Value::number(read_rss_kib()));
  {
    // Always present, possibly empty — consumers key off the array, not its
    // absence (docs/FORMATS.md §9).
    auto& arr = rec.add("workers", json::Value::array());
    for (std::size_t w = 0; w < (workers_ != nullptr ? worker_count_ : 0);
         ++w) {
      const auto s = WorkerStats::snapshot(workers_[w]);
      auto wj = json::Value::object();
      wj.add("id", json::Value::number(static_cast<std::uint64_t>(w)));
      wj.add("points", json::Value::number(s.points));
      wj.add("busy_ms", millis(s.busy_ns));
      wj.add("util", json::Value::real(
                         now > 0 ? static_cast<double>(s.busy_ns) /
                                       static_cast<double>(now)
                                 : 0.0,
                         kDecimals));
      wj.add("gate_waits", json::Value::number(s.gate_waits));
      wj.add("gate_wait_ms", millis(s.gate_wait_ns));
      wj.add("flush_ms", millis(s.flush_ns));
      arr.push_back(std::move(wj));
    }
  }
  return rec.dump(-1) + "\n";
}

void Telemetry::on_progress(std::size_t done) {
  if (done < points_total_ && done < last_emit_done_ + resolved_every_)
    return;
  emit_heartbeat(done);
}

void Telemetry::emit_heartbeat(std::size_t done) {
  const auto now = now_ns();
  if (done > last_emit_done_ && now > last_emit_ns_) {
    // One Welford sample per closed interval: points / second across it.
    rates_.add(static_cast<double>(done - last_emit_done_) /
               (static_cast<double>(now - last_emit_ns_) / 1e9));
  }
  if (cfg_.heartbeat_out != nullptr) *cfg_.heartbeat_out << heartbeat_json(done);
  if (cfg_.progress_out != nullptr) {
    const double elapsed_ms = static_cast<double>(now) / 1e6;
    const double rate = rates_.count() > 0 ? rates_.mean() : 0.0;
    const double eta_s =
        rate > 0.0 && points_total_ > done
            ? static_cast<double>(points_total_ - done) / rate
            : 0.0;
    progress_line(done, elapsed_ms, rate, eta_s * 1e3);
  }
  last_emit_done_ = done;
  last_emit_ns_ = now;
  ++heartbeats_;
}

void Telemetry::progress_line(std::size_t done, double elapsed_ms,
                              double rate, double eta_ms) {
  char buf[160];
  const double pct = points_total_ > 0 ? 100.0 * static_cast<double>(done) /
                                             static_cast<double>(points_total_)
                                       : 100.0;
  std::snprintf(buf, sizeof buf,
                "[rispp] %zu/%zu (%.1f%%) %.1f pt/s elapsed %.1fs eta %.1fs",
                done, points_total_, pct, rate, elapsed_ms / 1e3,
                eta_ms / 1e3);
  *cfg_.progress_out << buf << "\n";
}

void Telemetry::end_run(std::size_t done, std::size_t max_reorder_buffered) {
  if (cfg_.heartbeat_out != nullptr) {
    auto rec = json::Value::object();
    rec.add("schema", json::Value::string("rispp.telemetry/1"));
    rec.add("kind", json::Value::string("finish"));
    rec.add("done", json::Value::number(static_cast<std::uint64_t>(done)));
    rec.add("total",
            json::Value::number(static_cast<std::uint64_t>(points_total_)));
    rec.add("elapsed_ms", millis(now_ns()));
    rec.add("max_reorder_buffered",
            json::Value::number(
                static_cast<std::uint64_t>(max_reorder_buffered)));
    rec.add("window", json::Value::number(
                          static_cast<std::uint64_t>(reorder_window_)));
    rec.add("rss_kib", json::Value::number(read_rss_kib()));
    if (workers_ != nullptr) {
      auto& arr = rec.add("workers", json::Value::array());
      for (std::size_t w = 0; w < worker_count_; ++w) {
        const auto s = WorkerStats::snapshot(workers_[w]);
        auto wj = json::Value::object();
        wj.add("id", json::Value::number(static_cast<std::uint64_t>(w)));
        wj.add("points", json::Value::number(s.points));
        wj.add("busy_ms", millis(s.busy_ns));
        wj.add("gate_waits", json::Value::number(s.gate_waits));
        wj.add("gate_wait_ms", millis(s.gate_wait_ns));
        wj.add("flush_ms", millis(s.flush_ns));
        wj.add("rows_flushed", json::Value::number(s.rows_flushed));
        arr.push_back(std::move(wj));
      }
    }
    *cfg_.heartbeat_out << rec.dump(-1) << "\n";
  }
  // Disarm the crash handler: past this point a fault is not a sweep crash.
  flight_.uninstall_crash_handler();
}

std::string Telemetry::record_failure(const char* stage,
                                      std::string_view what) {
  flight_.note(0, now_ns(), stage, what);
  if (cfg_.flight_path.empty()) return "";
  const auto reason = std::string(stage) + ": " + std::string(what);
  return flight_.dump_to_file(cfg_.flight_path, reason) ? cfg_.flight_path
                                                        : "";
}

std::vector<TelemetrySpan> Telemetry::spans() const {
  std::vector<TelemetrySpan> out;
  for (const auto& slot : slots_)
    out.insert(out.end(), slot->spans.begin(), slot->spans.end());
  return out;
}

}  // namespace rispp::obs
