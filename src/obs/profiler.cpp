#include "rispp/obs/profiler.hpp"

#include <algorithm>
#include <string>

#include "rispp/util/error.hpp"

namespace rispp::obs {

namespace {

/// The slot of `id` in `v`, whose ids start at `first`; grows `v` to it.
/// An id kMaxDenseIds or more slots past `first` (say, from a hand-edited
/// CSV trace) throws instead.
template <class T>
T& dense(std::vector<T>& v, std::int64_t id, std::int64_t first,
         const char* what) {
  RISPP_REQUIRE(id >= first && id - first < kMaxDenseIds,
                std::string("profiler: ") + what + " id " +
                    std::to_string(id) + " is out of range");
  const auto i = static_cast<std::size_t>(id - first);
  if (i >= v.size()) v.resize(i + 1);
  return v[i];
}

}  // namespace

Profiler::Profiler(TraceMeta meta) : meta_(std::move(meta)) {}

Profiler::Booking* Profiler::find_booking(std::int32_t container,
                                          std::uint64_t start) {
  for (auto& b : bookings_)
    if (b.container == container && b.start == start) return &b;
  return nullptr;
}

void Profiler::commit(Booking& b) {
  b.committed = true;
  ++counts_.rotations;
  port_busy_ += b.done - b.start;
  port_queue_.add(b.start >= b.booked ? b.start - b.booked : 0);
  port_transfer_.add(b.done - b.start);
}

void Profiler::close_residency(ContainerState& c, std::uint64_t at) {
  if (!c.resident) return;
  const auto& r = *c.resident;
  c.segments.push_back({r.atom, meta_.atom_name(r.atom), r.from,
                        std::max(at, r.from), r.uses});
  if (r.uses == 0) {
    ++c.wasted;
    ++counts_.wasted_rotations;
  }
  c.resident.reset();
}

void Profiler::advance(std::uint64_t t) {
  if (t <= decided_) return;
  decided_ = t;
  // Commit bookings whose transfer has started (a cancellation tombstone is
  // always emitted before the start cycle, so none can arrive any more),
  // then promote completed transfers into container residency.
  for (std::size_t i = 0; i < bookings_.size();) {
    auto& b = bookings_[i];
    if (!b.committed && b.start <= t) commit(b);
    if (b.committed && b.done <= t) {
      auto& c = dense(containers_, b.container, 0, "container");
      c.reported = true;
      close_residency(c, b.done);  // defensive: eviction normally precedes
      c.resident = Residency{b.atom, b.si, b.done, 0};
      ++c.rotations;
      bookings_.erase(bookings_.begin() +
                      static_cast<std::ptrdiff_t>(i));
      continue;
    }
    ++i;
  }
}

void Profiler::on_event(const Event& e) {
  ++events_;
  const std::uint64_t end =
      e.at + (e.kind == EventKind::SiExecuted ||
                      e.kind == EventKind::RotationStarted
                  ? e.cycles
                  : 0);
  first_ = any_event_ ? std::min(first_, e.at) : e.at;
  end_ = any_event_ ? std::max(end_, end) : end;
  any_event_ = true;

  // A failure verdict is stamped at the faulty booking's own completion
  // cycle, so resolve it *before* advancing decided time — advance(e.at)
  // would promote the transfer into residency first. The port *was*
  // occupied by the faulty transfer; only the completed-rotation count
  // moves to "failed", and nothing becomes resident.
  if (e.kind == EventKind::RotationFailed) {
    ++counts_.rotations_failed;
    if (auto* b = find_booking(e.container, e.prev_cycles)) {
      if (!b->committed) commit(*b);
      --counts_.rotations;
      bookings_.erase(bookings_.begin() + (b - bookings_.data()));
    }
    advance(e.at);
    return;
  }

  // Every kind except the rotation span pair is stamped with the emission
  // cycle; RotationStarted/Finished carry future timestamps but record the
  // booking cycle in prev_cycles.
  if (e.kind == EventKind::RotationStarted)
    advance(e.prev_cycles);
  else if (e.kind != EventKind::RotationFinished)
    advance(e.at);

  switch (e.kind) {
    case EventKind::SiExecuted: {
      auto& si = dense(sis_, e.si, 0, "SI");
      auto& task = dense(tasks_, e.task, kNoTask, "task");
      si.reported = task.reported = true;
      si.all.add(e.cycles);
      if (e.hardware) {
        si.hw.add(e.cycles);
        task.hw += e.cycles;
        totals_.hw += e.cycles;
        if (si.lead_from) {
          if (e.at >= *si.lead_from) si.lead.add(e.at - *si.lead_from);
          si.lead_from.reset();
        }
        for (auto& c : containers_)
          if (c.resident && c.resident->si == e.si) ++c.resident->uses;
      } else {
        si.sw.add(e.cycles);
        // Stalled if the SI's own rotation was in flight on the port: the
        // software fallback ran only because the Atom was still in transit.
        bool stalled = false;
        for (const auto& b : bookings_)
          if (b.si == e.si && b.start <= e.at && e.at < b.done) {
            stalled = true;
            break;
          }
        (stalled ? task.stall : task.sw) += e.cycles;
        (stalled ? totals_.stall : totals_.sw) += e.cycles;
      }
      break;
    }
    case EventKind::ForecastSeen: {
      ++counts_.forecasts;
      auto& si = dense(sis_, e.si, 0, "SI");
      if (!si.lead_from) si.lead_from = e.at;
      si.last_forecast = e.at;
      break;
    }
    case EventKind::ForecastReleased:
      ++counts_.releases;
      dense(sis_, e.si, 0, "SI").lead_from.reset();
      break;
    case EventKind::RotationStarted:
      bookings_.push_back({e.container, e.si, e.atom, e.prev_cycles, e.at,
                           e.at + e.cycles, false});
      break;
    case EventKind::RotationFinished:
      break;  // duplicate of the Started span
    case EventKind::RotationCancelled:
      ++counts_.rotations_cancelled;
      if (auto* b = find_booking(e.container, e.prev_cycles);
          b && !b->committed)
        bookings_.erase(bookings_.begin() + (b - bookings_.data()));
      break;
    case EventKind::RotationFailed:
      break;  // fully handled before the advance() above
    case EventKind::AcQuarantined:
      ++counts_.acs_quarantined;
      break;
    case EventKind::MoleculeUpgraded: {
      auto& si = dense(sis_, e.si, 0, "SI");
      si.reported = true;
      if (e.cycles < e.prev_cycles) {
        ++si.upgrades;
        if (si.last_forecast && e.at >= *si.last_forecast)
          si.gap.add(e.at - *si.last_forecast);
      } else {
        ++si.downgrades;
      }
      break;
    }
    case EventKind::TaskSwitch: {
      ++counts_.task_switches;
      if (any_switch_ && e.at >= cur_since_) {
        tasks_[static_cast<std::size_t>(cur_task_ - kNoTask)].occupancy +=
            e.at - cur_since_;
        totals_.occupancy += e.at - cur_since_;
      }
      dense(tasks_, e.task, kNoTask, "task").reported = true;
      cur_task_ = e.task;
      cur_since_ = e.at;
      any_switch_ = true;
      break;
    }
    case EventKind::AtomEvicted: {
      ++counts_.evictions;
      auto& c = dense(containers_, e.container, 0, "container");
      c.reported = true;
      close_residency(c, e.at);
      break;
    }
  }
}

BucketSet Profiler::running_totals() const {
  const auto& t = totals_;
  const auto exec = t.hw + t.sw + t.stall;
  const auto elapsed = cur_since_ >= first_ ? cur_since_ - first_ : 0;
  return {.sw_exec = t.sw,
          .hw_exec = t.hw,
          .plain_compute = t.occupancy > exec ? t.occupancy - exec : 0,
          .rotation_stall = t.stall,
          .idle = elapsed > t.occupancy ? elapsed - t.occupancy : 0};
}

LatencyDigest Profiler::digest(const util::LogHistogram& h) {
  LatencyDigest d;
  d.count = h.total();
  if (d.count == 0) return d;
  d.min = h.min();
  d.max = h.max();
  d.mean = h.mean();
  d.p50 = h.percentile(0.50);
  d.p90 = h.percentile(0.90);
  d.p99 = h.percentile(0.99);
  return d;
}

RunReport Profiler::finalize(const std::string& scenario) const {
  // Finalization works on copies: the profiler stays reusable as a live
  // sink (finalize mid-run, keep streaming).
  auto tasks = tasks_;
  auto containers = containers_;
  auto queue = port_queue_;
  auto transfer = port_transfer_;
  auto counts = counts_;
  auto port_busy = port_busy_;

  // Every booking still pending at end-of-stream really ran: all
  // cancellation/failure tombstones are already in the stream behind us.
  for (const auto& b : bookings_) {
    if (!b.committed) {
      ++counts.rotations;
      port_busy += b.done - b.start;
      queue.add(b.start >= b.booked ? b.start - b.booked : 0);
      transfer.add(b.done - b.start);
    }
    if (b.done <= end_) {
      auto& c = dense(containers, b.container, 0, "container");
      c.reported = true;
      if (c.resident) {
        const auto& r = *c.resident;
        c.segments.push_back({r.atom, meta_.atom_name(r.atom), r.from,
                              std::max(b.done, r.from), r.uses});
        if (r.uses == 0) {
          ++c.wasted;
          ++counts.wasted_rotations;
        }
      }
      c.resident = Residency{b.atom, b.si, b.done, 0};
      ++c.rotations;
    }
  }

  // Close the final occupancy slice and still-resident Atoms at the span
  // end. A never-evicted Atom with zero uses is *not* wasted — it was
  // never given up, so the jury is still out when the trace ends.
  if (any_switch_ && end_ >= cur_since_)
    tasks[static_cast<std::size_t>(cur_task_ - kNoTask)].occupancy +=
        end_ - cur_since_;
  for (auto& c : containers)
    if (c.resident) {
      const auto& r = *c.resident;
      c.segments.push_back({r.atom, meta_.atom_name(r.atom), r.from,
                            std::max(end_, r.from), r.uses});
      c.resident.reset();
    }

  RunReport r;
  r.scenario = scenario;
  r.first_cycle = any_event_ ? first_ : 0;
  r.last_cycle = any_event_ ? end_ : 0;
  r.counts = counts;
  r.counts.events = events_;

  const auto span = r.span_cycles();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& t = tasks[i];
    if (!t.reported) continue;
    const auto id = static_cast<std::int32_t>(i) + kNoTask;
    const auto exec = t.hw + t.sw + t.stall;
    const auto occupancy = any_switch_ ? t.occupancy : exec;
    RISPP_REQUIRE(occupancy >= exec,
                  "cycle attribution: task " + std::to_string(id) +
                      " executes outside its slices (exec " +
                      std::to_string(exec) + " > occupancy " +
                      std::to_string(occupancy) + ")");
    RISPP_REQUIRE(span >= occupancy,
                  "cycle attribution: task " + std::to_string(id) +
                      " occupancy " + std::to_string(occupancy) +
                      " exceeds run span " + std::to_string(span));
    TaskReport tr;
    tr.task = id;
    tr.name = meta_.task_name(id);
    tr.buckets = {t.sw, t.hw, occupancy - exec, t.stall, span - occupancy};
    RISPP_REQUIRE(tr.buckets.total() == span,
                  "cycle attribution invariant violated for task " +
                      std::to_string(id));
    r.tasks.push_back(std::move(tr));
    r.buckets.sw_exec += t.sw;
    r.buckets.hw_exec += t.hw;
    r.buckets.plain_compute += occupancy - exec;
    r.buckets.rotation_stall += t.stall;
    r.buckets.idle += span - occupancy;
  }

  for (std::size_t i = 0; i < sis_.size(); ++i) {
    const auto& s = sis_[i];
    if (!s.reported) continue;
    SiReport sr;
    sr.si = static_cast<std::int64_t>(i);
    sr.name = meta_.si_name(sr.si);
    sr.all = digest(s.all);
    sr.hw = digest(s.hw);
    sr.sw = digest(s.sw);
    sr.forecast_lead = digest(s.lead);
    sr.upgrades = s.upgrades;
    sr.downgrades = s.downgrades;
    sr.upgrade_gap = digest(s.gap);
    r.sis.push_back(std::move(sr));
  }

  r.port.busy_cycles = port_busy;
  r.port.utilization =
      span ? static_cast<double>(port_busy) / static_cast<double>(span) : 0.0;
  r.port.queueing = digest(queue);
  r.port.transfer = digest(transfer);

  for (std::size_t i = 0; i < containers.size(); ++i) {
    auto& c = containers[i];
    if (!c.reported) continue;
    ContainerReport cr;
    cr.container = static_cast<std::int32_t>(i);
    cr.rotations = c.rotations;
    cr.wasted_rotations = c.wasted;
    cr.occupancy = std::move(c.segments);
    r.containers.push_back(std::move(cr));
  }
  return r;
}

RunReport Profiler::profile(const std::vector<Event>& events,
                            const TraceMeta& meta,
                            const std::string& scenario) {
  Profiler p(meta);
  for (const auto& e : events) p.on_event(e);
  return p.finalize(scenario);
}

}  // namespace rispp::obs
