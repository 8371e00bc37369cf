#pragma once
/// \file profiler.hpp
/// \brief Streaming cycle-attribution profiler — every simulated cycle of
/// every task lands in exactly one BucketSet bucket.
///
/// The Profiler is an EventSink and the only aggregator of the event
/// stream: feed it the same stream the exporters see (live, as the sink on
/// SimConfig, or replayed from a TraceRecorder / CSV trace) and call
/// finalize() for a RunReport. It keeps reduced state only — per-task
/// counters, per-SI log histograms and upgrade counts, in-flight rotation
/// bookings — in vectors indexed by task, SI and container id, never the
/// raw event list. Memory is bounded by platform size and in-flight
/// activity; the one part that grows with the stream is the occupancy
/// timeline the report lists, one segment per completed rotation.
///
/// ## Attribution model
///
/// Core occupancy is reconstructed from TaskSwitch events: the switched-to
/// task owns the core until the next switch (the round-robin simulator runs
/// SI operations to completion inside a slice, so execution spans nest in
/// slices). Per task, over the run span [first_cycle, last_cycle]:
///
///   hw_exec / sw_exec   SiExecuted spans, by Molecule flavour
///   rotation_stall      SW execution of an SI whose rotation was in flight
///                       on the port at that moment (the cycles the paper's
///                       Fig 6 shows as "waiting for the Atom")
///   plain_compute       owned-slice time outside SI execution
///   idle                run span outside the task's slices
///
/// Invariant (checked in finalize(), throws util::PreconditionError):
/// the five buckets sum exactly to the run span, for every task. Streams
/// with no TaskSwitch events (unit-test fragments, rt-only traces) fall
/// back to occupancy == execution, so plain_compute is 0 by construction.
///
/// ## Upgrade staircase
///
/// Per SI, every MoleculeUpgraded to a lower latency is an upgrade and
/// every other one a downgrade (Atoms lost to another SI). The
/// forecast→upgrade gap runs from the SI's most recent ForecastSeen to
/// each upgrade — how long the SI waited for the rotation chain to reach
/// it (paper Fig 6 T4–T5, Fig 11).
///
/// ## Emission-order requirements
///
/// Events arrive in emission order (not monotone in `at`); the profiler
/// relies on the two ordering guarantees the manager provides:
///   * a RotationCancelled tombstone is emitted strictly before the
///     cancelled window's start cycle is reached, and
///   * a RotationFailed verdict is emitted before any event timestamped at
///     or after the booking's completion cycle.
/// Both hold for streams produced by rt::RisppManager, whose fault
/// processing runs at the head of every execute() call.

#include <cstdint>
#include <optional>
#include <vector>

#include "rispp/obs/event.hpp"
#include "rispp/obs/report.hpp"
#include "rispp/util/stats.hpp"

namespace rispp::obs {

class Profiler final : public EventSink {
 public:
  explicit Profiler(TraceMeta meta = {});

  void on_event(const Event& e) override;

  /// Closes open slices/residencies at the stream's end, checks the
  /// attribution invariant and returns the report. `scenario` is the free
  /// form label stored in the report (bench name, sweep point id).
  RunReport finalize(const std::string& scenario = {}) const;

  /// Aggregate buckets over all tasks at the most recent TaskSwitch: the
  /// executions so far, the slices closed up to that switch, and idle time
  /// up to it. O(1) from running totals; the chrome exporter samples it
  /// after each switch for its "cycle buckets" counter track.
  BucketSet running_totals() const;

  /// One-shot convenience: replay a recorded stream and finalize.
  static RunReport profile(const std::vector<Event>& events,
                           const TraceMeta& meta,
                           const std::string& scenario = {});

 private:
  /// Event::task of an event outside any task; tasks_ starts at this id.
  static constexpr std::int32_t kNoTask = -1;

  struct SiStats {
    bool reported = false;  ///< executed or changed latency: a report row
    util::LogHistogram all, hw, sw, lead, gap;
    std::uint64_t upgrades = 0, downgrades = 0;
    /// Earliest ForecastSeen not yet answered by a hardware execution or a
    /// release — where the next forecast-lead sample starts.
    std::optional<std::uint64_t> lead_from;
    /// Most recent ForecastSeen — where every upgrade-gap sample starts.
    std::optional<std::uint64_t> last_forecast;
  };
  struct TaskStats {
    bool reported = false;  ///< executed or switched to: a report row
    std::uint64_t occupancy = 0;  ///< closed-slice cycles owned so far
    std::uint64_t hw = 0, sw = 0, stall = 0;  ///< execution cycles
  };
  /// A port booking whose fate (start reached / cancelled / failed) or
  /// residency is not fully resolved yet.
  struct Booking {
    std::int32_t container = -1;
    std::int64_t si = -1;
    std::int64_t atom = -1;
    std::uint64_t booked = 0;  ///< cycle the transfer was queued
    std::uint64_t start = 0;   ///< transfer begins occupying the port
    std::uint64_t done = 0;    ///< transfer completion
    bool committed = false;    ///< counted (start reached, cancel impossible)
  };
  struct Residency {
    std::int64_t atom = -1;
    std::int64_t si = -1;
    std::uint64_t from = 0;
    std::uint64_t uses = 0;
  };
  struct ContainerState {
    bool reported = false;  ///< loaded or evicted: a report row
    std::uint64_t rotations = 0;
    std::uint64_t wasted = 0;
    std::optional<Residency> resident;
    std::vector<OccupancySegment> segments;
  };

  /// Advances "decided time": commits bookings whose start has been
  /// reached (no cancellation can arrive any more) and promotes completed
  /// transfers into container residency.
  void advance(std::uint64_t t);
  void commit(Booking& b);
  void close_residency(ContainerState& c, std::uint64_t at);
  Booking* find_booking(std::int32_t container, std::uint64_t start);
  static LatencyDigest digest(const util::LogHistogram& h);

  TraceMeta meta_;
  bool any_event_ = false;
  std::uint64_t first_ = 0;   ///< min event timestamp
  std::uint64_t end_ = 0;     ///< max span end (SiExecuted/rotation spans)
  std::uint64_t decided_ = 0; ///< high-water mark passed to advance()
  std::uint64_t events_ = 0;

  std::vector<TaskStats> tasks_;  ///< by task id − kNoTask
  TaskStats totals_;              ///< sum over tasks_, for running_totals()
  std::int32_t cur_task_ = kNoTask;   ///< task owning the core
  std::uint64_t cur_since_ = 0;       ///< current slice start
  bool any_switch_ = false;

  std::vector<SiStats> sis_;  ///< by SI index

  std::vector<Booking> bookings_;
  std::vector<ContainerState> containers_;  ///< by container id
  util::LogHistogram port_queue_, port_transfer_;
  std::uint64_t port_busy_ = 0;

  ReportCounts counts_;
};

}  // namespace rispp::obs
