#pragma once
/// \file chrome_trace.hpp
/// \brief Chrome `trace_event` JSON exporter for recorded event streams.
///
/// The output loads directly in `chrome://tracing` and https://ui.perfetto.dev.
/// Track layout (all under one process "rispp"):
///   tid 0        "scheduler"      — task-switch instants
///   tid 1+t      one per task     — SI execution spans, forecast/upgrade marks
///   tid 50       "SelectMap port" — every rotation span (port occupancy)
///   tid 100+c    one per AC       — the same rotation spans per container,
///                                   plus eviction/cancellation instants
/// Timestamps are microseconds (cycles ÷ clock_mhz). Rotation spans cover
/// exactly the bitstream transfer window, i.e. their duration equals the
/// hw::ReconfigPort latency and excludes port queueing delay.

#include <iosfwd>
#include <vector>

#include "rispp/obs/event.hpp"
#include "rispp/obs/telemetry.hpp"

namespace rispp::obs {

/// Writes the trace, then the Perfetto counter tracks: "port busy" (0/1 at
/// transfer edges), "port queue" (queued bookings, +1 at booking, −1 at
/// start/cancel) and "cycle buckets" (running per-bucket totals sampled at
/// task switches, from the Profiler). Counters follow the span/instant
/// events, each series sorted by timestamp.
void write_chrome_trace(std::ostream& out, const std::vector<Event>& events,
                        const TraceMeta& meta);

/// Host-telemetry export: renders wall-clock spans (obs::Telemetry) as
/// complete ("ph":"X") events under a separate "rispp host" process — pid 2,
/// one tid per telemetry thread (tid 0 "host", tid 1+ "worker N") — so a
/// sweep's serving-path timeline opens in Perfetto next to the simulated-
/// cycle tracks of the pid-1 trace. Timestamps are microseconds since the
/// Telemetry epoch.
void write_host_chrome_trace(std::ostream& out,
                             const std::vector<TelemetrySpan>& spans);

}  // namespace rispp::obs
