#pragma once
/// \file csv_trace.hpp
/// \brief CSV exporter (and re-importer) for recorded event streams.
///
/// One event per row, numeric reference fields plus resolved names, in
/// emission order:
///
/// ```
/// at,kind,task,container,si,atom,cycles,prev_cycles,hw,task_name,si_name,atom_name
/// ```
///
/// The format round-trips: read_csv_trace() reconstructs the exact event
/// vector (and the name vectors of a TraceMeta) that write_csv_trace() was
/// given — it is the input format of `tools/rispp_report profile`.

#include <iosfwd>
#include <vector>

#include "rispp/obs/event.hpp"

namespace rispp::obs {

void write_csv_trace(std::ostream& out, const std::vector<Event>& events,
                     const TraceMeta& meta);

/// Parses a write_csv_trace() stream. Throws util::PreconditionError on
/// malformed input. When `meta` is non-null, its name vectors are rebuilt
/// from the name columns (clock_mhz/containers are not stored in the CSV
/// and keep their prior values).
std::vector<Event> read_csv_trace(std::istream& in, TraceMeta* meta = nullptr);

}  // namespace rispp::obs
