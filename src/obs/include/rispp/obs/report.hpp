#pragma once
/// \file report.hpp
/// \brief Versioned JSON run report — the machine-checkable output of a run.
///
/// A RunReport is the Profiler's finalized result: full cycle attribution
/// (every simulated cycle of every task in exactly one bucket), per-SI
/// latency digests, and the rotation-economics metrics the paper implies
/// but raw event streams don't surface. The serialized form (schema
/// `rispp.run_report`, docs/FORMATS.md §5) is deterministic byte-for-byte:
/// insertion-ordered keys, fixed-format numbers, no timestamps or paths —
/// the same run always serializes to the same bytes, which is what lets CI
/// diff a run against a checked-in golden and what makes sweep reports
/// byte-identical across `--jobs` values.

#include <cstdint>
#include <string>
#include <vector>

#include "rispp/obs/json.hpp"
#include "rispp/util/stats.hpp"

namespace rispp::obs {

/// Current serialization version; bumped on any schema change.
inline constexpr int kReportVersion = 2;

/// Cycle-attribution buckets. The Profiler guarantees (and finalize()
/// enforces) that per task these sum exactly to the run's span.
struct BucketSet {
  std::uint64_t sw_exec = 0;         ///< SW-Molecule SI execution
  std::uint64_t hw_exec = 0;         ///< HW-Molecule SI execution
  std::uint64_t plain_compute = 0;   ///< task slice time outside SI execution
  std::uint64_t rotation_stall = 0;  ///< SW execution while the needed
                                     ///< rotation was in flight on the port
  std::uint64_t idle = 0;            ///< run span the task did not own a slice

  std::uint64_t total() const {
    return sw_exec + hw_exec + plain_compute + rotation_stall + idle;
  }
  friend bool operator==(const BucketSet&, const BucketSet&) = default;
};

/// Digest of one latency population: exact count/min/max/mean plus
/// log-bucketed percentile *bounds* (see util::PercentileBound — histograms
/// forget exact samples, so percentiles are honest brackets, not points).
/// All fields other than count are meaningful only when count > 0.
struct LatencyDigest {
  std::uint64_t count = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  util::PercentileBound p50, p90, p99;

  friend bool operator==(const LatencyDigest&,
                         const LatencyDigest&) = default;
};

/// Per-SI latency digests, split by Molecule flavour, the
/// forecast→first-hardware-use lead time the run-time achieved for it, and
/// its upgrade staircase: how often its latency changed and how long each
/// upgrade took to arrive after the SI was forecast.
struct SiReport {
  std::int64_t si = -1;
  std::string name;
  LatencyDigest all;            ///< every invocation
  LatencyDigest hw;             ///< hardware-Molecule invocations
  LatencyDigest sw;             ///< software invocations (incl. stalled ones)
  LatencyDigest forecast_lead;  ///< ForecastSeen → first hw execution
  std::uint64_t upgrades = 0;    ///< MoleculeUpgraded to a lower latency
  std::uint64_t downgrades = 0;  ///< MoleculeUpgraded to a higher latency
  LatencyDigest upgrade_gap;     ///< latest ForecastSeen → each upgrade
};

struct TaskReport {
  std::int32_t task = -1;
  std::string name;
  BucketSet buckets;
};

/// One residency interval of an Atom in a container: loaded at `from`
/// (transfer completion), given up at `to`, serving `uses` hardware
/// executions of its SI in between.
struct OccupancySegment {
  std::int64_t atom = -1;
  std::string atom_name;
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::uint64_t uses = 0;
};

struct ContainerReport {
  std::int32_t container = -1;
  std::uint64_t rotations = 0;         ///< completed transfers into this AC
  std::uint64_t wasted_rotations = 0;  ///< loaded then evicted with 0 uses
  std::vector<OccupancySegment> occupancy;
};

/// Reconfiguration-port economics. `queueing` is booking→transfer-start
/// delay (the port was busy with earlier transfers); `transfer` is the
/// transfer duration itself — the two the paper's Fig 6 timeline conflates.
struct PortReport {
  std::uint64_t busy_cycles = 0;
  double utilization = 0.0;  ///< busy / span; 0 when the span is empty
  LatencyDigest queueing;
  LatencyDigest transfer;
};

/// Scalar event counts over the whole stream.
struct ReportCounts {
  std::uint64_t events = 0;
  std::uint64_t task_switches = 0;
  std::uint64_t forecasts = 0;
  std::uint64_t releases = 0;
  std::uint64_t rotations = 0;
  std::uint64_t rotations_cancelled = 0;
  std::uint64_t rotations_failed = 0;
  std::uint64_t acs_quarantined = 0;
  std::uint64_t evictions = 0;
  std::uint64_t wasted_rotations = 0;

  friend bool operator==(const ReportCounts&,
                         const ReportCounts&) = default;
};

/// The full run report. `scenario` is the only free-form field and is set
/// by the caller (bench name, sweep point id) — never a path or timestamp.
struct RunReport {
  int version = kReportVersion;
  std::string scenario;
  std::uint64_t first_cycle = 0;
  std::uint64_t last_cycle = 0;
  ReportCounts counts;
  BucketSet buckets;  ///< aggregate over all tasks
  std::vector<TaskReport> tasks;
  std::vector<SiReport> sis;
  PortReport port;
  std::vector<ContainerReport> containers;

  std::uint64_t span_cycles() const { return last_cycle - first_cycle; }
};

/// JSON tree → struct; throws util::PreconditionError on missing fields or
/// an unsupported version.
RunReport report_from_json(const json::Value& v);

/// Serialized report text, written straight into one string without a
/// tree: members in a fixed order, in json::Value::dump(2)'s layout (two
/// spaces per level, `[]` for an empty array, trailing newline), so
/// `json::parse(text).dump(2) == text`. Integers are exact; doubles are
/// fixed six-decimal tokens with trailing zeros trimmed; a non-finite
/// double throws util::PreconditionError.
std::string write_report(const RunReport& r);
/// Parses text produced by write_report (or any schema-conforming JSON).
RunReport read_report(const std::string& text);

/// File-level wrappers; throw util::PreconditionError on I/O failure.
void write_report_file(const std::string& path, const RunReport& r);
RunReport read_report_file(const std::string& path);

/// One relative-tolerance rule for diffing: applies to any leaf whose
/// dotted path (e.g. "port.utilization", "sis[2].hw.mean") contains
/// `pattern` as a substring. The most specific (longest) matching pattern
/// wins; leaves matched by no rule compare exactly.
struct DiffTolerance {
  std::string pattern;
  double rel = 0.0;
};

/// One divergence between two report trees.
struct DiffEntry {
  std::string path;       ///< dotted path to the diverging leaf
  std::string golden;     ///< rendered golden-side value ("<absent>" if missing)
  std::string candidate;  ///< rendered candidate-side value
  double rel = 0.0;       ///< relative delta for numeric leaves, else 0
};

/// Structural + numeric diff of two report JSON trees. Numeric leaves
/// compare with the matched rule's relative tolerance (|a-b| / max(|a|,|b|));
/// strings, bools and structure always compare exactly. Returns every
/// divergence in document order — empty means "within tolerance".
std::vector<DiffEntry> diff_reports(const json::Value& golden,
                                    const json::Value& candidate,
                                    const std::vector<DiffTolerance>& tols = {});

}  // namespace rispp::obs
