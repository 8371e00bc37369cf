#include "rispp/obs/report.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <string_view>

#include "rispp/util/error.hpp"

namespace rispp::obs {

namespace {

using json::Writer;

/// Reals in a run report carry six decimals (docs/FORMATS.md §5).
constexpr int kDecimals = 6;

void write_bound(Writer& w, std::string_view key,
                 const util::PercentileBound& b) {
  w.key(key).begin_array();
  w.item().real(b.lower, kDecimals);
  w.item().real(b.upper, kDecimals);
  w.end_array();
}

void write_digest(Writer& w, std::string_view key, const LatencyDigest& d) {
  w.key(key).begin_object();
  w.key("count").integer(d.count);
  if (d.count > 0) {
    w.key("min").integer(d.min);
    w.key("max").integer(d.max);
    w.key("mean").real(d.mean, kDecimals);
    write_bound(w, "p50", d.p50);
    write_bound(w, "p90", d.p90);
    write_bound(w, "p99", d.p99);
  }
  w.end_object();
}

void write_buckets(Writer& w, const BucketSet& b) {
  w.key("buckets").begin_object();
  w.key("sw_exec").integer(b.sw_exec);
  w.key("hw_exec").integer(b.hw_exec);
  w.key("plain_compute").integer(b.plain_compute);
  w.key("rotation_stall").integer(b.rotation_stall);
  w.key("idle").integer(b.idle);
  w.end_object();
}

util::PercentileBound bound_from(const json::Value& v) {
  RISPP_REQUIRE(v.items().size() == 2, "percentile bound must be [lo, hi]");
  return {v.items()[0].as_double(), v.items()[1].as_double()};
}

LatencyDigest digest_from(const json::Value& v) {
  LatencyDigest d;
  d.count = v.at("count").as_u64();
  if (d.count == 0) return d;
  d.min = v.at("min").as_u64();
  d.max = v.at("max").as_u64();
  d.mean = v.at("mean").as_double();
  d.p50 = bound_from(v.at("p50"));
  d.p90 = bound_from(v.at("p90"));
  d.p99 = bound_from(v.at("p99"));
  return d;
}

BucketSet buckets_from(const json::Value& v) {
  BucketSet b;
  b.sw_exec = v.at("sw_exec").as_u64();
  b.hw_exec = v.at("hw_exec").as_u64();
  b.plain_compute = v.at("plain_compute").as_u64();
  b.rotation_stall = v.at("rotation_stall").as_u64();
  b.idle = v.at("idle").as_u64();
  return b;
}

}  // namespace

RunReport report_from_json(const json::Value& v) {
  RISPP_REQUIRE(v.at("schema").as_string() == "rispp.run_report",
                "not a rispp.run_report document");
  RunReport r;
  r.version = static_cast<int>(v.at("version").as_i64());
  RISPP_REQUIRE(r.version == kReportVersion,
                "unsupported run_report version " +
                    std::to_string(r.version));
  r.scenario = v.at("scenario").as_string();
  const auto& span = v.at("span");
  r.first_cycle = span.at("first_cycle").as_u64();
  r.last_cycle = span.at("last_cycle").as_u64();

  const auto& counts = v.at("counts");
  r.counts.events = counts.at("events").as_u64();
  r.counts.task_switches = counts.at("task_switches").as_u64();
  r.counts.forecasts = counts.at("forecasts").as_u64();
  r.counts.releases = counts.at("releases").as_u64();
  r.counts.rotations = counts.at("rotations").as_u64();
  r.counts.rotations_cancelled = counts.at("rotations_cancelled").as_u64();
  r.counts.rotations_failed = counts.at("rotations_failed").as_u64();
  r.counts.acs_quarantined = counts.at("acs_quarantined").as_u64();
  r.counts.evictions = counts.at("evictions").as_u64();
  r.counts.wasted_rotations = counts.at("wasted_rotations").as_u64();

  r.buckets = buckets_from(v.at("buckets"));

  for (const auto& tv : v.at("tasks").items()) {
    TaskReport t;
    t.task = static_cast<std::int32_t>(tv.at("task").as_i64());
    t.name = tv.at("name").as_string();
    t.buckets = buckets_from(tv.at("buckets"));
    r.tasks.push_back(std::move(t));
  }
  for (const auto& sv : v.at("sis").items()) {
    SiReport s;
    s.si = sv.at("si").as_i64();
    s.name = sv.at("name").as_string();
    s.all = digest_from(sv.at("all"));
    s.hw = digest_from(sv.at("hw"));
    s.sw = digest_from(sv.at("sw"));
    s.forecast_lead = digest_from(sv.at("forecast_lead"));
    s.upgrades = sv.at("upgrades").as_u64();
    s.downgrades = sv.at("downgrades").as_u64();
    s.upgrade_gap = digest_from(sv.at("upgrade_gap"));
    r.sis.push_back(std::move(s));
  }
  const auto& port = v.at("port");
  r.port.busy_cycles = port.at("busy_cycles").as_u64();
  r.port.utilization = port.at("utilization").as_double();
  r.port.queueing = digest_from(port.at("queueing"));
  r.port.transfer = digest_from(port.at("transfer"));

  for (const auto& cv : v.at("containers").items()) {
    ContainerReport c;
    c.container = static_cast<std::int32_t>(cv.at("container").as_i64());
    c.rotations = cv.at("rotations").as_u64();
    c.wasted_rotations = cv.at("wasted_rotations").as_u64();
    for (const auto& ov : cv.at("occupancy").items()) {
      OccupancySegment seg;
      seg.atom = ov.at("atom").as_i64();
      seg.atom_name = ov.at("name").as_string();
      seg.from = ov.at("from").as_u64();
      seg.to = ov.at("to").as_u64();
      seg.uses = ov.at("uses").as_u64();
      c.occupancy.push_back(std::move(seg));
    }
    r.containers.push_back(std::move(c));
  }
  return r;
}

std::string write_report(const RunReport& r) {
  Writer w(Writer::Layout::Pretty);
  w.begin_object();
  w.key("schema").str("rispp.run_report");
  w.key("version").integer(r.version);
  w.key("scenario").str(r.scenario);

  w.key("span").begin_object();
  w.key("first_cycle").integer(r.first_cycle);
  w.key("last_cycle").integer(r.last_cycle);
  w.key("cycles").integer(r.span_cycles());
  w.end_object();

  w.key("counts").begin_object();
  w.key("events").integer(r.counts.events);
  w.key("task_switches").integer(r.counts.task_switches);
  w.key("forecasts").integer(r.counts.forecasts);
  w.key("releases").integer(r.counts.releases);
  w.key("rotations").integer(r.counts.rotations);
  w.key("rotations_cancelled").integer(r.counts.rotations_cancelled);
  w.key("rotations_failed").integer(r.counts.rotations_failed);
  w.key("acs_quarantined").integer(r.counts.acs_quarantined);
  w.key("evictions").integer(r.counts.evictions);
  w.key("wasted_rotations").integer(r.counts.wasted_rotations);
  w.end_object();

  write_buckets(w, r.buckets);

  w.key("tasks").begin_array();
  for (const auto& t : r.tasks) {
    w.item().begin_object();
    w.key("task").integer(t.task);
    w.key("name").str(t.name);
    write_buckets(w, t.buckets);
    w.end_object();
  }
  w.end_array();

  w.key("sis").begin_array();
  for (const auto& s : r.sis) {
    w.item().begin_object();
    w.key("si").integer(s.si);
    w.key("name").str(s.name);
    write_digest(w, "all", s.all);
    write_digest(w, "hw", s.hw);
    write_digest(w, "sw", s.sw);
    write_digest(w, "forecast_lead", s.forecast_lead);
    w.key("upgrades").integer(s.upgrades);
    w.key("downgrades").integer(s.downgrades);
    write_digest(w, "upgrade_gap", s.upgrade_gap);
    w.end_object();
  }
  w.end_array();

  w.key("port").begin_object();
  w.key("busy_cycles").integer(r.port.busy_cycles);
  w.key("utilization").real(r.port.utilization, kDecimals);
  write_digest(w, "queueing", r.port.queueing);
  write_digest(w, "transfer", r.port.transfer);
  w.end_object();

  w.key("containers").begin_array();
  for (const auto& c : r.containers) {
    w.item().begin_object();
    w.key("container").integer(c.container);
    w.key("rotations").integer(c.rotations);
    w.key("wasted_rotations").integer(c.wasted_rotations);
    w.key("occupancy").begin_array();
    for (const auto& seg : c.occupancy) {
      w.item().begin_object();
      w.key("atom").integer(seg.atom);
      w.key("name").str(seg.atom_name);
      w.key("from").integer(seg.from);
      w.key("to").integer(seg.to);
      w.key("uses").integer(seg.uses);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

RunReport read_report(const std::string& text) {
  return report_from_json(json::parse(text));
}

void write_report_file(const std::string& path, const RunReport& r) {
  std::ofstream out(path);
  RISPP_REQUIRE(out.good(), "cannot open report output file: " + path);
  out << write_report(r);
  RISPP_REQUIRE(out.good(), "failed writing report file: " + path);
}

RunReport read_report_file(const std::string& path) {
  std::ifstream in(path);
  RISPP_REQUIRE(in.good(), "cannot open report file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return read_report(buf.str());
}

namespace {

double tolerance_for(const std::string& path,
                     const std::vector<DiffTolerance>& tols) {
  double rel = 0.0;
  std::size_t best = 0;
  bool any = false;
  for (const auto& t : tols)
    if (path.find(t.pattern) != std::string::npos &&
        (!any || t.pattern.size() >= best)) {
      rel = t.rel;
      best = t.pattern.size();
      any = true;
    }
  return rel;
}

std::string render(const json::Value& v) { return v.dump(); }

void diff_value(const std::string& path, const json::Value& a,
                const json::Value& b, const std::vector<DiffTolerance>& tols,
                std::vector<DiffEntry>& out) {
  if (a.kind() != b.kind()) {
    out.push_back({path, render(a), render(b), 0.0});
    return;
  }
  switch (a.kind()) {
    case json::Value::Kind::Number: {
      const double x = a.as_double(), y = b.as_double();
      if (a.token() == b.token()) return;
      const double scale = std::max(std::abs(x), std::abs(y));
      const double rel = scale > 0 ? std::abs(x - y) / scale : 0.0;
      if (rel > tolerance_for(path, tols))
        out.push_back({path, a.token(), b.token(), rel});
      return;
    }
    case json::Value::Kind::Array: {
      const auto& ia = a.items();
      const auto& ib = b.items();
      const auto n = std::min(ia.size(), ib.size());
      for (std::size_t i = 0; i < n; ++i)
        diff_value(path + "[" + std::to_string(i) + "]", ia[i], ib[i], tols,
                   out);
      for (std::size_t i = n; i < ia.size(); ++i)
        out.push_back({path + "[" + std::to_string(i) + "]", render(ia[i]),
                       "<absent>", 0.0});
      for (std::size_t i = n; i < ib.size(); ++i)
        out.push_back({path + "[" + std::to_string(i) + "]", "<absent>",
                       render(ib[i]), 0.0});
      return;
    }
    case json::Value::Kind::Object: {
      for (const auto& [key, av] : a.members()) {
        const auto child = path.empty() ? key : path + "." + key;
        if (const auto* bv = b.find(key))
          diff_value(child, av, *bv, tols, out);
        else
          out.push_back({child, render(av), "<absent>", 0.0});
      }
      for (const auto& [key, bv] : b.members())
        if (!a.find(key))
          out.push_back({path.empty() ? key : path + "." + key, "<absent>",
                         render(bv), 0.0});
      return;
    }
    default:
      if (render(a) != render(b))
        out.push_back({path, render(a), render(b), 0.0});
      return;
  }
}

}  // namespace

std::vector<DiffEntry> diff_reports(const json::Value& golden,
                                    const json::Value& candidate,
                                    const std::vector<DiffTolerance>& tols) {
  std::vector<DiffEntry> out;
  diff_value("", golden, candidate, tols, out);
  return out;
}

}  // namespace rispp::obs
