#include "rispp/obs/report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "rispp/util/error.hpp"

namespace rispp::obs {

namespace {

/// Fixed-format double token with trailing zeros trimmed — the same recipe
/// as the chrome-trace exporter's timestamp formatting, so serialization is
/// deterministic and locale-free.
json::Value num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", x);
  std::string s(buf);
  s.erase(s.find_last_not_of('0') + 1);
  if (!s.empty() && s.back() == '.') s.pop_back();
  return json::Value::number(std::move(s));
}

json::Value num(std::uint64_t x) { return json::Value::number(x); }

json::Value bound_json(const util::PercentileBound& b) {
  auto v = json::Value::array();
  v.push_back(num(b.lower));
  v.push_back(num(b.upper));
  return v;
}

util::PercentileBound bound_from(const json::Value& v) {
  RISPP_REQUIRE(v.items().size() == 2, "percentile bound must be [lo, hi]");
  return {v.items()[0].as_double(), v.items()[1].as_double()};
}

json::Value digest_json(const LatencyDigest& d) {
  auto v = json::Value::object();
  v.add("count", num(d.count));
  if (d.count == 0) return v;
  v.add("min", num(d.min));
  v.add("max", num(d.max));
  v.add("mean", num(d.mean));
  v.add("p50", bound_json(d.p50));
  v.add("p90", bound_json(d.p90));
  v.add("p99", bound_json(d.p99));
  return v;
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

json::Value buckets_json(const BucketSet& b) {
  auto v = json::Value::object();
  v.add("sw_exec", num(b.sw_exec));
  v.add("hw_exec", num(b.hw_exec));
  v.add("plain_compute", num(b.plain_compute));
  v.add("rotation_stall", num(b.rotation_stall));
  v.add("idle", num(b.idle));
  return v;
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

json::Value to_json(const RunReport& r) {
  auto v = json::Value::object();
  v.add("schema", json::Value::string("rispp.run_report"));
  v.add("version", json::Value::number(static_cast<std::int64_t>(r.version)));
  v.add("scenario", json::Value::string(r.scenario));

  auto span = json::Value::object();
  span.add("first_cycle", num(r.first_cycle));
  span.add("last_cycle", num(r.last_cycle));
  span.add("cycles", num(r.span_cycles()));
  v.add("span", std::move(span));

  auto counts = json::Value::object();
  counts.add("events", num(r.counts.events));
  counts.add("task_switches", num(r.counts.task_switches));
  counts.add("forecasts", num(r.counts.forecasts));
  counts.add("releases", num(r.counts.releases));
  counts.add("rotations", num(r.counts.rotations));
  counts.add("rotations_cancelled", num(r.counts.rotations_cancelled));
  counts.add("rotations_failed", num(r.counts.rotations_failed));
  counts.add("acs_quarantined", num(r.counts.acs_quarantined));
  counts.add("evictions", num(r.counts.evictions));
  counts.add("wasted_rotations", num(r.counts.wasted_rotations));
  v.add("counts", std::move(counts));

  v.add("buckets", buckets_json(r.buckets));

  auto tasks = json::Value::array();
  for (const auto& t : r.tasks) {
    auto tv = json::Value::object();
    tv.add("task", json::Value::number(static_cast<std::int64_t>(t.task)));
    tv.add("name", json::Value::string(t.name));
    tv.add("buckets", buckets_json(t.buckets));
    tasks.push_back(std::move(tv));
  }
  v.add("tasks", std::move(tasks));

  auto sis = json::Value::array();
  for (const auto& s : r.sis) {
    auto sv = json::Value::object();
    sv.add("si", json::Value::number(s.si));
    sv.add("name", json::Value::string(s.name));
    sv.add("all", digest_json(s.all));
    sv.add("hw", digest_json(s.hw));
    sv.add("sw", digest_json(s.sw));
    sv.add("forecast_lead", digest_json(s.forecast_lead));
    sv.add("upgrades", num(s.upgrades));
    sv.add("downgrades", num(s.downgrades));
    sv.add("upgrade_gap", digest_json(s.upgrade_gap));
    sis.push_back(std::move(sv));
  }
  v.add("sis", std::move(sis));

  auto port = json::Value::object();
  port.add("busy_cycles", num(r.port.busy_cycles));
  port.add("utilization", num(r.port.utilization));
  port.add("queueing", digest_json(r.port.queueing));
  port.add("transfer", digest_json(r.port.transfer));
  v.add("port", std::move(port));

  auto containers = json::Value::array();
  for (const auto& c : r.containers) {
    auto cv = json::Value::object();
    cv.add("container",
           json::Value::number(static_cast<std::int64_t>(c.container)));
    cv.add("rotations", num(c.rotations));
    cv.add("wasted_rotations", num(c.wasted_rotations));
    auto occ = json::Value::array();
    for (const auto& seg : c.occupancy) {
      auto ov = json::Value::object();
      ov.add("atom", json::Value::number(seg.atom));
      ov.add("name", json::Value::string(seg.atom_name));
      ov.add("from", num(seg.from));
      ov.add("to", num(seg.to));
      ov.add("uses", num(seg.uses));
      occ.push_back(std::move(ov));
    }
    cv.add("occupancy", std::move(occ));
    containers.push_back(std::move(cv));
  }
  v.add("containers", std::move(containers));
  return v;
}

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

std::string write_report(const RunReport& r) { return to_json(r).dump(2); }

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
