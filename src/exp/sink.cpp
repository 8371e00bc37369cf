#include "rispp/exp/sink.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "rispp/obs/json.hpp"
#include "rispp/util/csv.hpp"
#include "rispp/util/error.hpp"
#include "rispp/util/parse.hpp"

namespace rispp::exp {

namespace {

/// Fixed-format double token with trailing zeros trimmed — the same recipe
/// as the run-report writer, so summaries are byte-stable across platforms.
std::string fmt_double(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", x);
  std::string s(buf);
  const auto dot = s.find('.');
  if (dot != std::string::npos) {
    auto last = s.find_last_not_of('0');
    if (last == dot) --last;
    s.erase(last + 1);
  }
  return s;
}

obs::json::Value percentile_bracket(const util::LogHistogram& h, double q) {
  const auto b = h.percentile(q);
  auto v = obs::json::Value::array();
  v.push_back(obs::json::Value::number(fmt_double(b.lower)));
  v.push_back(obs::json::Value::number(fmt_double(b.upper)));
  return v;
}

}  // namespace

StreamingAggregator::Metric& StreamingAggregator::metric_for(
    const std::string& name) {
  for (auto& m : metrics_)
    if (m.name == name) return m;
  metrics_.push_back({name, {}, {}, 0});
  return metrics_.back();
}

void StreamingAggregator::on_row(const ResultRow& row) {
  ++rows_;
  for (const auto& [key, value] : row.cells) {
    // The one number rule; axis cells like "enc" simply don't fold.
    const auto parsed = util::parse_number<double>(value);
    if (!parsed) {
      ++metric_for(key).non_numeric;
      continue;
    }
    const double x = *parsed;
    auto& m = metric_for(key);
    m.acc.add(x);
    if (x >= 0.0)
      m.sketch.add(static_cast<std::uint64_t>(std::llround(x)));
  }
}

std::string StreamingAggregator::summary_json() const {
  using obs::json::Value;
  auto doc = Value::object();
  doc.add("schema", Value::string("rispp.sweep_summary"));
  doc.add("version", Value::number(std::uint64_t{1}));
  doc.add("points", Value::number(std::uint64_t{rows_}));
  auto& metrics = doc.add("metrics", Value::array());
  for (const auto& m : metrics_) {
    auto entry = Value::object();
    entry.add("metric", Value::string(m.name));
    entry.add("count", Value::number(std::uint64_t{m.acc.count()}));
    if (m.non_numeric)
      entry.add("non_numeric", Value::number(m.non_numeric));
    if (m.acc.count() > 0) {
      entry.add("mean", Value::number(fmt_double(m.acc.mean())));
      entry.add("min", Value::number(fmt_double(m.acc.min())));
      entry.add("max", Value::number(fmt_double(m.acc.max())));
    }
    if (m.sketch.total() > 0) {
      entry.add("p50", percentile_bracket(m.sketch, 0.50));
      entry.add("p90", percentile_bracket(m.sketch, 0.90));
      entry.add("p99", percentile_bracket(m.sketch, 0.99));
    }
    metrics.push_back(std::move(entry));
  }
  return doc.dump(2);
}

void CsvSpillSink::on_row(const ResultRow& row) {
  util::CsvWriter csv(out_);
  if (columns_.empty()) {
    columns_ = {"point", "seed"};
    for (const auto& [key, value] : row.cells)
      if (std::find(columns_.begin(), columns_.end(), key) == columns_.end())
        columns_.push_back(key);
    csv.row(columns_);
  } else {
    for (const auto& [key, value] : row.cells)
      if (std::find(columns_.begin(), columns_.end(), key) == columns_.end())
        throw util::PreconditionError(
            "streaming CSV cannot add column '" + key + "' (row " +
            std::to_string(row.point) +
            ") after the header was emitted; use the JSONL manifest sink "
            "for ragged sweeps");
  }
  std::vector<std::string> cells;
  cells.reserve(columns_.size());
  cells.push_back(std::to_string(row.point));
  cells.push_back(std::to_string(row.seed));
  for (std::size_t c = 2; c < columns_.size(); ++c) {
    const auto* v = row.find(columns_[c]);
    cells.push_back(v ? *v : "");
  }
  csv.row(cells);
  out_.flush();  // every flushed row survives a kill
}

void CsvSpillSink::finish() { out_.flush(); }

}  // namespace rispp::exp
