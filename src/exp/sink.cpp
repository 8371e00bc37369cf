#include "rispp/exp/sink.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "rispp/obs/json.hpp"
#include "rispp/util/csv.hpp"
#include "rispp/util/error.hpp"
#include "rispp/util/parse.hpp"

namespace rispp::exp {

namespace {

using obs::json::Value;

constexpr int kDecimals = 6;  ///< as in run reports (docs/FORMATS.md §7.3)

Value percentile_bracket(const util::LogHistogram& h, double q) {
  const auto b = h.percentile(q);
  auto v = Value::array();
  v.push_back(Value::real(b.lower, kDecimals));
  v.push_back(Value::real(b.upper, kDecimals));
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
    // The sketch holds integers in [0, 2^64); other values fold into count,
    // mean, min and max only.
    const double rounded = std::round(x);
    if (x >= 0.0 && rounded < 0x1p64)
      m.sketch.add(static_cast<std::uint64_t>(rounded));
  }
}

std::string StreamingAggregator::summary_json() const {
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
      entry.add("mean", Value::real(m.acc.mean(), kDecimals));
      entry.add("min", Value::real(m.acc.min(), kDecimals));
      entry.add("max", Value::real(m.acc.max(), kDecimals));
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
  csv.row(row.csv_cells(columns_));
  out_.flush();  // every flushed row survives a kill
}

void CsvSpillSink::finish() { out_.flush(); }

}  // namespace rispp::exp
