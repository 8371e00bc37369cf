#include "rispp/exp/result_table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "rispp/obs/json.hpp"
#include "rispp/util/csv.hpp"
#include "rispp/util/error.hpp"

namespace rispp::exp {

const std::string* ResultRow::find(const std::string& key) const {
  for (const auto& [k, v] : cells)
    if (k == key) return &v;
  return nullptr;
}

const std::string& ResultRow::at(const std::string& key) const {
  const auto* v = find(key);
  if (!v)
    throw util::PreconditionError("result row " + std::to_string(point) +
                                  " has no cell '" + key + "'");
  return *v;
}

std::vector<std::string> ResultRow::csv_cells(
    const std::vector<std::string>& columns) const {
  std::vector<std::string> cells;
  cells.reserve(columns.size());
  cells.push_back(std::to_string(point));
  cells.push_back(std::to_string(seed));
  for (std::size_t c = 2; c < columns.size(); ++c) {
    const auto* v = find(columns[c]);
    cells.push_back(v ? *v : "");
  }
  return cells;
}

void ResultTable::add(ResultRow row) {
  // Fast path: the sink-driven Runner delivers rows in ascending point
  // order, so appends are O(1) amortized; only genuinely out-of-order adds
  // pay the O(n) insert below.
  if (rows_.empty() || rows_.back().point < row.point) {
    rows_.push_back(std::move(row));
    return;
  }
  const auto pos = std::lower_bound(
      rows_.begin(), rows_.end(), row.point,
      [](const ResultRow& r, std::size_t p) { return r.point < p; });
  RISPP_REQUIRE(pos == rows_.end() || pos->point != row.point,
                "duplicate result row for sweep point " +
                    std::to_string(row.point));
  rows_.insert(pos, std::move(row));
}

std::vector<std::string> ResultTable::columns() const {
  std::vector<std::string> cols{"point", "seed"};
  for (const auto& row : rows_)
    for (const auto& [k, v] : row.cells)
      if (std::find(cols.begin(), cols.end(), k) == cols.end())
        cols.push_back(k);
  return cols;
}

void ResultTable::write_csv(std::ostream& out) const {
  const auto cols = columns();
  util::CsvWriter csv(out);
  csv.row(cols);
  for (const auto& row : rows_) csv.row(row.csv_cells(cols));
}

void ResultTable::write_json(std::ostream& out) const {
  const auto cols = columns();
  out << "{\n  \"columns\": [";
  for (std::size_t c = 0; c < cols.size(); ++c)
    out << (c ? ", \"" : "\"") << obs::json::escape(cols[c]) << '"';
  out << "],\n  \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const auto& row = rows_[r];
    out << (r ? ",\n    {" : "\n    {");
    out << "\"point\": " << row.point << ", \"seed\": " << row.seed;
    for (const auto& [k, v] : row.cells)
      out << ", \"" << obs::json::escape(k) << "\": \"" << obs::json::escape(v)
          << '"';
    out << "}";
  }
  out << (rows_.empty() ? "]\n}\n" : "\n  ]\n}\n");
}

std::string ResultTable::csv() const {
  std::ostringstream ss;
  write_csv(ss);
  return ss.str();
}

std::string ResultTable::json() const {
  std::ostringstream ss;
  write_json(ss);
  return ss.str();
}

}  // namespace rispp::exp
