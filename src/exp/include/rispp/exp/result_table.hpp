#pragma once
/// \file result_table.hpp
/// \brief Aggregated sweep results with deterministic CSV/JSON rendering.
///
/// One row per sweep point, ordered by point index regardless of which
/// worker finished first. Columns are `point`, `seed`, then the ordered
/// union of every row's cell keys (first occurrence wins the position),
/// so rectangular sweeps get exactly axis columns followed by metric
/// columns. The renderings are byte-stable: same rows in, same bytes out
/// (docs/FORMATS.md "ResultTable").

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace rispp::exp {

struct ResultRow {
  std::size_t point = 0;
  std::uint64_t seed = 0;
  /// Parameter cells first (axis order), then metric cells — both as they
  /// were produced; the table derives the column union from this order.
  std::vector<std::pair<std::string, std::string>> cells;

  const std::string* find(const std::string& key) const;
  /// Value of `key`; throws util::PreconditionError when the row lacks it.
  const std::string& at(const std::string& key) const;

  /// The one CSV row renderer: point, seed, then the value of each further
  /// column in `columns`, empty where the row lacks it.
  std::vector<std::string> csv_cells(
      const std::vector<std::string>& columns) const;
};

class ResultTable {
 public:
  /// Inserts a row keeping the table sorted by point index. Duplicate point
  /// indices throw. Ascending-order adds (the sink-driven Runner's delivery
  /// order) are O(1) appends; out-of-order adds fall back to an O(n) sorted
  /// insert.
  void add(ResultRow row);

  const std::vector<ResultRow>& rows() const { return rows_; }
  bool empty() const { return rows_.empty(); }
  std::size_t size() const { return rows_.size(); }

  /// "point", "seed", then the ordered union of cell keys across rows.
  std::vector<std::string> columns() const;

  /// RFC-4180-style CSV; cells a row lacks render empty.
  void write_csv(std::ostream& out) const;
  /// {"columns": [...], "rows": [{...}]} — point/seed as JSON numbers,
  /// every other cell as a JSON string (values stay exactly what the
  /// evaluator produced; no float re-formatting between runs).
  void write_json(std::ostream& out) const;
  std::string csv() const;
  std::string json() const;

 private:
  std::vector<ResultRow> rows_;
};

}  // namespace rispp::exp
