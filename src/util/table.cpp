#include "rispp/util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace rispp::util {

namespace {

/// The columns a cell takes: its UTF-8 code points, counted as the bytes
/// that are not continuation bytes (10xxxxxx), so "→" is one column.
std::size_t columns(const std::string& cell) {
  return static_cast<std::size_t>(
      std::count_if(cell.begin(), cell.end(), [](char c) {
        return (static_cast<unsigned char>(c) & 0xC0) != 0x80;
      }));
}

}  // namespace

TextTable::TextTable(std::initializer_list<std::string> header)
    : header_(header) {}

void TextTable::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TextTable::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string TextTable::grouped(long long v) {
  std::string digits = std::to_string(v < 0 ? -v : v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (v < 0) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

std::string TextTable::str() const {
  std::vector<std::size_t> widths;
  auto widen = [&](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], columns(row[i]));
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  auto emit = [&](std::ostringstream& os, const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      os << (i ? "  " : "") << cell
         << std::string(widths[i] - columns(cell), ' ');
    }
    os << "\n";
  };

  std::ostringstream os;
  if (!title_.empty()) os << title_ << "\n";
  if (!header_.empty()) {
    emit(os, header_);
    std::size_t total = 0;
    for (auto w : widths) total += w;
    os << std::string(total + 2 * (widths.empty() ? 0 : widths.size() - 1), '-')
       << "\n";
  }
  for (const auto& r : rows_) emit(os, r);
  return os.str();
}

}  // namespace rispp::util
