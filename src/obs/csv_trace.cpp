#include "rispp/obs/csv_trace.hpp"

#include <istream>
#include <ostream>
#include <string>

#include "rispp/util/csv.hpp"
#include "rispp/util/error.hpp"
#include "rispp/util/parse.hpp"

namespace rispp::obs {

namespace {

constexpr const char* kHeader =
    "at,kind,task,container,si,atom,cycles,prev_cycles,hw,task_name,si_name,"
    "atom_name";

/// Splits one RFC-4180 CSV record (quoted cells, doubled inner quotes).
std::vector<std::string> split_row(const std::string& line, std::size_t row) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"' && cell.empty()) {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else {
      cell += c;
    }
  }
  RISPP_REQUIRE(!quoted, "trace CSV row " + std::to_string(row) +
                             ": unterminated quote");
  cells.push_back(std::move(cell));
  return cells;
}

/// Reads cell `s` as a T under the one number rule (util/parse.hpp).
template <typename T>
T cell(const std::string& s, std::size_t row) {
  if (const auto v = util::parse_number<T>(s)) return *v;
  throw util::PreconditionError("trace CSV row " + std::to_string(row) +
                                ": invalid number '" + s + "'");
}

void learn_name(std::vector<std::string>& names, std::int64_t index,
                const std::string& name) {
  if (index < 0 || name.empty()) return;
  if (names.size() <= static_cast<std::size_t>(index))
    names.resize(static_cast<std::size_t>(index) + 1);
  names[static_cast<std::size_t>(index)] = name;
}

}  // namespace

void write_csv_trace(std::ostream& out, const std::vector<Event>& events,
                     const TraceMeta& meta) {
  util::CsvWriter csv(out);
  out << kHeader << "\n";
  for (const auto& e : events) {
    csv.row(std::to_string(e.at), to_string(e.kind), std::to_string(e.task),
            std::to_string(e.container), std::to_string(e.si),
            std::to_string(e.atom), std::to_string(e.cycles),
            std::to_string(e.prev_cycles), e.hardware ? "1" : "0",
            e.task >= 0 ? meta.task_name(e.task) : "",
            e.si >= 0 ? meta.si_name(e.si) : "",
            e.atom >= 0 ? meta.atom_name(e.atom) : "");
  }
}

std::vector<Event> read_csv_trace(std::istream& in, TraceMeta* meta) {
  std::string line;
  RISPP_REQUIRE(std::getline(in, line) && line == kHeader,
                "not a rispp trace CSV (bad or missing header)");
  std::vector<Event> events;
  std::size_t row = 1;
  while (std::getline(in, line)) {
    ++row;
    if (line.empty()) continue;
    const auto cells = split_row(line, row);
    RISPP_REQUIRE(cells.size() == 12, "trace CSV row " + std::to_string(row) +
                                          ": expected 12 cells, got " +
                                          std::to_string(cells.size()));
    Event e;
    e.at = cell<std::uint64_t>(cells[0], row);
    RISPP_REQUIRE(kind_from_string(cells[1], e.kind),
                  "trace CSV row " + std::to_string(row) +
                      ": unknown event kind '" + cells[1] + "'");
    e.task = cell<std::int32_t>(cells[2], row);
    e.container = cell<std::int32_t>(cells[3], row);
    e.si = cell<std::int64_t>(cells[4], row);
    e.atom = cell<std::int64_t>(cells[5], row);
    e.cycles = cell<std::uint64_t>(cells[6], row);
    e.prev_cycles = cell<std::uint64_t>(cells[7], row);
    e.hardware = cells[8] == "1";
    if (meta) {
      learn_name(meta->task_names, e.task, cells[9]);
      learn_name(meta->si_names, e.si, cells[10]);
      learn_name(meta->atom_names, e.atom, cells[11]);
    }
    events.push_back(e);
  }
  return events;
}

}  // namespace rispp::obs
