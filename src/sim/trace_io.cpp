#include "rispp/sim/trace_io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

#include "rispp/util/parse.hpp"

namespace rispp::sim {

namespace {

/// Reads `value` as a T under the one number rule (util/parse.hpp).
template <typename T>
T parse_num(std::size_t line, const std::string& value) {
  if (const auto v = util::parse_number<T>(value)) return *v;
  throw TraceParseError(line, "invalid number: '" + value + "'");
}

/// The shortest text that reads back as exactly `x` (std::to_chars), so a
/// written trace reproduces its reals bit for bit.
std::string shortest(double x) {
  char buf[32];  // the longest shortest-form double is 24 characters
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, end);
}

std::size_t resolve_si(std::size_t line, const isa::SiLibrary& lib,
                       const std::string& name) {
  if (!lib.contains(name))
    throw TraceParseError(line, "unknown SI: '" + name + "'");
  return lib.index_of(name);
}

}  // namespace

std::vector<TaskDef> parse_tasks(std::istream& in, const isa::SiLibrary& lib) {
  std::vector<TaskDef> tasks;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    // Strip comments, respecting quoted label text.
    bool in_quote = false;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] == '"') in_quote = !in_quote;
      else if (raw[i] == '#' && !in_quote) {
        raw.erase(i);
        break;
      }
    }
    // A quote left open at end-of-line would otherwise be accepted as a
    // malformed label (and swallow any '#' comment after it).
    if (in_quote) throw TraceParseError(line_no, "unterminated quote");
    std::istringstream ls(raw);
    std::string op;
    if (!(ls >> op)) continue;

    if (op == "task") {
      std::string name;
      if (!(ls >> name)) throw TraceParseError(line_no, "task needs a name");
      tasks.push_back(TaskDef{name, {}});
      continue;
    }
    if (tasks.empty())
      throw TraceParseError(line_no, "ops must appear inside a task section");
    auto& trace = tasks.back().trace;

    if (op == "compute") {
      std::string cycles;
      if (!(ls >> cycles)) throw TraceParseError(line_no, "compute needs cycles");
      trace.push_back(
          TraceOp::compute(parse_num<std::uint64_t>(line_no, cycles)));
    } else if (op == "si") {
      std::string name, count;
      if (!(ls >> name)) throw TraceParseError(line_no, "si needs a name");
      std::uint64_t n = 1;
      if (ls >> count) n = parse_num<std::uint64_t>(line_no, count);
      if (n == 0) throw TraceParseError(line_no, "si count must be positive");
      trace.push_back(TraceOp::si(resolve_si(line_no, lib, name), n));
    } else if (op == "forecast") {
      std::string name, expected, prob;
      if (!(ls >> name >> expected))
        throw TraceParseError(line_no, "forecast needs a name and expectation");
      double p = 1.0;
      if (ls >> prob) p = parse_num<double>(line_no, prob);
      if (p <= 0.0 || p > 1.0)
        throw TraceParseError(line_no, "probability must be in (0,1]");
      trace.push_back(
          TraceOp::forecast(resolve_si(line_no, lib, name),
                            parse_num<double>(line_no, expected), p));
    } else if (op == "release") {
      std::string name;
      if (!(ls >> name)) throw TraceParseError(line_no, "release needs a name");
      trace.push_back(TraceOp::release(resolve_si(line_no, lib, name)));
    } else if (op == "label") {
      std::string rest;
      std::getline(ls, rest);
      const auto open = rest.find('"');
      const auto close = rest.rfind('"');
      if (open == std::string::npos || close == open)
        throw TraceParseError(line_no, "label needs quoted text");
      trace.push_back(TraceOp::label(rest.substr(open + 1, close - open - 1)));
    } else {
      throw TraceParseError(line_no, "unknown op: '" + op + "'");
    }
  }
  if (tasks.empty()) throw TraceParseError(line_no, "no task sections");
  return tasks;
}

std::vector<TaskDef> parse_tasks(const std::string& text,
                                 const isa::SiLibrary& lib) {
  std::istringstream in(text);
  return parse_tasks(in, lib);
}

void write_tasks(std::ostream& out, const std::vector<TaskDef>& tasks,
                 const isa::SiLibrary& lib) {
  for (const auto& t : tasks) {
    out << "task " << t.name << "\n";
    for (const auto& op : t.trace) {
      switch (op.kind) {
        case TraceOp::Kind::Compute:
          out << "  compute " << op.cycles << "\n";
          break;
        case TraceOp::Kind::Si:
          out << "  si " << lib.at(op.si_index).name() << " " << op.count
              << "\n";
          break;
        case TraceOp::Kind::Forecast:
          out << "  forecast " << lib.at(op.si_index).name() << " "
              << shortest(op.expected) << " " << shortest(op.probability)
              << "\n";
          break;
        case TraceOp::Kind::Release:
          out << "  release " << lib.at(op.si_index).name() << "\n";
          break;
        case TraceOp::Kind::Label:
          out << "  label \"" << op.text << "\"\n";
          break;
      }
    }
  }
}

}  // namespace rispp::sim
