#pragma once
/// \file trace_io.hpp
/// \brief Text format for multi-task workload traces — the input of
/// `rispp_workload simulate --trace=` and the hand-written scenario files in
/// docs/.
///
/// Line-oriented, SIs referenced by name against an SiLibrary:
///
/// ```
/// task encoder
///   forecast SATD_4x4 256 0.9     # expected executions, probability
///   compute 30000
///   si SATD_4x4 256
///   release SATD_4x4
///   label "macroblock done"
/// task audio                       # starts the next task
///   compute 100000
/// ```

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "rispp/isa/si_library.hpp"
#include "rispp/sim/trace.hpp"

namespace rispp::sim {

class TraceParseError : public std::runtime_error {
 public:
  TraceParseError(std::size_t line, const std::string& what)
      : std::runtime_error("line " + std::to_string(line) + ": " + what),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Parses one or more task sections. SI names resolve against `lib`.
std::vector<TaskDef> parse_tasks(std::istream& in, const isa::SiLibrary& lib);
std::vector<TaskDef> parse_tasks(const std::string& text,
                                 const isa::SiLibrary& lib);

/// Writes tasks in the same format (round-trip pinned by tests).
void write_tasks(std::ostream& out, const std::vector<TaskDef>& tasks,
                 const isa::SiLibrary& lib);

}  // namespace rispp::sim
