#pragma once
/// \file rotation_lifecycle.hpp
/// \brief Invariant I4 on the obs::Event stream: every issued rotation
/// reaches exactly one terminal state (docs/testing.md).
///
/// A RotationStarted span is keyed on (container, transfer start), the key
/// the Profiler matches on: RotationCancelled and RotationFailed carry the
/// start in prev_cycles, RotationFinished is the span re-stamped at its end
/// (at - cycles == start). The manager announces a clean transfer's finish
/// at issue time, so a later cancellation overrides it: the terminal state
/// is cancelled, else failed, else finished.
///
/// Used by rt_manager_test, rt_fault_test, rt_stress_test,
/// fault_invariant_test and genlib_property_test, which attach an
/// obs::TraceRecorder through RtConfig::sink to get the stream.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "rispp/obs/event.hpp"
#include "rispp/rt/manager.hpp"

namespace rotation_lifecycle {

enum class Terminal { Finished, Cancelled, Failed };

struct RotationSpan {
  std::int32_t container = -1;
  std::uint64_t start = 0;
  Terminal terminal = Terminal::Finished;
};

struct RotationLifecycle {
  std::vector<RotationSpan> spans;  ///< in RotationStarted order

  std::uint64_t count(Terminal t) const {
    std::uint64_t n = 0;
    for (const auto& s : spans) n += s.terminal == t ? 1 : 0;
    return n;
  }
};

/// Resolves every rotation in `events` (the manager's whole stream, read
/// after the run drained so failures were discovered) and checks I4: each
/// span has exactly one terminal state, a failed transfer never announced a
/// finish, and the counts agree with `mgr`'s rotations_cancelled(), its
/// rotations_failed counter and rotations_performed().
inline RotationLifecycle check_rotation_lifecycle(
    const std::vector<rispp::obs::Event>& events,
    const rispp::rt::RisppManager& mgr) {
  using rispp::obs::EventKind;
  struct Open {
    bool finished = false;
    bool closed = false;  ///< cancelled or failed
  };
  RotationLifecycle out;
  std::vector<Open> state;
  // The latest span with this key whose cancel/fail slot is still free.
  const auto find = [&](std::int32_t container,
                        std::uint64_t start) -> std::size_t {
    for (std::size_t i = out.spans.size(); i-- > 0;)
      if (out.spans[i].container == container &&
          out.spans[i].start == start && !state[i].closed)
        return i;
    return out.spans.size();
  };
  for (const auto& e : events) {
    switch (e.kind) {
      case EventKind::RotationStarted:
        out.spans.push_back({e.container, e.at, Terminal::Finished});
        state.push_back({});
        break;
      case EventKind::RotationFinished: {
        const auto i = find(e.container, e.at - e.cycles);
        if (i == out.spans.size() || state[i].finished) {
          ADD_FAILURE() << "I4: RotationFinished on AC " << e.container
                        << " at " << e.at << " matches no open span";
          break;
        }
        state[i].finished = true;
        break;
      }
      case EventKind::RotationCancelled:
      case EventKind::RotationFailed: {
        const auto i = find(e.container, e.prev_cycles);
        if (i == out.spans.size()) {
          ADD_FAILURE() << "I4: " << rispp::obs::to_string(e.kind)
                        << " on AC " << e.container << " for the transfer at "
                        << e.prev_cycles << " matches no open span";
          break;
        }
        state[i].closed = true;
        out.spans[i].terminal = e.kind == EventKind::RotationCancelled
                                    ? Terminal::Cancelled
                                    : Terminal::Failed;
        break;
      }
      default:
        break;
    }
  }
  for (std::size_t i = 0; i < out.spans.size(); ++i) {
    const auto& s = out.spans[i];
    EXPECT_TRUE(state[i].finished || state[i].closed)
        << "I4: the rotation on AC " << s.container << " starting at "
        << s.start << " never reached Finished/Cancelled/Failed";
    EXPECT_FALSE(s.terminal == Terminal::Failed && state[i].finished)
        << "I4: the failed transfer on AC " << s.container << " at "
        << s.start << " announced a finish";
  }
  EXPECT_EQ(out.count(Terminal::Cancelled), mgr.rotations_cancelled());
  EXPECT_EQ(out.count(Terminal::Failed),
            mgr.counters().get("rotations_failed"));
  EXPECT_EQ(out.spans.size() - out.count(Terminal::Cancelled),
            mgr.rotations_performed());
  return out;
}

}  // namespace rotation_lifecycle
