#pragma once
/// \file counters.hpp
/// \brief The run-time kernel's event counts: one array slot per counted
/// fact, indexed by an enum on the hot paths and named only when read.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rispp::rt {

/// The facts RisppManager counts.
enum class Counter : std::uint8_t {
  Forecasts,
  ForecastReleases,
  Reallocations,
  /// Selector re-plans: one per reallocation, so always equal to
  /// Reallocations. Kept while hostbench's ledger still reads it.
  SelectorPlans,
  Rotations,
  RotationsDegraded,
  RotationsCancelled,
  RotationsFailed,
  RotationsPoisoned,
  RotationRetries,
  AcsQuarantined,
  SiExecHw,
  SiExecSw,
};

class KernelCounters {
 public:
  /// The name of each counter, indexed by Counter — what reports, tools and
  /// tests read them by.
  static constexpr auto kNames = std::to_array<std::string_view>({
      "forecasts",
      "forecast_releases",
      "reallocations",
      "selector_plans",
      "rotations",
      "rotations_degraded",
      "rotations_cancelled",
      "rotations_failed",
      "rotations_poisoned",
      "rotation_retries",
      "acs_quarantined",
      "si_exec_hw",
      "si_exec_sw",
  });
  static constexpr std::size_t kSize = kNames.size();
  static_assert(kSize == static_cast<std::size_t>(Counter::SiExecSw) + 1,
                "one name per Counter, in enum order");

  void bump(Counter c) { ++values_[static_cast<std::size_t>(c)]; }

  /// Value of the counter called `name` (e.g. "selector_plans"); 0 for a
  /// name the kernel does not count.
  std::uint64_t get(std::string_view name) const {
    for (std::size_t i = 0; i < kSize; ++i)
      if (kNames[i] == name) return values_[i];
    return 0;
  }

 private:
  std::array<std::uint64_t, kSize> values_{};
};

}  // namespace rispp::rt
