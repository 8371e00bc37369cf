#pragma once
/// \file energy.hpp
/// \brief Energy accounting for the run-time platform.
///
/// The paper's motivation is as much power as performance: dedicated SI
/// hardware that idles through 83 % of the run "result[s] in power/energy
/// loss", and the FDF's offset is an energy break-even. The meter tracks
/// three components with a simple power×time model:
///   * execution energy — core power during software execution, accelerator
///     power during hardware execution,
///   * rotation energy — reconfiguration-port power during transfers,
///   * leakage — static power proportional to the loaded Atom slices,
///     integrated over time (this is the term a non-rotating extensible
///     processor pays for every dedicated Atom all the time).
///
/// Units: powers in mW, times derived from cycles at the configured clock;
/// energies reported in nJ (mW·µs).

#include <cstdint>

namespace rispp::rt {

struct PowerModel {
  double core_mw = 200.0;       ///< core while executing software molecules
  double hw_mw = 260.0;         ///< core + accelerator during HW execution
  double reconfig_mw = 90.0;    ///< drawn by the reconfiguration port
  double leak_mw_per_kslice = 5.0;  ///< static power per 1000 loaded slices
};

class EnergyMeter {
 public:
  EnergyMeter(PowerModel model, double clock_mhz)
      : model_(model), clock_mhz_(clock_mhz) {}

  /// Energy of one execution in nJ. A pure function of the model, so a
  /// caller may compute it once per (cycles, hardware) and add the same
  /// double per execution: the total is bit for bit the per-call sum.
  double execution_cost_nj(std::uint32_t cycles, bool hardware) const {
    const double us = cycles / clock_mhz_;
    return us * (hardware ? model_.hw_mw : model_.core_mw);
  }

  /// Adds one execution's execution_cost_nj().
  void add_execution_nj(double nj) { exec_nj_ += nj; }

  void add_rotation(std::uint64_t duration_cycles) {
    rotation_nj_ += duration_cycles / clock_mhz_ * model_.reconfig_mw;
  }

  /// A booked transfer was cancelled before it started — its energy is
  /// never actually drawn.
  void refund_rotation(std::uint64_t duration_cycles) {
    rotation_nj_ -= duration_cycles / clock_mhz_ * model_.reconfig_mw;
  }

  /// Integrate leakage up to `now` with the currently loaded slice count.
  /// Calls may repeat a timestamp; time never flows backwards here.
  void advance_leakage(std::uint64_t now, std::uint64_t loaded_slices) {
    if (now <= last_ts_) {
      last_ts_ = now > last_ts_ ? now : last_ts_;
      return;
    }
    const double us = static_cast<double>(now - last_ts_) / clock_mhz_;
    leakage_nj_ += us * model_.leak_mw_per_kslice *
                   (static_cast<double>(loaded_slices) / 1000.0);
    last_ts_ = now;
  }

  double execution_nj() const { return exec_nj_; }
  double rotation_nj() const { return rotation_nj_; }
  double leakage_nj() const { return leakage_nj_; }
  double total_nj() const { return exec_nj_ + rotation_nj_ + leakage_nj_; }
  const PowerModel& model() const { return model_; }

 private:
  PowerModel model_;
  double clock_mhz_;
  double exec_nj_ = 0;
  double rotation_nj_ = 0;
  double leakage_nj_ = 0;
  std::uint64_t last_ts_ = 0;
};

}  // namespace rispp::rt
