#pragma once
/// \file phased.hpp
/// \brief Traffic-shaped, declarative, deterministic workload generation —
/// the many-task scenarios the fixed paper traces never reach.
///
/// A PhasedWorkload turns a small declarative config (docs/FORMATS.md §8)
/// into a full multi-task simulator workload: a sequence of *phases*, each
/// generating a fixed number of SI-burst events whose SI is drawn from a
/// per-phase mix (weighted / uniform / zipfian / hot-set chooser) and whose
/// task is drawn from a task chooser — zipfian task skew is what makes a
/// handful of tasks dominate the arrival stream. Inter-arrival compute gaps
/// scale with an arrival-rate ramp across the phase plus an optional
/// sinusoidal "diurnal" burst, so saturation of the one reconfiguration
/// port is a config knob, not a code change.
///
/// Forecast semantics mirror the paper's §4/§5 loop: the first event of a
/// phase that lands an SI on a task emits a Forecast op ahead of the burst,
/// and every (task, SI) pair forecasted in a phase is Released at the phase
/// boundary — phase changes are exactly the "application hot spot moved"
/// moments rotation exists for.
///
/// Determinism contract: generation consumes a single Xoshiro256 stream
/// seeded from the config; identical (config, seed) produce byte-identical
/// traces (through sim::write_tasks) on any host, any thread count, any
/// generator instance — pinned by tests/workload_phased_test and the
/// WorkloadGolden ctests.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rispp/isa/si_library.hpp"
#include "rispp/sim/trace.hpp"
#include "rispp/util/error.hpp"
#include "rispp/workload/chooser.hpp"

namespace rispp::workload {

/// Parse/validation failure in a workload config, with the 1-based line
/// the problem was found on (0 for whole-document problems).
class WorkloadConfigError : public util::Error {
 public:
  WorkloadConfigError(std::size_t line, const std::string& what)
      : util::Error(line ? "line " + std::to_string(line) + ": " + what
                         : what),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// How a phase (or the workload) draws indices: the distribution shape plus
/// its parameters. `build` materializes a Chooser over a concrete domain.
struct ChooserSpec {
  Chooser::Kind kind = Chooser::Kind::Weighted;
  double theta = 0.99;          ///< Zipfian skew
  double hot_fraction = 0.1;    ///< HotSet: share of the domain that is hot
  double hot_probability = 0.9; ///< HotSet: probability a pick is hot

  /// Materializes the chooser over [0, n). `weights` backs the Weighted
  /// kind (must have size n then); other kinds ignore it.
  Chooser build(std::size_t n, const std::vector<double>& weights) const;
  std::string describe() const;
};

struct PhaseConfig {
  std::string name;
  std::uint64_t events = 0;  ///< SI-burst events this phase generates
  /// SI mix, in declaration order: (SI name, weight). Chooser rank 0 is the
  /// first entry, so zipfian/hot-set skew follows the written order.
  std::vector<std::pair<std::string, double>> mix;
  ChooserSpec si_chooser{};                         ///< default: weighted
  std::optional<ChooserSpec> task_chooser;          ///< overrides workload's
  std::uint64_t compute_min = 1000;  ///< per-event gap at rate 1.0, drawn
  std::uint64_t compute_max = 5000;  ///< uniformly from [min, max]
  std::uint64_t si_count = 1;        ///< SI invocations per burst event
  double rate_begin = 1.0;  ///< arrival-rate multiplier at phase start
  double rate_end = 1.0;    ///< ... at phase end (linear ramp between)
  double burst_amplitude = 0.0;      ///< diurnal modulation depth [0,1)
  std::uint64_t burst_period = 0;    ///< events per full sine period (0=off)
  bool forecast = true;              ///< emit Forecast/Release ops
  double forecast_probability = 1.0; ///< probability field of Forecast ops
};

struct PhasedConfig {
  std::string name = "phased";
  std::uint64_t tasks = 1;
  std::uint64_t seed = 1;
  ChooserSpec task_chooser{Chooser::Kind::Uniform};
  std::vector<PhaseConfig> phases;
};

/// Parses the §8 text format. Structural errors (unknown directives, bad
/// numbers, parameter ranges, empty phases) throw WorkloadConfigError with
/// the offending line; SI names are resolved later, against a library, by
/// PhasedWorkload's constructor.
PhasedConfig parse_phased_config(std::istream& in);
PhasedConfig parse_phased_config(const std::string& text);

/// Serializes a config back into the §8 text format (canonical spelling;
/// parse(write(cfg)) reproduces cfg).
void write_phased_config(std::ostream& out, const PhasedConfig& cfg);

struct PhaseStats {
  std::string name;
  std::uint64_t events = 0;
  std::uint64_t si_invocations = 0;
  std::uint64_t forecasts = 0;
  std::uint64_t releases = 0;
  std::uint64_t compute_cycles = 0;
};

struct PhasedStats {
  std::uint64_t events = 0;
  std::uint64_t si_invocations = 0;
  std::uint64_t forecasts = 0;
  std::uint64_t releases = 0;
  std::uint64_t compute_cycles = 0;
  std::vector<PhaseStats> phases;           ///< one entry per config phase
  std::vector<std::uint64_t> events_per_task;  ///< burst events per task id
};

class PhasedWorkload {
 public:
  /// Validates `cfg` against `lib` (every mix SI must exist, at least one
  /// phase, choosers well-formed) and precomputes the per-phase SI index
  /// tables. Throws WorkloadConfigError before any generation happens.
  PhasedWorkload(PhasedConfig cfg, std::shared_ptr<const isa::SiLibrary> lib);

  /// Parse + validate in one step. `seed_override` replaces the config's
  /// seed (the CLI's --seed= and the sweep axis ride on this).
  static PhasedWorkload from_string(
      const std::string& text, std::shared_ptr<const isa::SiLibrary> lib,
      std::optional<std::uint64_t> seed_override = std::nullopt);
  static PhasedWorkload from_file(
      const std::string& path, std::shared_ptr<const isa::SiLibrary> lib,
      std::optional<std::uint64_t> seed_override = std::nullopt);

  /// Generates the full multi-task workload. Pure function of the config:
  /// every call returns the same tasks, byte for byte.
  std::vector<sim::TaskDef> generate(PhasedStats* stats = nullptr) const;

  const PhasedConfig& config() const { return cfg_; }
  const isa::SiLibrary& library() const { return *lib_; }
  const std::shared_ptr<const isa::SiLibrary>& library_ptr() const {
    return lib_;
  }
  /// Human-readable plan: tasks, phases, mixes, choosers, event counts.
  std::string describe() const;

 private:
  PhasedConfig cfg_;
  std::shared_ptr<const isa::SiLibrary> lib_;
  std::vector<std::vector<std::size_t>> si_indices_;  ///< per phase, mix order
};

}  // namespace rispp::workload
