#include "rispp/workload/phased.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numbers>
#include <ostream>
#include <sstream>

#include "rispp/util/parse.hpp"
#include "rispp/util/rng.hpp"

namespace rispp::workload {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

/// Reads `v` as a T under the one number rule (util/parse.hpp).
template <typename T>
T parse_num(std::size_t line, const std::string& v) {
  if (const auto x = util::parse_number<T>(v)) return *x;
  throw WorkloadConfigError(line, "invalid number: '" + v + "'");
}

/// Parses "uniform" | "weighted" | "zipfian [THETA]" | "hotset [FRAC PROB]"
/// from tokens[from..]; range-checks with the config line for diagnostics.
ChooserSpec parse_chooser(std::size_t line,
                          const std::vector<std::string>& tokens,
                          std::size_t from, bool weighted_allowed) {
  if (from >= tokens.size())
    throw WorkloadConfigError(line, "chooser kind expected");
  ChooserSpec spec;
  const auto& kind = tokens[from];
  const std::size_t extra = tokens.size() - from - 1;
  if (kind == "uniform") {
    spec.kind = Chooser::Kind::Uniform;
    if (extra != 0)
      throw WorkloadConfigError(line, "uniform chooser takes no parameters");
  } else if (kind == "weighted") {
    if (!weighted_allowed)
      throw WorkloadConfigError(
          line, "'weighted' only applies to SI choosers (tasks carry no "
                "mix weights)");
    spec.kind = Chooser::Kind::Weighted;
    if (extra != 0)
      throw WorkloadConfigError(
          line, "weighted chooser takes no parameters (it uses the mix "
                "weights)");
  } else if (kind == "zipfian") {
    spec.kind = Chooser::Kind::Zipfian;
    if (extra > 1)
      throw WorkloadConfigError(line, "zipfian chooser takes at most THETA");
    if (extra == 1) spec.theta = parse_num<double>(line, tokens[from + 1]);
    if (!(spec.theta > 0.0 && spec.theta < 1.0))
      throw WorkloadConfigError(line, "zipfian theta must be in (0,1)");
  } else if (kind == "hotset") {
    spec.kind = Chooser::Kind::HotSet;
    if (extra != 0 && extra != 2)
      throw WorkloadConfigError(
          line, "hotset chooser takes FRACTION PROBABILITY (or nothing)");
    if (extra == 2) {
      spec.hot_fraction = parse_num<double>(line, tokens[from + 1]);
      spec.hot_probability = parse_num<double>(line, tokens[from + 2]);
    }
    if (!(spec.hot_fraction > 0.0 && spec.hot_fraction <= 1.0))
      throw WorkloadConfigError(line, "hotset fraction must be in (0,1]");
    if (!(spec.hot_probability > 0.0 && spec.hot_probability <= 1.0))
      throw WorkloadConfigError(line, "hotset probability must be in (0,1]");
  } else {
    throw WorkloadConfigError(
        line, "unknown chooser '" + kind +
                  "' (known: uniform, weighted, zipfian, hotset)");
  }
  return spec;
}

}  // namespace

Chooser ChooserSpec::build(std::size_t n,
                           const std::vector<double>& weights) const {
  switch (kind) {
    case Chooser::Kind::Uniform:
      return Chooser::uniform(n);
    case Chooser::Kind::Zipfian:
      return Chooser::zipfian(n, theta);
    case Chooser::Kind::HotSet:
      return Chooser::hot_set(n, hot_fraction, hot_probability);
    case Chooser::Kind::Weighted:
      RISPP_REQUIRE(weights.size() == n,
                    "weighted chooser needs one weight per domain index");
      return Chooser::weighted(weights);
  }
  return Chooser::uniform(n);  // unreachable
}

std::string ChooserSpec::describe() const {
  switch (kind) {
    case Chooser::Kind::Uniform:
      return "uniform";
    case Chooser::Kind::Weighted:
      return "weighted";
    case Chooser::Kind::Zipfian:
      return "zipfian " + fmt(theta);
    case Chooser::Kind::HotSet:
      return "hotset " + fmt(hot_fraction) + " " + fmt(hot_probability);
  }
  return "?";
}

PhasedConfig parse_phased_config(std::istream& in) {
  PhasedConfig cfg;
  cfg.task_chooser = ChooserSpec{Chooser::Kind::Uniform};
  bool seen_workload = false;
  PhaseConfig* phase = nullptr;
  std::string raw;
  std::size_t line_no = 0;

  const auto finish_phase = [&](std::size_t at) {
    if (phase == nullptr) return;
    if (phase->events == 0)
      throw WorkloadConfigError(at, "phase '" + phase->name +
                                        "' needs 'events N' with N >= 1");
    if (phase->mix.empty())
      throw WorkloadConfigError(
          at, "phase '" + phase->name + "' needs a non-empty 'mix'");
  };

  while (std::getline(in, raw)) {
    ++line_no;
    if (const auto hash = raw.find('#'); hash != std::string::npos)
      raw.erase(hash);
    const auto tokens = tokenize(raw);
    if (tokens.empty()) continue;
    const auto& key = tokens[0];

    if (key == "workload") {
      if (seen_workload)
        throw WorkloadConfigError(line_no, "duplicate 'workload' section");
      if (phase != nullptr)
        throw WorkloadConfigError(line_no,
                                  "'workload' must precede every 'phase'");
      seen_workload = true;
      if (tokens.size() > 2)
        throw WorkloadConfigError(line_no, "usage: workload [NAME]");
      if (tokens.size() == 2) cfg.name = tokens[1];
      continue;
    }
    if (key == "phase") {
      if (tokens.size() != 2)
        throw WorkloadConfigError(line_no, "usage: phase NAME");
      finish_phase(line_no);
      cfg.phases.emplace_back();
      phase = &cfg.phases.back();
      phase->name = tokens[1];
      continue;
    }

    if (phase == nullptr) {
      // Workload-level directives.
      if (key == "tasks") {
        if (tokens.size() != 2)
          throw WorkloadConfigError(line_no, "usage: tasks N");
        cfg.tasks = parse_num<std::uint64_t>(line_no, tokens[1]);
        if (cfg.tasks == 0)
          throw WorkloadConfigError(line_no, "tasks must be >= 1");
      } else if (key == "seed") {
        if (tokens.size() != 2)
          throw WorkloadConfigError(line_no, "usage: seed N");
        cfg.seed = parse_num<std::uint64_t>(line_no, tokens[1]);
      } else if (key == "task_chooser") {
        cfg.task_chooser =
            parse_chooser(line_no, tokens, 1, /*weighted_allowed=*/false);
      } else {
        throw WorkloadConfigError(
            line_no, "unknown workload directive '" + key +
                         "' (known: tasks, seed, task_chooser, phase)");
      }
      continue;
    }

    // Phase-level directives.
    if (key == "events") {
      if (tokens.size() != 2)
        throw WorkloadConfigError(line_no, "usage: events N");
      phase->events = parse_num<std::uint64_t>(line_no, tokens[1]);
      if (phase->events == 0)
        throw WorkloadConfigError(line_no, "events must be >= 1");
    } else if (key == "mix") {
      if (tokens.size() < 2)
        throw WorkloadConfigError(line_no, "usage: mix SI=WEIGHT ...");
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto eq = tokens[i].find('=');
        const auto name = tokens[i].substr(0, eq);
        if (name.empty())
          throw WorkloadConfigError(line_no,
                                    "mix entry needs an SI name: '" +
                                        tokens[i] + "'");
        double weight = 1.0;
        if (eq != std::string::npos)
          weight = parse_num<double>(line_no, tokens[i].substr(eq + 1));
        if (!(weight > 0.0))
          throw WorkloadConfigError(line_no,
                                    "mix weight must be > 0: '" + tokens[i] +
                                        "'");
        for (const auto& [existing, w] : phase->mix)
          if (existing == name)
            throw WorkloadConfigError(line_no,
                                      "duplicate mix entry '" + name + "'");
        phase->mix.emplace_back(name, weight);
      }
    } else if (key == "si_chooser") {
      phase->si_chooser =
          parse_chooser(line_no, tokens, 1, /*weighted_allowed=*/true);
    } else if (key == "task_chooser") {
      phase->task_chooser =
          parse_chooser(line_no, tokens, 1, /*weighted_allowed=*/false);
    } else if (key == "compute") {
      if (tokens.size() != 2 && tokens.size() != 3)
        throw WorkloadConfigError(line_no, "usage: compute MIN [MAX]");
      phase->compute_min = parse_num<std::uint64_t>(line_no, tokens[1]);
      phase->compute_max =
          tokens.size() == 3 ? parse_num<std::uint64_t>(line_no, tokens[2])
                             : phase->compute_min;
      if (phase->compute_min == 0)
        throw WorkloadConfigError(line_no, "compute gap must be >= 1 cycle");
      if (phase->compute_max < phase->compute_min)
        throw WorkloadConfigError(line_no, "compute MAX must be >= MIN");
    } else if (key == "si_count") {
      if (tokens.size() != 2)
        throw WorkloadConfigError(line_no, "usage: si_count N");
      phase->si_count = parse_num<std::uint64_t>(line_no, tokens[1]);
      if (phase->si_count == 0)
        throw WorkloadConfigError(line_no, "si_count must be >= 1");
    } else if (key == "rate") {
      if (tokens.size() != 2 && tokens.size() != 3)
        throw WorkloadConfigError(line_no, "usage: rate BEGIN [END]");
      phase->rate_begin = parse_num<double>(line_no, tokens[1]);
      phase->rate_end = tokens.size() == 3
                            ? parse_num<double>(line_no, tokens[2])
                            : phase->rate_begin;
      if (!(phase->rate_begin > 0.0) || !(phase->rate_end > 0.0))
        throw WorkloadConfigError(line_no, "rates must be > 0");
    } else if (key == "burst") {
      if (tokens.size() != 3)
        throw WorkloadConfigError(line_no,
                                  "usage: burst period=N amplitude=F");
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        const auto eq = tokens[i].find('=');
        if (eq == std::string::npos)
          throw WorkloadConfigError(line_no,
                                    "usage: burst period=N amplitude=F");
        const auto k = tokens[i].substr(0, eq);
        const auto v = tokens[i].substr(eq + 1);
        if (k == "period")
          phase->burst_period = parse_num<std::uint64_t>(line_no, v);
        else if (k == "amplitude")
          phase->burst_amplitude = parse_num<double>(line_no, v);
        else
          throw WorkloadConfigError(line_no,
                                    "unknown burst parameter '" + k + "'");
      }
      if (phase->burst_period == 0)
        throw WorkloadConfigError(line_no, "burst period must be >= 1");
      if (!(phase->burst_amplitude >= 0.0 && phase->burst_amplitude < 1.0))
        throw WorkloadConfigError(line_no,
                                  "burst amplitude must be in [0,1)");
    } else if (key == "forecast") {
      if (tokens.size() != 2)
        throw WorkloadConfigError(line_no, "usage: forecast off|PROBABILITY");
      if (tokens[1] == "off") {
        phase->forecast = false;
      } else if (tokens[1] == "on") {
        phase->forecast = true;
      } else {
        phase->forecast = true;
        phase->forecast_probability = parse_num<double>(line_no, tokens[1]);
        if (!(phase->forecast_probability > 0.0 &&
              phase->forecast_probability <= 1.0))
          throw WorkloadConfigError(line_no,
                                    "forecast probability must be in (0,1]");
      }
    } else {
      throw WorkloadConfigError(
          line_no,
          "unknown phase directive '" + key +
              "' (known: events, mix, si_chooser, task_chooser, compute, "
              "si_count, rate, burst, forecast)");
    }
  }
  finish_phase(line_no);
  if (cfg.phases.empty())
    throw WorkloadConfigError(0, "workload config declares no phases");
  return cfg;
}

PhasedConfig parse_phased_config(const std::string& text) {
  std::istringstream in(text);
  return parse_phased_config(in);
}

void write_phased_config(std::ostream& out, const PhasedConfig& cfg) {
  out << "workload " << cfg.name << "\n";
  out << "  tasks " << cfg.tasks << "\n";
  out << "  seed " << cfg.seed << "\n";
  out << "  task_chooser " << cfg.task_chooser.describe() << "\n";
  for (const auto& p : cfg.phases) {
    out << "phase " << p.name << "\n";
    out << "  events " << p.events << "\n";
    out << "  mix";
    for (const auto& [name, w] : p.mix) out << " " << name << "=" << fmt(w);
    out << "\n";
    out << "  si_chooser " << p.si_chooser.describe() << "\n";
    if (p.task_chooser)
      out << "  task_chooser " << p.task_chooser->describe() << "\n";
    out << "  compute " << p.compute_min << " " << p.compute_max << "\n";
    out << "  si_count " << p.si_count << "\n";
    out << "  rate " << fmt(p.rate_begin) << " " << fmt(p.rate_end) << "\n";
    if (p.burst_period > 0)
      out << "  burst period=" << p.burst_period
          << " amplitude=" << fmt(p.burst_amplitude) << "\n";
    if (!p.forecast)
      out << "  forecast off\n";
    else if (p.forecast_probability != 1.0)
      out << "  forecast " << fmt(p.forecast_probability) << "\n";
  }
}

PhasedWorkload::PhasedWorkload(PhasedConfig cfg,
                               std::shared_ptr<const isa::SiLibrary> lib)
    : cfg_(std::move(cfg)), lib_(std::move(lib)) {
  RISPP_REQUIRE(lib_ != nullptr, "phased workload needs an SI library");
  if (cfg_.phases.empty())
    throw WorkloadConfigError(0, "workload config declares no phases");
  if (cfg_.tasks == 0) throw WorkloadConfigError(0, "tasks must be >= 1");
  si_indices_.reserve(cfg_.phases.size());
  for (const auto& p : cfg_.phases) {
    std::vector<std::size_t> indices;
    indices.reserve(p.mix.size());
    for (const auto& [name, weight] : p.mix) {
      if (!lib_->contains(name))
        throw WorkloadConfigError(
            0, "phase '" + p.name + "' references unknown SI '" + name +
                   "' (library has " + std::to_string(lib_->size()) +
                   " SIs)");
      indices.push_back(lib_->index_of(name));
    }
    si_indices_.push_back(std::move(indices));
  }
}

PhasedWorkload PhasedWorkload::from_string(
    const std::string& text, std::shared_ptr<const isa::SiLibrary> lib,
    std::optional<std::uint64_t> seed_override) {
  auto cfg = parse_phased_config(text);
  if (seed_override) cfg.seed = *seed_override;
  return PhasedWorkload(std::move(cfg), std::move(lib));
}

PhasedWorkload PhasedWorkload::from_file(
    const std::string& path, std::shared_ptr<const isa::SiLibrary> lib,
    std::optional<std::uint64_t> seed_override) {
  std::ifstream in(path);
  if (!in.good())
    throw WorkloadConfigError(0,
                              "cannot open workload config '" + path + "'");
  auto cfg = parse_phased_config(in);
  if (seed_override) cfg.seed = *seed_override;
  return PhasedWorkload(std::move(cfg), std::move(lib));
}

std::vector<sim::TaskDef> PhasedWorkload::generate(PhasedStats* stats) const {
  util::Xoshiro256 rng(cfg_.seed);
  const auto task_count = static_cast<std::size_t>(cfg_.tasks);

  std::vector<sim::Trace> traces(task_count);
  PhasedStats local;
  local.phases.reserve(cfg_.phases.size());
  local.events_per_task.assign(task_count, 0);

  // Appends a compute gap, merging into a trailing Compute op so traces
  // stay compact when consecutive events land on the same task.
  const auto add_compute = [](sim::Trace& t, std::uint64_t cycles) {
    if (!t.empty() && t.back().kind == sim::TraceOp::Kind::Compute)
      t.back().cycles += cycles;
    else
      t.push_back(sim::TraceOp::compute(cycles));
  };

  for (std::size_t pi = 0; pi < cfg_.phases.size(); ++pi) {
    const auto& phase = cfg_.phases[pi];
    const auto& sis = si_indices_[pi];
    PhaseStats ps;
    ps.name = phase.name;

    std::vector<double> weights;
    weights.reserve(phase.mix.size());
    double weight_total = 0.0;
    for (const auto& [name, w] : phase.mix) {
      weights.push_back(w);
      weight_total += w;
    }
    const auto si_chooser = phase.si_chooser.build(sis.size(), weights);
    const auto& tc_spec =
        phase.task_chooser ? *phase.task_chooser : cfg_.task_chooser;
    const auto task_chooser = tc_spec.build(task_count, {});

    // (task, mix position) pairs forecasted in this phase; released at the
    // phase boundary. Indexed flat: task * mix_size + pos.
    std::vector<char> forecasted(task_count * sis.size(), 0);

    for (std::uint64_t ev = 0; ev < phase.events; ++ev) {
      const auto task = task_chooser.pick(rng);
      const auto pos = si_chooser.pick(rng);
      const auto si = sis[pos];
      auto& trace = traces[task];

      // Arrival rate at this event: linear ramp across the phase, times an
      // optional sinusoidal burst. Higher rate → shorter compute gap.
      const double frac =
          phase.events > 1
              ? static_cast<double>(ev) / static_cast<double>(phase.events - 1)
              : 0.0;
      double rate =
          phase.rate_begin + (phase.rate_end - phase.rate_begin) * frac;
      if (phase.burst_period > 0 && phase.burst_amplitude > 0.0)
        rate *= 1.0 + phase.burst_amplitude *
                          std::sin(2.0 * std::numbers::pi *
                                   static_cast<double>(ev) /
                                   static_cast<double>(phase.burst_period));
      rate = std::max(rate, 1e-3);

      const std::uint64_t base =
          phase.compute_min +
          (phase.compute_max > phase.compute_min
               ? rng.below(phase.compute_max - phase.compute_min + 1)
               : 0);
      const auto gap = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 std::llround(static_cast<double>(base) / rate)));
      add_compute(trace, gap);
      ps.compute_cycles += gap;

      if (phase.forecast && !forecasted[task * sis.size() + pos]) {
        forecasted[task * sis.size() + pos] = 1;
        // Expected executions: this phase's share of events for that SI on
        // that task, as molecule-selection pressure — an estimate, like a
        // compiler's profile annotation would be.
        const double share =
            phase.si_chooser.kind == Chooser::Kind::Weighted
                ? weights[pos] / weight_total
                : 1.0 / static_cast<double>(sis.size());
        const double expected = std::max(
            1.0, std::floor(static_cast<double>(phase.events) * share *
                            static_cast<double>(phase.si_count) /
                            static_cast<double>(task_count)));
        trace.push_back(
            sim::TraceOp::forecast(si, expected, phase.forecast_probability));
        ++ps.forecasts;
      }

      trace.push_back(sim::TraceOp::si(si, phase.si_count));
      ps.si_invocations += phase.si_count;
      ++local.events_per_task[task];
    }
    ps.events = phase.events;

    // Phase boundary: every (task, SI) forecasted in this phase releases —
    // the hot spot has moved on. Deterministic order: tasks ascending, mix
    // position ascending.
    for (std::size_t task = 0; task < task_count; ++task) {
      for (std::size_t pos = 0; pos < sis.size(); ++pos) {
        if (!forecasted[task * sis.size() + pos]) continue;
        traces[task].push_back(sim::TraceOp::release(sis[pos]));
        ++ps.releases;
      }
    }

    local.events += ps.events;
    local.si_invocations += ps.si_invocations;
    local.forecasts += ps.forecasts;
    local.releases += ps.releases;
    local.compute_cycles += ps.compute_cycles;
    local.phases.push_back(std::move(ps));
  }

  std::vector<sim::TaskDef> tasks;
  tasks.reserve(task_count);
  for (std::size_t t = 0; t < task_count; ++t) {
    std::string name = "t";  // "t" + to_string trips GCC 12's -Wrestrict
    name += std::to_string(t);
    tasks.push_back({std::move(name), std::move(traces[t])});
  }
  if (stats) *stats = std::move(local);
  return tasks;
}

std::string PhasedWorkload::describe() const {
  std::ostringstream out;
  std::uint64_t events = 0, invocations = 0;
  for (std::size_t pi = 0; pi < cfg_.phases.size(); ++pi) {
    events += cfg_.phases[pi].events;
    invocations += cfg_.phases[pi].events * cfg_.phases[pi].si_count;
  }
  out << "workload " << cfg_.name << ": " << cfg_.tasks << " tasks, "
      << cfg_.phases.size() << " phases, " << events << " events, "
      << invocations << " SI invocations, seed " << cfg_.seed
      << ", task_chooser " << cfg_.task_chooser.describe() << "\n";
  for (const auto& p : cfg_.phases) {
    out << "  phase " << p.name << ": events " << p.events << ", si_chooser "
        << p.si_chooser.describe();
    if (p.task_chooser)
      out << ", task_chooser " << p.task_chooser->describe();
    out << ", compute [" << p.compute_min << ", " << p.compute_max
        << "], si_count " << p.si_count << ", rate " << fmt(p.rate_begin)
        << "->" << fmt(p.rate_end);
    if (p.burst_period > 0)
      out << ", burst period=" << p.burst_period
          << " amplitude=" << fmt(p.burst_amplitude);
    out << (p.forecast ? "" : ", forecasts off") << "\n    mix:";
    for (const auto& [name, w] : p.mix) out << " " << name << "=" << fmt(w);
    out << "\n";
  }
  return out.str();
}

}  // namespace rispp::workload
