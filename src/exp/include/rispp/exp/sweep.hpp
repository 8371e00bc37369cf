#pragma once
/// \file sweep.hpp
/// \brief Declarative experiment plans: a cartesian grid (or explicit point
/// list) over string-keyed parameters, each point with a deterministic
/// derived RNG seed.
///
/// Parameters are (name, value) string pairs — the same currency as CLI
/// flags and CSV columns — and a point evaluator (exp/standard_eval.hpp, or
/// any custom lambda) interprets them. Determinism contract: the point list,
/// the point order and every per-point seed are pure functions of the plan,
/// never of thread timing, so the same Sweep produces byte-identical results
/// at any worker count (pinned by tests/exp_test).

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rispp::exp {

/// One evaluated configuration point of a sweep.
struct SweepPoint {
  std::size_t index = 0;   ///< position in the plan (stable row order)
  std::uint64_t seed = 0;  ///< derived: splitmix64 over (base_seed, index)
  /// Parameter assignment, in axis declaration order.
  std::vector<std::pair<std::string, std::string>> params;

  /// Value of `key`, or nullptr when the plan has no such parameter.
  const std::string* find(std::string_view key) const;
  /// Value of `key`; throws util::PreconditionError when absent.
  const std::string& at(std::string_view key) const;
  std::string get(std::string_view key, std::string_view fallback) const;
  /// Value of `key` as a number of the named type under the one number
  /// rule (util/parse.hpp), or `fallback` when absent; throws
  /// util::PreconditionError naming the parameter on any other value.
  std::uint64_t get_u64(std::string_view key, std::uint64_t fallback) const;
  std::uint32_t get_u32(std::string_view key, std::uint32_t fallback) const;
  double get_f64(std::string_view key, double fallback) const;

 private:
  template <typename T>
  T number(std::string_view key, T fallback) const;
};

/// A sweep plan: either a cartesian grid over axes (last axis fastest) or an
/// explicit list of points — mixing the two modes is an error.
///
/// A plan can additionally be narrowed to a *shard view* (`shard(i, n)`):
/// the view contains exactly the points whose global index `k` satisfies
/// `k % n == i`, with index and seed untouched — point `k` is byte-identical
/// no matter which shard (or process) evaluates it, which is what lets
/// `rispp_merge` reassemble shard outputs into the single-process table.
class Sweep {
 public:
  /// Adds a grid axis. Duplicate names and empty value lists throw.
  Sweep& axis(std::string name, std::vector<std::string> values);
  /// Adds one explicit point (list mode, for non-rectangular plans).
  Sweep& add_point(std::vector<std::pair<std::string, std::string>> params);
  /// Base seed the per-point seeds derive from (default 1).
  Sweep& base_seed(std::uint64_t seed);
  /// Narrows this plan to shard `index` of `count` (round-robin by global
  /// point index). Requires index < count; count = 1 restores the full view.
  Sweep& shard(std::size_t index, std::size_t count);

  /// Parses the CLI grid syntax: "containers=4,8;quantum=10000;workload=enc"
  /// — axes separated by ';', values by ','. Throws on malformed specs.
  static Sweep parse_grid(const std::string& spec);

  /// splitmix64-finalized mix of (base, index): distinct per index, stable
  /// across platforms, independent of evaluation order.
  static std::uint64_t derive_seed(std::uint64_t base, std::size_t index);

  struct Axis {
    std::string name;
    std::vector<std::string> values;
  };
  const std::vector<Axis>& axes() const { return axes_; }
  std::uint64_t seed() const { return base_seed_; }
  std::size_t shard_index() const { return shard_index_; }
  std::size_t shard_count() const { return shard_count_; }
  /// Points in *this view* (the shard's share; = total_points() when
  /// unsharded).
  std::size_t size() const;
  /// Points in the full plan, ignoring any shard narrowing.
  std::size_t total_points() const;

  /// Materializes one point by its global index (ignores the shard view).
  /// O(axes) — no full-grid materialization. Throws when out of range.
  SweepPoint point_at(std::size_t global_index) const;

  /// Global indices of this view, ascending. O(size) memory — 8 bytes per
  /// point, the only per-point state a streaming run needs to hold.
  std::vector<std::size_t> indices() const;

  /// Enumerates this view's points in ascending global-index order without
  /// materializing them all (validation over huge grids stays O(1) memory).
  /// One SweepPoint is refilled in place for every point, so the reference
  /// handed to `fn` is valid only during that call: copy the point to keep
  /// it.
  void visit(const std::function<void(const SweepPoint&)>& fn) const;

  /// Materializes the plan: grid mode enumerates the cartesian product with
  /// the *last* axis varying fastest; list mode returns the points in
  /// insertion order. Sharded plans return only their view's points (global
  /// indices and seeds unchanged). Seeds are derived here.
  std::vector<SweepPoint> points() const;

  /// Canonical human-readable plan spec: the parse_grid syntax for grid
  /// plans ("a=1,2;b=x"), "explicit:<n>" for point lists.
  std::string spec() const;

  /// FNV-1a fingerprint of the full plan (axes/values or explicit points,
  /// plus base seed; shard narrowing excluded — all shards of one plan share
  /// it). Shard manifests record it so rispp_merge and --resume refuse to
  /// mix rows from different plans.
  std::uint64_t fingerprint() const;

  /// Human-readable plan description for `rispp_sweep --dry-run`: point
  /// count, axes and values, shard view, and a per-point (index, seed,
  /// params) listing capped at `max_listed` lines.
  std::string describe(std::size_t max_listed = 64) const;

 private:
  /// Makes `p` point `global_index` (no range check), reusing its storage.
  void fill(std::size_t global_index, SweepPoint& p) const;

  std::vector<Axis> axes_;
  std::vector<std::vector<std::pair<std::string, std::string>>> explicit_;
  std::uint64_t base_seed_ = 1;
  std::size_t shard_index_ = 0;
  std::size_t shard_count_ = 1;
};

}  // namespace rispp::exp
