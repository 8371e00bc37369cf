#pragma once
/// \file stats.hpp
/// \brief Streaming statistics accumulators used by the simulator and benches.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rispp::util {

/// Welford-style streaming accumulator: O(1) memory, numerically stable
/// mean/variance, plus min/max and total.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double total() const { return total_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double min() const;
  double max() const;

  /// Merge another accumulator into this one (parallel-merge formula).
  void merge(const Accumulator& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double total_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact bracket of a percentile query against a bucketed distribution:
/// the nearest-rank sample lies in [lower, upper) — the edges of the bucket
/// that holds it. A histogram forgets exact sample values, so this is the
/// tightest honest answer (never a fabricated interpolation).
struct PercentileBound {
  double lower = 0.0;
  double upper = 0.0;

  friend bool operator==(const PercentileBound&,
                         const PercentileBound&) = default;
};

/// Power-of-two-bucketed histogram for non-negative integer samples
/// (latencies in cycles): bucket 0 holds the value 0, bucket i >= 1 covers
/// [2^(i-1), 2^i). O(1) memory for any dynamic range — the profiler keeps
/// one per (SI, molecule flavour) without knowing latencies up front.
class LogHistogram {
 public:
  /// Inline: this is the profiler's per-event hot path (several adds per
  /// simulated SI execution).
  void add(std::uint64_t x) {
    // Bucket 0 = {0}, bucket i >= 1 = [2^(i-1), 2^i): the index is the bit
    // width of the sample.
    const auto idx = static_cast<std::size_t>(std::bit_width(x));
    if (idx >= counts_.size()) counts_.resize(idx + 1, 0);
    ++counts_[idx];
    if (total_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++total_;
    sum_ += x;
  }

  std::uint64_t total() const { return total_; }
  std::uint64_t min() const;
  std::uint64_t max() const;
  double mean() const;
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  /// Integer bucket edges: samples in bucket i lie in [lower, upper).
  /// The last bucket's upper edge, 2^64, has no integer; bucket_upper(64)
  /// throws, and percentile() reports it as a double.
  std::uint64_t bucket_lower(std::size_t i) const;
  std::uint64_t bucket_upper(std::size_t i) const;

  /// Edges of the bucket holding the nearest-rank q-quantile sample
  /// (q in (0, 1]; rank = ceil(q * total)). Requires a non-empty histogram.
  PercentileBound percentile(double q) const;

 private:
  std::vector<std::uint64_t> counts_;  ///< grown on demand
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace rispp::util
