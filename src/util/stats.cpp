#include "rispp/util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "rispp/util/error.hpp"

namespace rispp::util {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  total_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const { return n_ ? mean_ : 0.0; }

double Accumulator::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Accumulator::min() const {
  RISPP_REQUIRE(n_ > 0, "min() of empty accumulator");
  return min_;
}

double Accumulator::max() const {
  RISPP_REQUIRE(n_ > 0, "max() of empty accumulator");
  return max_;
}

void Accumulator::merge(const Accumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nab = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nab;
  mean_ += delta * nb / nab;
  n_ += other.n_;
  total_ += other.total_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

namespace {

/// Nearest-rank bucket lookup: the index of the bucket containing the
/// ceil(q * total)-th sample (1-based).
std::size_t percentile_bucket(const std::vector<std::uint64_t>& counts,
                              std::uint64_t total, double q) {
  RISPP_REQUIRE(total > 0, "percentile() of empty histogram");
  RISPP_REQUIRE(q > 0.0 && q <= 1.0, "percentile q must be in (0,1]");
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) return i;
  }
  return counts.size() - 1;  // unreachable: seen == total >= rank
}

}  // namespace

std::uint64_t LogHistogram::min() const {
  RISPP_REQUIRE(total_ > 0, "min() of empty histogram");
  return min_;
}

std::uint64_t LogHistogram::max() const {
  RISPP_REQUIRE(total_ > 0, "max() of empty histogram");
  return max_;
}

double LogHistogram::mean() const {
  return total_ ? static_cast<double>(sum_) / static_cast<double>(total_)
                : 0.0;
}

std::uint64_t LogHistogram::bucket_lower(std::size_t i) const {
  RISPP_REQUIRE(i < counts_.size(), "bucket index out of range");
  return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
}

std::uint64_t LogHistogram::bucket_upper(std::size_t i) const {
  RISPP_REQUIRE(i < counts_.size(), "bucket index out of range");
  RISPP_REQUIRE(i < 64, "the last bucket's upper edge, 2^64, has no uint64_t");
  return i == 0 ? 1 : std::uint64_t{1} << i;
}

PercentileBound LogHistogram::percentile(double q) const {
  // Exact double edges: the last bucket, [2^63, 2^64), is bounded too.
  const auto i = static_cast<int>(percentile_bucket(counts_, total_, q));
  return {i == 0 ? 0.0 : std::ldexp(1.0, i - 1), std::ldexp(1.0, i)};
}

}  // namespace rispp::util
