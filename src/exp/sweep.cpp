#include "rispp/exp/sweep.hpp"

#include <utility>

#include "rispp/util/error.hpp"
#include "rispp/util/parse.hpp"

namespace rispp::exp {

const std::string* SweepPoint::find(std::string_view key) const {
  for (const auto& [k, v] : params)
    if (k == key) return &v;
  return nullptr;
}

const std::string& SweepPoint::at(std::string_view key) const {
  const auto* v = find(key);
  if (!v)
    throw util::PreconditionError("sweep point has no parameter '" +
                                  std::string(key) + "'");
  return *v;
}

std::string SweepPoint::get(std::string_view key,
                            std::string_view fallback) const {
  const auto* v = find(key);
  return v ? *v : std::string(fallback);
}

template <typename T>
T SweepPoint::number(std::string_view key, T fallback) const {
  const auto* v = find(key);
  return v ? util::require_number<T>(
                 *v, "sweep parameter '" + std::string(key) + "'")
           : fallback;
}

std::uint64_t SweepPoint::get_u64(std::string_view key,
                                  std::uint64_t fallback) const {
  return number(key, fallback);
}

std::uint32_t SweepPoint::get_u32(std::string_view key,
                                  std::uint32_t fallback) const {
  return number(key, fallback);
}

double SweepPoint::get_f64(std::string_view key, double fallback) const {
  return number(key, fallback);
}

Sweep& Sweep::axis(std::string name, std::vector<std::string> values) {
  RISPP_REQUIRE(explicit_.empty(),
                "cannot mix grid axes with explicit sweep points");
  RISPP_REQUIRE(!name.empty(), "axis name must be non-empty");
  RISPP_REQUIRE(!values.empty(), "axis '" + name + "' has no values");
  for (const auto& a : axes_)
    RISPP_REQUIRE(a.name != name, "duplicate axis '" + name + "'");
  axes_.push_back({std::move(name), std::move(values)});
  return *this;
}

Sweep& Sweep::add_point(
    std::vector<std::pair<std::string, std::string>> params) {
  RISPP_REQUIRE(axes_.empty(),
                "cannot mix explicit sweep points with grid axes");
  explicit_.push_back(std::move(params));
  return *this;
}

Sweep& Sweep::base_seed(std::uint64_t seed) {
  base_seed_ = seed;
  return *this;
}

Sweep& Sweep::shard(std::size_t index, std::size_t count) {
  RISPP_REQUIRE(count >= 1, "shard count must be at least 1");
  RISPP_REQUIRE(index < count,
                "shard index " + std::to_string(index) +
                    " out of range for " + std::to_string(count) + " shards");
  shard_index_ = index;
  shard_count_ = count;
  return *this;
}

Sweep Sweep::parse_grid(const std::string& spec) {
  Sweep sweep;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto semi = spec.find(';', pos);
    const auto part =
        spec.substr(pos, semi == std::string::npos ? semi : semi - pos);
    pos = semi == std::string::npos ? spec.size() + 1 : semi + 1;
    if (part.empty()) continue;
    const auto eq = part.find('=');
    if (eq == std::string::npos || eq == 0)
      throw util::PreconditionError(
          "malformed grid axis '" + part +
          "' (expected name=value[,value...])");
    std::vector<std::string> values;
    std::size_t vpos = eq + 1;
    while (vpos <= part.size()) {
      const auto comma = part.find(',', vpos);
      const auto value = part.substr(
          vpos, comma == std::string::npos ? comma : comma - vpos);
      vpos = comma == std::string::npos ? part.size() + 1 : comma + 1;
      if (!value.empty()) values.push_back(value);
    }
    if (values.empty())
      throw util::PreconditionError("grid axis '" + part.substr(0, eq) +
                                    "' has no values");
    sweep.axis(part.substr(0, eq), std::move(values));
  }
  return sweep;
}

std::uint64_t Sweep::derive_seed(std::uint64_t base, std::size_t index) {
  // Fixed-increment stream position + the splitmix64 finalizer: index 0 and
  // base 0 still land far apart, and nearby indices decorrelate fully.
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL *
                               (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t Sweep::total_points() const {
  if (!explicit_.empty()) return explicit_.size();
  if (axes_.empty()) return 0;
  std::size_t n = 1;
  for (const auto& a : axes_) n *= a.values.size();
  return n;
}

std::size_t Sweep::size() const {
  const auto total = total_points();
  // Round-robin assignment: shard i of n owns indices {i, i+n, i+2n, ...}.
  return total / shard_count_ +
         (shard_index_ < total % shard_count_ ? 1 : 0);
}

SweepPoint Sweep::point_at(std::size_t global_index) const {
  RISPP_REQUIRE(global_index < total_points(),
                "sweep point index " + std::to_string(global_index) +
                    " out of range (plan has " +
                    std::to_string(total_points()) + " points)");
  SweepPoint p;
  fill(global_index, p);
  return p;
}

void Sweep::fill(std::size_t global_index, SweepPoint& p) const {
  p.index = global_index;
  p.seed = derive_seed(base_seed_, global_index);
  if (!explicit_.empty()) {
    p.params = explicit_[global_index];
    return;
  }
  // Mixed-radix decomposition of the grid index, last axis fastest — the
  // same order the odometer enumeration produces. Assigning into existing
  // pairs reuses their string buffers when `p` is refilled.
  p.params.resize(axes_.size());
  std::size_t rem = global_index;
  for (std::size_t a = axes_.size(); a > 0;) {
    --a;
    const auto& axis = axes_[a];
    p.params[a].first = axis.name;
    p.params[a].second = axis.values[rem % axis.values.size()];
    rem /= axis.values.size();
  }
}

std::vector<std::size_t> Sweep::indices() const {
  std::vector<std::size_t> out;
  out.reserve(size());
  const auto total = total_points();
  for (std::size_t k = shard_index_; k < total; k += shard_count_)
    out.push_back(k);
  return out;
}

void Sweep::visit(const std::function<void(const SweepPoint&)>& fn) const {
  const auto total = total_points();
  SweepPoint p;
  for (std::size_t k = shard_index_; k < total; k += shard_count_) {
    fill(k, p);
    fn(p);
  }
}

std::vector<SweepPoint> Sweep::points() const {
  std::vector<SweepPoint> out;
  out.reserve(size());
  const auto total = total_points();
  for (std::size_t k = shard_index_; k < total; k += shard_count_)
    out.push_back(point_at(k));
  return out;
}

std::string Sweep::spec() const {
  if (!explicit_.empty())
    return "explicit:" + std::to_string(explicit_.size());
  std::string out;
  for (const auto& a : axes_) {
    if (!out.empty()) out += ';';
    out += a.name + "=";
    for (std::size_t v = 0; v < a.values.size(); ++v)
      out += (v ? "," : "") + a.values[v];
  }
  return out;
}

std::uint64_t Sweep::fingerprint() const {
  // FNV-1a over a tagged flattening of the plan. Field separators are
  // length prefixes (not delimiter bytes), so "ab"+"c" and "a"+"bc" hash
  // differently. Shard narrowing is deliberately excluded: every shard of
  // one plan carries the same fingerprint.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix_byte = [&](unsigned char b) {
    h ^= b;
    h *= 0x100000001B3ULL;
  };
  const auto mix_u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte((v >> (8 * i)) & 0xFF);
  };
  const auto mix_str = [&](const std::string& s) {
    mix_u64(s.size());
    for (const char c : s) mix_byte(static_cast<unsigned char>(c));
  };
  mix_u64(base_seed_);
  mix_u64(axes_.size());
  for (const auto& a : axes_) {
    mix_str(a.name);
    mix_u64(a.values.size());
    for (const auto& v : a.values) mix_str(v);
  }
  mix_u64(explicit_.size());
  for (const auto& params : explicit_) {
    mix_u64(params.size());
    for (const auto& [k, v] : params) {
      mix_str(k);
      mix_str(v);
    }
  }
  return h;
}

std::string Sweep::describe(std::size_t max_listed) const {
  std::string out;
  out += "plan: " + spec() + "\n";
  out += "base seed: " + std::to_string(base_seed_) + "\n";
  out += "total points: " + std::to_string(total_points()) + "\n";
  if (shard_count_ > 1)
    out += "shard: " + std::to_string(shard_index_) + "/" +
           std::to_string(shard_count_) + " (" + std::to_string(size()) +
           " points in this shard)\n";
  for (const auto& a : axes_) {
    out += "axis " + a.name + " (" + std::to_string(a.values.size()) + "): ";
    for (std::size_t v = 0; v < a.values.size(); ++v)
      out += (v ? "," : "") + a.values[v];
    out += "\n";
  }
  const auto total = total_points();
  std::size_t listed = 0;
  for (std::size_t k = shard_index_; k < total; k += shard_count_) {
    if (listed == max_listed) {
      out += "... (" + std::to_string(size() - listed) + " more points)\n";
      break;
    }
    const auto p = point_at(k);
    out += "point " + std::to_string(p.index) + " seed " +
           std::to_string(p.seed);
    for (const auto& [key, value] : p.params)
      out += " " + key + "=" + value;
    out += "\n";
    ++listed;
  }
  return out;
}

}  // namespace rispp::exp
