#pragma once
/// \file parse.hpp
/// \brief The one number rule for text read from outside the program: the
/// file formats of docs/FORMATS.md, sweep grid values and CLI flags.
///
/// A number is the whole token, read by std::from_chars in decimal: no
/// leading whitespace, no '+', nothing after the digits, and no sign at all
/// when the destination is unsigned. An integer must fit its destination
/// type, so "4294967297" is not a std::uint32_t and "-1" is not a count. A
/// real must be finite: "nan", "inf" and overflowing input such as "1e400"
/// are rejected.
///
/// parse_number reports a violation as std::nullopt, so each format raises
/// its own error type with its own line number; require_number throws
/// util::PreconditionError for input that has no line (flags, grid values).

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "rispp/util/error.hpp"

namespace rispp::util {

template <typename T>
  requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(value)) return std::nullopt;
  return value;
}

/// parse_number, throwing util::PreconditionError
/// "invalid number for <what>: '<text>'" on a violation.
template <typename T>
T require_number(std::string_view text, std::string_view what) {
  if (const auto value = parse_number<T>(text)) return *value;
  throw PreconditionError("invalid number for " + std::string(what) + ": '" +
                          std::string(text) + "'");
}

}  // namespace rispp::util
