// appscope/util/strings.hpp
//
// Small string helpers shared across modules (formatting, parsing, units).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace appscope::util {

/// Removes leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Formats a double with `digits` significant decimal places ("3.14").
std::string format_double(double value, int digits = 3);

/// Shortest decimal representation that parses back to exactly `value`
/// (std::to_chars round-trip guarantee; at most max_digits10 = 17
/// significant digits). Use for data files that must survive a
/// write -> parse cycle without precision loss.
std::string format_double_roundtrip(double value);

/// Formats a fraction as a percentage string ("46.2%").
std::string format_percent(double fraction, int digits = 1);

/// Human-readable byte volume ("1.5 KB", "23.4 MB", "1.2 GB").
std::string format_bytes(double bytes);

/// Right-pads `text` with spaces to `width` (no-op if already wider).
std::string pad_right(std::string_view text, std::size_t width);

/// Parses a double / integer, throwing InputError on malformed input.
double parse_double(std::string_view text);
std::int64_t parse_int(std::string_view text);

}  // namespace appscope::util
