#include "util/strings.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace appscope::util {

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string format_double(double value, int digits) {
  std::array<char, 64> buf{};
  const int written =
      std::snprintf(buf.data(), buf.size(), "%.*f", digits, value);
  return std::string(buf.data(), static_cast<std::size_t>(written));
}

std::string format_double_roundtrip(double value) {
  std::array<char, 64> buf{};
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), value);
  APPSCOPE_CHECK(ec == std::errc{}, "format_double_roundtrip: buffer too small");
  return std::string(buf.data(), static_cast<std::size_t>(ptr - buf.data()));
}

std::string format_percent(double fraction, int digits) {
  return format_double(fraction * 100.0, digits) + "%";
}

std::string format_bytes(double bytes) {
  static constexpr std::array<const char*, 6> kUnits = {"B",  "KB", "MB",
                                                        "GB", "TB", "PB"};
  double value = bytes;
  std::size_t unit = 0;
  while (std::abs(value) >= 1000.0 && unit + 1 < kUnits.size()) {
    value /= 1000.0;
    ++unit;
  }
  return format_double(value, value < 10 ? 2 : 1) + " " + kUnits[unit];
}

std::string pad_right(std::string_view text, std::size_t width) {
  std::string out(text);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

double parse_double(std::string_view text) {
  const std::string_view t = trim(text);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc{} || ptr != t.data() + t.size()) {
    throw InputError("malformed double: '" + std::string(text) + "'");
  }
  return value;
}

std::int64_t parse_int(std::string_view text) {
  const std::string_view t = trim(text);
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc{} || ptr != t.data() + t.size()) {
    throw InputError("malformed integer: '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace appscope::util
