#include "util/strings.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace appscope::util {
namespace {

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nhi\r "), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("inner space kept"), "inner space kept");
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(starts_with("sni:youtube.com", "sni:"));
  EXPECT_FALSE(starts_with("host:x", "sni:"));
  EXPECT_FALSE(starts_with("sn", "sni:"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(FormatDouble, RespectsDigits) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
  EXPECT_EQ(format_double(-1.5, 1), "-1.5");
}

TEST(FormatPercent, ScalesFraction) {
  EXPECT_EQ(format_percent(0.462, 1), "46.2%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(FormatBytes, PicksUnits) {
  EXPECT_EQ(format_bytes(512.0), "512.0 B");
  EXPECT_EQ(format_bytes(1500.0), "1.50 KB");
  EXPECT_EQ(format_bytes(23.4e6), "23.4 MB");
  EXPECT_EQ(format_bytes(1.2e9), "1.20 GB");
}

TEST(Pad, RightAndLeft) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcd", 2), "abcd");
}

TEST(ParseDouble, AcceptsValidInput) {
  EXPECT_DOUBLE_EQ(parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("  -2.25 "), -2.25);
}

TEST(ParseDouble, RejectsMalformedInput) {
  EXPECT_THROW(parse_double("abc"), InputError);
  EXPECT_THROW(parse_double("1.5x"), InputError);
  EXPECT_THROW(parse_double(""), InputError);
}

TEST(ParseInt, AcceptsValidInput) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
}

TEST(ParseInt, RejectsMalformedInput) {
  EXPECT_THROW(parse_int("4.2"), InputError);
  EXPECT_THROW(parse_int("x"), InputError);
}

TEST(FormatDoubleRoundtrip, ParsesBackExactly) {
  const double values[] = {0.0,    -0.0,       0.1,           1.0 / 3.0,
                           1e300,  1e-300,     12345678.9012, -2.5e-7,
                           168.25, 9876543210.123456789};
  for (const double v : values) {
    EXPECT_EQ(parse_double(format_double_roundtrip(v)), v)
        << format_double_roundtrip(v);
  }
  // Shortest form, not 17 digits of noise.
  EXPECT_EQ(format_double_roundtrip(0.1), "0.1");
  EXPECT_EQ(format_double_roundtrip(42.0), "42");
}

}  // namespace
}  // namespace appscope::util
