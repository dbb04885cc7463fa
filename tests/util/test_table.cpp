#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace appscope::util {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.add_row({"youtube", "22"});
  table.add_row({"mms", "0.3"});
  std::ostringstream out;
  table.render(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("youtube"), std::string::npos);
  // Header separator exists.
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), PreconditionError);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), PreconditionError);
}

TEST(AsciiBar, FillsProportionally) {
  EXPECT_EQ(ascii_bar(5.0, 10.0, 10), "#####-----");
  EXPECT_EQ(ascii_bar(10.0, 10.0, 4), "####");
  EXPECT_EQ(ascii_bar(0.0, 10.0, 4), "----");
}

TEST(AsciiBar, ClampsOverflowAndHandlesZeroMax) {
  EXPECT_EQ(ascii_bar(20.0, 10.0, 4), "####");
  EXPECT_EQ(ascii_bar(5.0, 0.0, 4), "----");
}

TEST(AsciiChart, HasRequestedHeight) {
  const std::string chart = ascii_chart({1, 2, 3, 4, 5}, 4);
  // 4 data rows + 1 axis row.
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 5);
}

TEST(AsciiChart, DownsamplesWideInput) {
  std::vector<double> wide(1000, 1.0);
  const std::string chart = ascii_chart(wide, 2, 50);
  // Row width = 50 columns + "  |" prefix.
  const std::size_t first_newline = chart.find('\n');
  EXPECT_EQ(first_newline, 3 + 50u);
}

TEST(Rule, PadsToWidth) {
  const std::string r = rule("title", 20);
  EXPECT_EQ(r.size(), 20u);
  EXPECT_EQ(r.substr(0, 9), "== title ");
}

}  // namespace
}  // namespace appscope::util
