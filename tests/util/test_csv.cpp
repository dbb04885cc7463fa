#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>


namespace appscope::util {
namespace {

TEST(CsvWriter, PlainRow) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
  EXPECT_EQ(writer.rows_written(), 1u);
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a,b", "say \"hi\"", "line\nbreak", "carriage\rreturn"});
  EXPECT_EQ(out.str(),
            "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\","
            "\"carriage\rreturn\"\n");
}

TEST(CsvWriter, CustomSeparator) {
  std::ostringstream out;
  CsvWriter writer(out, ';');
  writer.write_row({"a", "b;c"});
  EXPECT_EQ(out.str(), "a;\"b;c\"\n");
}

}  // namespace
}  // namespace appscope::util
