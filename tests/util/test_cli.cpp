#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace appscope::util {
namespace {

/// CliArgs over `tokens`; strict, against `flags`, when flags are given.
CliArgs make_args(std::vector<std::string> tokens,
                  std::optional<std::vector<std::string>> flags = {}) {
  static std::vector<std::string> storage;
  storage = std::move(tokens);
  static std::vector<char*> argv;
  argv.clear();
  for (auto& t : storage) argv.push_back(t.data());
  const int argc = static_cast<int>(argv.size());
  if (flags) return CliArgs(argc, argv.data(), std::move(*flags));
  return CliArgs(argc, argv.data());
}

TEST(CliArgs, ParsesFlagsAndValues) {
  const CliArgs args =
      make_args({"prog", "--verbose", "--scale=paper", "input.csv"});
  EXPECT_EQ(args.program(), "prog");
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.has("scale"));
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_EQ(args.value("scale"), "paper");
  EXPECT_FALSE(args.value("verbose").has_value());
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "input.csv");
}

TEST(CliArgs, TypedAccessorsWithDefaults) {
  const CliArgs args = make_args({"prog", "--k=7", "--ratio=0.5"});
  EXPECT_EQ(args.get_int("k", 2, 0, 10), 7);
  EXPECT_EQ(args.get_int("missing", 2, 0, 10), 2);
  EXPECT_DOUBLE_EQ(args.get_nonnegative("ratio", 1.0), 0.5);
  EXPECT_DOUBLE_EQ(args.get_nonnegative("missing", 1.0), 1.0);
  EXPECT_EQ(args.get_string("name", "dflt"), "dflt");
}

TEST(CliArgs, CountAccessorRangeChecksItsTargetType) {
  const CliArgs args =
      make_args({"prog", "--n=7", "--zero=0", "--shards=-1", "--port=70000",
                 "--seconds=4294967296"});
  EXPECT_EQ(args.get_count<std::size_t>("n", 4), 7u);
  EXPECT_EQ(args.get_count<std::size_t>("missing", 4), 4u);
  EXPECT_EQ(args.get_count<std::size_t>("zero", 4), 0u);
  // A cast would wrap -1 to SIZE_MAX.
  EXPECT_THROW(args.get_count<std::size_t>("shards", 4), InputError);
  EXPECT_THROW(args.get_count<std::uint64_t>("shards", 4), InputError);
  EXPECT_THROW(args.get_count<std::uint16_t>("port", 1), InputError);
  EXPECT_EQ(args.get_count<std::uint32_t>("port", 1), 70000u);
  EXPECT_THROW(args.get_count<std::uint32_t>("seconds", 1), InputError);
  EXPECT_EQ(args.get_count<std::uint64_t>("seconds", 1), 4294967296u);
}

TEST(CliArgs, BoundedAccessorsRejectValuesOutsideTheirRange) {
  const CliArgs args = make_args(
      {"prog", "--port=65535", "--wrapped=70000", "--huge=4294967296",
       "--class=-2", "--rate=2.5", "--zero=0", "--negative=-5", "--nan=nan",
       "--inf=inf"});
  EXPECT_EQ(args.get_int("port", -1, 0, 65535), 65535);
  // An absent flag keeps its default, even a sentinel outside the range.
  EXPECT_EQ(args.get_int("missing", -1, 0, 65535), -1);
  EXPECT_THROW(args.get_int("wrapped", -1, 0, 65535), InputError);
  EXPECT_THROW(args.get_int("huge", -1, 0, 65535), InputError);
  EXPECT_THROW(args.get_int("class", -1, 0, 3), InputError);
  try {
    args.get_int("wrapped", -1, 0, 65535);
    FAIL() << "out-of-range value accepted";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("--wrapped=70000"), std::string::npos)
        << e.what();
  }

  EXPECT_DOUBLE_EQ(args.get_nonnegative("rate", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(args.get_nonnegative("zero", 1.0), 0.0);
  EXPECT_DOUBLE_EQ(args.get_nonnegative("missing", 3.0), 3.0);
  for (const char* flag : {"negative", "nan", "inf"}) {
    try {
      args.get_nonnegative(flag, 0.0);
      ADD_FAILURE() << "--" << flag << " accepted";
    } catch (const InputError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CliArgs, DeclaredFlagsPassAndUnknownFlagThrows) {
  const std::vector<std::string> flags = {"snapshot-dir", "weeks"};
  const CliArgs ok =
      make_args({"prog", "--snapshot-dir=out", "--weeks=1"}, flags);
  EXPECT_EQ(ok.value("snapshot-dir"), "out");
  EXPECT_TRUE(make_args({"prog", "--help"}, flags).has("help"));
  // The typo that used to turn sealing off without a word.
  try {
    make_args({"prog", "--snapshot_dir=out", "--weeks=1"}, flags);
    FAIL() << "unknown flag accepted";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find("--snapshot_dir"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(make_args({"prog", "-weeks=1"}, flags), InputError);
}

TEST(CliArgs, HelpListsTheDeclaredFlags) {
  const std::string help =
      make_args({"prog"}, std::vector<std::string>{"scale", "queue-capacity"})
          .help();
  EXPECT_NE(help.find("usage: prog"), std::string::npos) << help;
  EXPECT_NE(help.find("  --scale\n"), std::string::npos) << help;
  EXPECT_NE(help.find("  --queue-capacity\n"), std::string::npos) << help;
  EXPECT_NE(help.find("  --help\n"), std::string::npos) << help;
}

TEST(CliArgs, MalformedTypedValueThrows) {
  const CliArgs args = make_args({"prog", "--k=abc"});
  EXPECT_THROW(args.get_int("k", 0, 0, 10), InputError);
  EXPECT_THROW(args.get_nonnegative("k", 0.0), InputError);
}

TEST(CliArgs, BareDashesArePositionals) {
  const CliArgs args = make_args({"prog", "--", "-x", "plain"});
  EXPECT_EQ(args.positionals().size(), 3u);
}

TEST(CliArgs, EmptyArgvIsSafe) {
  const CliArgs args = make_args({});
  EXPECT_TRUE(args.program().empty());
  EXPECT_TRUE(args.positionals().empty());
}

TEST(CliArgs, EqualsInValuePreserved) {
  const CliArgs args = make_args({"prog", "--expr=a=b"});
  EXPECT_EQ(args.value("expr"), "a=b");
}

}  // namespace
}  // namespace appscope::util
