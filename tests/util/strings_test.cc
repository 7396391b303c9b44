#include "src/util/strings.h"

#include <gtest/gtest.h>

namespace rtdvs {
namespace {

TEST(StrFormat, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("x=%d y=%.2f", 3, 1.5), "x=3 y=1.50");
  EXPECT_EQ(StrFormat("%s", ""), "");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StrFormat, HandlesLongOutput) {
  std::string long_arg(10'000, 'a');
  std::string result = StrFormat("<%s>", long_arg.c_str());
  EXPECT_EQ(result.size(), long_arg.size() + 2);
  EXPECT_EQ(result.front(), '<');
  EXPECT_EQ(result.back(), '>');
}

TEST(Split, BasicAndEdgeCases) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("no-sep", ','), (std::vector<std::string>{"no-sep"}));
}

TEST(Trim, RemovesSurroundingWhitespaceOnly) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\n x \r\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_FALSE(StartsWith("", "x"));
}

TEST(ParseDouble, AcceptsNumbersRejectsJunk) {
  EXPECT_EQ(ParseDouble("1.5"), 1.5);
  EXPECT_EQ(ParseDouble(" 2e3 "), 2000.0);
  EXPECT_EQ(ParseDouble("-0.25"), -0.25);
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("1 2").has_value());
  EXPECT_FALSE(ParseDouble("nan").has_value());
  EXPECT_FALSE(ParseDouble("inf").has_value());
  EXPECT_FALSE(ParseDouble("-inf").has_value());
  EXPECT_FALSE(ParseDouble("1e400").has_value());
}

TEST(ParseInt, AcceptsIntegersRejectsJunk) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-7"), -7);
  EXPECT_EQ(ParseInt(" 0 "), 0);
  EXPECT_FALSE(ParseInt("1.5").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("12ab").has_value());
}

}  // namespace
}  // namespace rtdvs
