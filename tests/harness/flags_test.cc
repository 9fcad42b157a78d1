// Tests for the command-line flag parser.
#include "src/harness/flags.h"

#include <gtest/gtest.h>

namespace nomad {
namespace {

Flags Make(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) {
    argv.push_back(s.data());
  }
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, KeyValueParsing) {
  Flags f = Make({"--name=abc", "--count=42", "--ratio=0.5"});
  EXPECT_EQ(f.GetString("name", ""), "abc");
  EXPECT_EQ(f.GetUint("count", 0), 42u);
  EXPECT_DOUBLE_EQ(f.GetDouble("ratio", 0), 0.5);
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  Flags f = Make({});
  EXPECT_EQ(f.GetString("x", "def"), "def");
  EXPECT_EQ(f.GetUint("x", 7), 7u);
  EXPECT_DOUBLE_EQ(f.GetDouble("x", 1.5), 1.5);
  EXPECT_TRUE(f.GetBool("x", true));
  EXPECT_FALSE(f.GetBool("x", false));
}

TEST(FlagsTest, BareFlagIsTrue) {
  Flags f = Make({"--verbose"});
  EXPECT_TRUE(f.GetBool("verbose"));
  EXPECT_TRUE(f.Has("verbose"));
}

TEST(FlagsTest, BoolFalseSpellings) {
  EXPECT_FALSE(Make({"--x=false"}).GetBool("x", true));
  EXPECT_FALSE(Make({"--x=0"}).GetBool("x", true));
  EXPECT_FALSE(Make({"--x=no"}).GetBool("x", true));
  EXPECT_TRUE(Make({"--x=yes"}).GetBool("x", false));
}

TEST(FlagsTest, UnusedKeysReported) {
  Flags f = Make({"--used=1", "--typo=2"});
  f.GetUint("used", 0);
  const auto unused = f.UnusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "--typo");
}

// No binary reads a positional argument, so each one is reported after the
// unread flags, as typed.
TEST(FlagsTest, PositionalArgsReported) {
  Flags f = Make({"input.txt", "--k=v", "--typo", "out.txt"});
  EXPECT_EQ(f.GetString("k", ""), "v");
  EXPECT_EQ(f.UnusedKeys(), (std::vector<std::string>{"--typo", "input.txt", "out.txt"}));
}

TEST(FlagsTest, LastValueWins) {
  Flags f = Make({"--k=1", "--k=2"});
  EXPECT_EQ(f.GetUint("k", 0), 2u);
}

TEST(FlagsTest, EmptyValue) {
  Flags f = Make({"--k="});
  EXPECT_TRUE(f.Has("k"));
  EXPECT_EQ(f.GetString("k", "def"), "");
}

}  // namespace
}  // namespace nomad
