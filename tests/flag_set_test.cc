// Tests for the shared CLI flag parser (tools/flag_set.h): typed binding,
// strict error behaviour, and the auto-generated --help output that every
// autodetect_cli command now serves.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flag_set.h"

namespace autodetect {
namespace {

std::vector<char*> Argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

TEST(FlagSetTest, BindsTypedValuesAndPositionals) {
  std::string s = "default";
  int64_t n = 7;
  double d = 0.5;
  bool b = false;
  FlagSet flags;
  flags.String("name", &s, "a string");
  flags.Int("count", &n, "an int");
  flags.Double("ratio", &d, "a double");
  flags.Bool("verbose", &b, "a switch");

  std::vector<std::string> args = {"tool",  "cmd",     "--name", "x",
                                   "pos1",  "--count", "42",     "--ratio",
                                   "0.25",  "--verbose", "pos2"};
  std::vector<char*> argv = Argv(args);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data(), 2).ok());
  EXPECT_EQ(s, "x");
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_TRUE(b);
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"pos1", "pos2"}));
  EXPECT_FALSE(flags.help_requested());
}

TEST(FlagSetTest, StrictErrors) {
  int64_t n = 0;
  FlagSet flags;
  flags.Int("count", &n, "an int");

  {
    std::vector<std::string> args = {"tool", "cmd", "--bogus", "1"};
    std::vector<char*> argv = Argv(args);
    Status status = flags.Parse(static_cast<int>(argv.size()), argv.data(), 2);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("--bogus"), std::string::npos);
  }
  {
    std::vector<std::string> args = {"tool", "cmd", "--count", "zebra"};
    std::vector<char*> argv = Argv(args);
    EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data(), 2).ok());
  }
  {
    std::vector<std::string> args = {"tool", "cmd", "--count"};
    std::vector<char*> argv = Argv(args);
    EXPECT_FALSE(flags.Parse(static_cast<int>(argv.size()), argv.data(), 2).ok());
  }
}

TEST(FlagSetTest, HelpShortCircuitsParsing) {
  int64_t n = 7;
  FlagSet flags;
  flags.Int("count", &n, "an int");

  // Everything after --help is skipped: the unknown flag is not an error,
  // and no value binds.
  std::vector<std::string> args = {"tool", "cmd", "--help", "--bogus",
                                   "--count", "9"};
  std::vector<char*> argv = Argv(args);
  ASSERT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data(), 2).ok());
  EXPECT_TRUE(flags.help_requested());
  EXPECT_EQ(n, 7);

  FlagSet short_form;
  std::vector<std::string> short_args = {"tool", "cmd", "-h"};
  std::vector<char*> short_argv = Argv(short_args);
  ASSERT_TRUE(short_form
                  .Parse(static_cast<int>(short_argv.size()),
                         short_argv.data(), 2)
                  .ok());
  EXPECT_TRUE(short_form.help_requested());
}

TEST(FlagSetTest, UsageIsGeneratedFromRegistrations) {
  std::string s = "model.bin";
  std::string empty;
  int64_t n = 42;
  double d = 0.95;
  bool b = false;
  FlagSet flags;
  flags.String("model", &s, "the model file");
  flags.String("out", &empty, "output path");
  flags.Int("jobs", &n, "worker threads");
  flags.Double("precision", &d, "precision target");
  flags.Bool("watch", &b, "hot reload");

  std::string usage = flags.Usage();
  // Typed value hints per flag kind; switches take none.
  EXPECT_NE(usage.find("--model <str>"), std::string::npos);
  EXPECT_NE(usage.find("--jobs <int>"), std::string::npos);
  EXPECT_NE(usage.find("--precision <float>"), std::string::npos);
  EXPECT_EQ(usage.find("--watch <"), std::string::npos);
  // Help text and registration-time defaults ride along.
  EXPECT_NE(usage.find("worker threads"), std::string::npos);
  EXPECT_NE(usage.find("(default: 42)"), std::string::npos);
  EXPECT_NE(usage.find("(default: 0.95)"), std::string::npos);
  EXPECT_NE(usage.find("(default: \"model.bin\")"), std::string::npos);
  // Empty-string and bool defaults are noise, so they are omitted.
  size_t out_line = usage.find("--out");
  size_t out_eol = usage.find('\n', out_line);
  EXPECT_EQ(usage.substr(out_line, out_eol - out_line).find("default"),
            std::string::npos);
  // The built-in --help documents itself.
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

}  // namespace
}  // namespace autodetect
