#include "../tools/flags.h"

#include <gtest/gtest.h>

#include "../tools/linkage_flags.h"

namespace slim::tools {
namespace {

Flags Make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
}

TEST(Flags, ParsesEqualsForm) {
  const Flags f = Make({"--a=x", "--n=42", "--p=0.5"});
  EXPECT_EQ(f.GetString("a", ""), "x");
  EXPECT_EQ(f.GetInt("n", 0), 42);
  EXPECT_DOUBLE_EQ(f.GetDouble("p", 0.0), 0.5);
}

TEST(Flags, ParsesSpaceForm) {
  const Flags f = Make({"--a", "hello", "--n", "7"});
  EXPECT_EQ(f.GetString("a", ""), "hello");
  EXPECT_EQ(f.GetInt("n", 0), 7);
}

TEST(Flags, BooleanFlagWithoutValue) {
  const Flags f = Make({"--verbose", "--out=x.csv"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_TRUE(f.Has("verbose"));
  EXPECT_FALSE(f.GetBool("quiet", false));
}

TEST(Flags, BooleanValueSpellings) {
  EXPECT_TRUE(Make({"--x=true"}).GetBool("x", false));
  EXPECT_TRUE(Make({"--x=1"}).GetBool("x", false));
  EXPECT_TRUE(Make({"--x=yes"}).GetBool("x", false));
  EXPECT_FALSE(Make({"--x=no"}).GetBool("x", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  const Flags f = Make({});
  EXPECT_EQ(f.GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(f.GetInt("missing", -5), -5);
  EXPECT_DOUBLE_EQ(f.GetDouble("missing", 2.5), 2.5);
}

TEST(Flags, PositionalArgumentsCollected) {
  const Flags f = Make({"input.csv", "--n=1", "more.csv"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.csv");
  EXPECT_EQ(f.positional()[1], "more.csv");
}

TEST(Flags, LastDuplicateWins) {
  const Flags f = Make({"--n=1", "--n=2"});
  EXPECT_EQ(f.GetInt("n", 0), 2);
}

TEST(Flags, BadIntegerExitsWithError) {
  const Flags f = Make({"--n=abc"});
  EXPECT_EXIT((void)f.GetInt("n", 0), ::testing::ExitedWithCode(2),
              "expects an integer");
}

TEST(Flags, NegativeNumbersViaEqualsForm) {
  const Flags f = Make({"--n=-3", "--p=-1.5"});
  EXPECT_EQ(f.GetInt("n", 0), -3);
  EXPECT_DOUBLE_EQ(f.GetDouble("p", 0.0), -1.5);
}

TEST(LinkageFlags, NoFlagsGiveTheLibraryDefaults) {
  const SlimConfig parsed = ParseLinkageFlags(Make({}));
  const SlimConfig defaults;
  EXPECT_EQ(parsed.history.window_seconds, defaults.history.window_seconds);
  EXPECT_EQ(parsed.history.spatial_level, defaults.history.spatial_level);
  EXPECT_EQ(parsed.history.region_radius_meters,
            defaults.history.region_radius_meters);
  EXPECT_EQ(parsed.similarity.b, defaults.similarity.b);
  EXPECT_EQ(parsed.similarity.proximity.max_speed_mps,
            defaults.similarity.proximity.max_speed_mps);
  EXPECT_EQ(parsed.candidates, defaults.candidates);
  EXPECT_EQ(parsed.lsh.similarity_threshold, defaults.lsh.similarity_threshold);
  EXPECT_EQ(parsed.lsh.signature_spatial_level,
            defaults.lsh.signature_spatial_level);
  EXPECT_EQ(parsed.lsh.temporal_step_windows,
            defaults.lsh.temporal_step_windows);
  EXPECT_EQ(parsed.lsh.num_buckets, defaults.lsh.num_buckets);
  EXPECT_EQ(parsed.lsh.hash_seed, defaults.lsh.hash_seed);
  EXPECT_EQ(parsed.threshold_method, defaults.threshold_method);
  EXPECT_EQ(parsed.apply_stop_threshold, defaults.apply_stop_threshold);
  EXPECT_EQ(parsed.matcher, defaults.matcher);
  EXPECT_EQ(parsed.threads, defaults.threads);
}

TEST(LinkageFlags, ThresholdNoneDisablesTheStopThreshold) {
  EXPECT_FALSE(
      ParseLinkageFlags(Make({"--threshold", "none"})).apply_stop_threshold);
}

}  // namespace
}  // namespace slim::tools
