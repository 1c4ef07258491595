// Tests for src/common: Status/Result, the deterministic RNG, box-plot
// statistics, and the CLI flag parser.

#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"

namespace onion {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("side must be even");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.ToString(), "InvalidArgument: side must be even");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> result(std::vector<int>{1, 2, 3});
  std::vector<int> moved = std::move(result).value();
  EXPECT_EQ(moved.size(), 3u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(RngTest, UniformInclusiveStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LE(rng.UniformInclusive(9), 9u);
  }
}

TEST(RngTest, UniformInclusiveHitsAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInclusive(7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t draw = rng.UniformRange(10, 20);
    EXPECT_GE(draw, 10u);
    EXPECT_LE(draw, 20u);
  }
}

TEST(RngTest, UniformIsRoughlyBalanced) {
  Rng rng(99);
  const int buckets = 10;
  const int draws = 100000;
  int counts[10] = {};
  for (int i = 0; i < draws; ++i) {
    ++counts[rng.UniformInclusive(buckets - 1)];
  }
  for (int b = 0; b < buckets; ++b) {
    EXPECT_NEAR(counts[b], draws / buckets, draws / buckets / 5);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, SplitMix64MatchesReference) {
  // Reference values of the SplitMix64 sequence seeded with 0 (from the
  // published algorithm by Steele/Lea/Flood).
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64(&state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(&state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(SplitMix64(&state), 0x06c45d188009454fULL);
}

TEST(StatsTest, EmptySample) {
  const BoxPlot box = Summarize(std::vector<double>{});
  EXPECT_EQ(box.count, 0u);
  EXPECT_EQ(box.mean, 0.0);
}

TEST(StatsTest, SingleValue) {
  const BoxPlot box = Summarize(std::vector<double>{5.0});
  EXPECT_EQ(box.min, 5.0);
  EXPECT_EQ(box.median, 5.0);
  EXPECT_EQ(box.max, 5.0);
  EXPECT_EQ(box.mean, 5.0);
}

TEST(StatsTest, FiveNumberSummary) {
  const BoxPlot box = Summarize(std::vector<double>{1, 2, 3, 4, 5});
  EXPECT_EQ(box.min, 1.0);
  EXPECT_EQ(box.q25, 2.0);
  EXPECT_EQ(box.median, 3.0);
  EXPECT_EQ(box.q75, 4.0);
  EXPECT_EQ(box.max, 5.0);
  EXPECT_EQ(box.mean, 3.0);
  EXPECT_EQ(box.count, 5u);
}

TEST(StatsTest, QuantileInterpolation) {
  const BoxPlot box = Summarize(std::vector<double>{0, 10});
  EXPECT_DOUBLE_EQ(box.q25, 2.5);
  EXPECT_DOUBLE_EQ(box.median, 5.0);
  EXPECT_DOUBLE_EQ(box.q75, 7.5);
}

TEST(StatsTest, UnsortedInputIsSorted) {
  const BoxPlot box = Summarize(std::vector<double>{9, 1, 5});
  EXPECT_EQ(box.min, 1.0);
  EXPECT_EQ(box.max, 9.0);
  EXPECT_EQ(box.median, 5.0);
}

TEST(StatsTest, IntegerOverload) {
  const BoxPlot box = Summarize(std::vector<uint64_t>{2, 4, 6});
  EXPECT_EQ(box.mean, 4.0);
  EXPECT_EQ(box.count, 3u);
}

TEST(StatsTest, ToStringFormat) {
  const BoxPlot box = Summarize(std::vector<double>{1, 2, 3});
  EXPECT_EQ(box.ToString(), "1.0 / 1.5 / 2.0 / 2.5 / 3.0 (mean 2.00)");
}

CommandLine ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return CommandLine(static_cast<int>(args.size()),
                     const_cast<char**>(args.data()));
}

TEST(CliTest, ParsesEqualsForm) {
  const CommandLine cli = ParseArgs({"--side=128", "--rho=0.5"});
  EXPECT_EQ(cli.GetInt("side", 0), 128);
  EXPECT_DOUBLE_EQ(cli.GetDouble("rho", 0), 0.5);
}

TEST(CliTest, ParsesSpaceForm) {
  const CommandLine cli = ParseArgs({"--queries", "500"});
  EXPECT_EQ(cli.GetInt("queries", 0), 500);
}

TEST(CliTest, DefaultsWhenMissing) {
  const CommandLine cli = ParseArgs({});
  EXPECT_EQ(cli.GetInt("side", 64), 64);
  EXPECT_EQ(cli.GetString("curve", "onion"), "onion");
  EXPECT_TRUE(cli.GetBool("verbose", true));
  EXPECT_FALSE(cli.Has("side"));
}

TEST(CliTest, BareBooleanFlag) {
  const CommandLine cli = ParseArgs({"--full"});
  EXPECT_TRUE(cli.GetBool("full", false));
  EXPECT_TRUE(cli.Has("full"));
}

TEST(CliTest, ExplicitFalse) {
  const CommandLine cli = ParseArgs({"--full=false"});
  EXPECT_FALSE(cli.GetBool("full", true));
}

}  // namespace
}  // namespace onion
