// Tests for time types, token bucket, flags and table rendering.
#include <gtest/gtest.h>

#include "src/base/flags.h"
#include "src/base/table.h"
#include "src/base/time_types.h"
#include "src/base/token_bucket.h"

namespace potemkin {
namespace {

TEST(DurationTest, ConversionsRoundTrip) {
  EXPECT_EQ(Duration::Millis(3).nanos(), 3000000);
  EXPECT_EQ(Duration::Micros(5).nanos(), 5000);
  EXPECT_EQ(Duration::Seconds(2.5).millis(), 2500);
  EXPECT_DOUBLE_EQ(Duration::Hours(1).seconds(), 3600.0);
  EXPECT_DOUBLE_EQ(Duration::Minutes(2).seconds(), 120.0);
}

TEST(DurationTest, Arithmetic) {
  const Duration d = Duration::Millis(10) + Duration::Millis(5);
  EXPECT_EQ(d.millis(), 15);
  EXPECT_EQ((d - Duration::Millis(20)).millis(), -5);
  EXPECT_TRUE((d - Duration::Millis(20)).IsNegative());
  EXPECT_EQ((Duration::Millis(10) * 2.5).millis(), 25);
  EXPECT_DOUBLE_EQ(Duration::Millis(10) / Duration::Millis(4), 2.5);
}

TEST(DurationTest, Comparisons) {
  EXPECT_LT(Duration::Millis(1), Duration::Millis(2));
  EXPECT_EQ(Duration::Seconds(1.0), Duration::Millis(1000));
}

TEST(DurationTest, ToStringPicksUnits) {
  EXPECT_EQ(Duration::Nanos(500).ToString(), "500ns");
  EXPECT_EQ(Duration::Micros(2).ToString(), "2us");
  EXPECT_EQ(Duration::Millis(15).ToString(), "15ms");
  EXPECT_EQ(Duration::Seconds(3.0).ToString(), "3s");
}

TEST(TimePointTest, ArithmeticWithDurations) {
  const TimePoint t = TimePoint::FromNanos(1000);
  EXPECT_EQ((t + Duration::Nanos(500)).nanos(), 1500);
  EXPECT_EQ((t - Duration::Nanos(200)).nanos(), 800);
  EXPECT_EQ((t - TimePoint::FromNanos(400)).nanos(), 600);
}

TEST(TokenBucketTest, StartsFull) {
  TokenBucket bucket(10.0, 5.0);
  TimePoint now;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bucket.TryConsume(now));
  }
  EXPECT_FALSE(bucket.TryConsume(now));
}

TEST(TokenBucketTest, RefillsOverTime) {
  TokenBucket bucket(10.0, 5.0);
  TimePoint now;
  for (int i = 0; i < 5; ++i) {
    bucket.TryConsume(now);
  }
  EXPECT_FALSE(bucket.TryConsume(now));
  now += Duration::Millis(100);  // 1 token at 10/s
  EXPECT_TRUE(bucket.TryConsume(now));
  EXPECT_FALSE(bucket.TryConsume(now));
}

TEST(TokenBucketTest, BurstCapsAccumulation) {
  TokenBucket bucket(10.0, 3.0);
  TimePoint now;
  now += Duration::Seconds(100.0);
  EXPECT_NEAR(bucket.available(now), 3.0, 1e-9);
}

TEST(TokenBucketTest, AvailableAtPredictsRefill) {
  TokenBucket bucket(2.0, 1.0);
  TimePoint now;
  EXPECT_TRUE(bucket.TryConsume(now));
  const TimePoint when = bucket.AvailableAt(now, 1.0);
  EXPECT_NEAR((when - now).seconds(), 0.5, 1e-6);
}

TEST(TokenBucketTest, ZeroRateNeverRefills) {
  TokenBucket bucket(0.0, 2.0);
  TimePoint now;
  EXPECT_TRUE(bucket.TryConsume(now));
  EXPECT_TRUE(bucket.TryConsume(now));
  EXPECT_FALSE(bucket.TryConsume(now));
  now += Duration::Hours(1000);
  EXPECT_FALSE(bucket.TryConsume(now));
  EXPECT_EQ(bucket.AvailableAt(now, 1.0), TimePoint::Max());
}

TEST(TokenBucketTest, ZeroBurstNeverAdmits) {
  TokenBucket bucket(100.0, 0.0);
  TimePoint now;
  EXPECT_FALSE(bucket.TryConsume(now));
  now += Duration::Hours(1);
  EXPECT_FALSE(bucket.TryConsume(now));
  EXPECT_NEAR(bucket.available(now), 0.0, 1e-12);
}

TEST(TokenBucketTest, RequestAboveBurstIsNeverSatisfiable) {
  TokenBucket bucket(10.0, 5.0);
  TimePoint now;
  // A finite AvailableAt here would name a time at which refills (capped at
  // the burst) still could not cover the request.
  EXPECT_EQ(bucket.AvailableAt(now, 6.0), TimePoint::Max());
  EXPECT_FALSE(bucket.TryConsume(now, 6.0));
}

TEST(TokenBucketTest, LargeTimeJumpSaturatesAtBurst) {
  TokenBucket bucket(1e9, 4.0);
  TimePoint now;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(bucket.TryConsume(now));
  }
  // Centuries of virtual time at a gigatoken rate: the refill math must not
  // overflow or go non-finite, just clamp to the burst.
  now += Duration::Hours(24.0 * 365 * 200);
  EXPECT_NEAR(bucket.available(now), 4.0, 1e-9);
  EXPECT_TRUE(bucket.TryConsume(now, 4.0));
  EXPECT_FALSE(bucket.TryConsume(now));
}

TEST(TokenBucketTest, TimeGoingBackwardsDoesNotRefill) {
  TokenBucket bucket(10.0, 5.0);
  TimePoint now = TimePoint::FromNanos(1000000000);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bucket.TryConsume(now));
  }
  // An out-of-order (earlier) timestamp must not mint tokens.
  EXPECT_FALSE(bucket.TryConsume(TimePoint::FromNanos(0)));
  EXPECT_FALSE(bucket.TryConsume(now));
}

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog",      "--alpha=1", "--beta",      "2",
                        "--gamma",   "--no-delta", "positional", "--rate=2.5"};
  Flags flags = Flags::Parse(8, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("alpha", 0), 1);
  EXPECT_EQ(flags.GetInt("beta", 0), 2);
  EXPECT_TRUE(flags.GetBool("gamma", false));
  EXPECT_FALSE(flags.GetBool("delta", true));
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 2.5);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, DefaultsWhenAbsentOrMalformed) {
  const char* argv[] = {"prog", "--count=notanumber"};
  Flags flags = Flags::Parse(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("count", 7), 7);
  EXPECT_EQ(flags.GetInt("missing", 9), 9);
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
  EXPECT_FALSE(flags.Has("missing"));
  EXPECT_TRUE(flags.Has("count"));
}

// `--no-delta` parses as delta=false, so a lookup of "no-delta" would silently
// miss it; every lookup rejects such names up front.
TEST(FlagsDeathTest, LookupOfNoPrefixedNameDies) {
  const char* argv[] = {"prog", "--no-delta"};
  Flags flags = Flags::Parse(2, const_cast<char**>(argv));
  EXPECT_DEATH(flags.GetBool("no-delta", false), "GetBool\\(\"delta\", true\\)");
  EXPECT_DEATH(flags.GetString("no-out", ""), "no-");
  EXPECT_DEATH(flags.GetUint("no-seed", 1), "no-");
  EXPECT_DEATH(flags.Has("no-delta"), "no-");
  EXPECT_FALSE(flags.GetBool("delta", true));
}

TEST(TableTest, AsciiRendering) {
  Table table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"beta", "22"});
  const std::string out = table.ToAscii();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TableTest, CsvEscaping) {
  Table table({"a", "b"});
  table.AddRow({"has,comma", "has\"quote"});
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TableTest, NumericRowHelper) {
  Table table({"label", "x", "y"});
  table.AddRow("point", {1.234, 5.678}, 1);
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("point,1.2,5.7"), std::string::npos);
}

}  // namespace
}  // namespace potemkin
