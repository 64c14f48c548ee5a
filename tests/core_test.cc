#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "core/cancel.h"
#include "core/check.h"
#include "core/rng.h"
#include "core/status.h"

namespace dynfo::core {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::Error("boom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "boom");
  EXPECT_EQ(s.ToString(), "Error: boom");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Error("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "nope");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(CheckDeathTest, FailureAborts) {
  EXPECT_DEATH({ DYNFO_CHECK(1 == 2) << "context " << 7; }, "1 == 2");
}

TEST(CheckTest, SuccessIsSilent) {
  DYNFO_CHECK(2 + 2 == 4) << "never evaluated";
  SUCCEED();
}

TEST(DeadlineTest, PastTheClockNeverExpires) {
  // now() +/- these many ms would overflow the nanosecond clock.
  EXPECT_TRUE(Deadline::AfterMillis(INT64_MAX).is_infinite());
  EXPECT_FALSE(Deadline::AfterMillis(INT64_MAX).expired());
  EXPECT_TRUE(Deadline::AfterMillis(9'300'000'000'000).is_infinite());
  EXPECT_TRUE(Deadline::AfterMillis(INT64_MIN).expired());
  const Deadline minute = Deadline::AfterMillis(60'000);
  EXPECT_FALSE(minute.is_infinite());
  EXPECT_FALSE(minute.expired());
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(13), 13u);
}

TEST(RngTest, BelowCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    uint64_t v = rng.Range(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, UnitDoubleInHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UnitDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(rng.Chance(5, 5));
    EXPECT_FALSE(rng.Chance(0, 5));
  }
}

}  // namespace
}  // namespace dynfo::core
