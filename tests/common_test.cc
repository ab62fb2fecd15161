#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/queue.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"

namespace fresque {
namespace {

// ----------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("thing missing");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: thing missing");
}

TEST(StatusTest, EveryCodeHasName) {
  for (int c = 0; c <= 11; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, ReturnNotOkMacro) {
  auto fails = []() -> Status {
    FRESQUE_RETURN_NOT_OK(Status::Corruption("bad"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsCorruption());
  auto passes = []() -> Status {
    FRESQUE_RETURN_NOT_OK(Status::OK());
    return Status::InvalidArgument("reached");
  };
  EXPECT_TRUE(passes().IsInvalidArgument());
}

// ----------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, DefaultIsError) {
  Result<int> r;
  EXPECT_FALSE(r.ok());
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).ValueOrDie();
  EXPECT_EQ(*p, 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    int v = 0;
    FRESQUE_ASSIGN_OR_RETURN(v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 6);
  EXPECT_FALSE(outer(true).ok());
}

// ------------------------------------------------------------ Binary codec

TEST(BinaryCodecTest, RoundTripAllTypes) {
  BinaryWriter w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutI32(-42);
  w.PutI64(-1234567890123LL);
  w.PutF64(3.14159);
  w.PutBytes({1, 2, 3});
  w.PutString("hello");

  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.GetU8(), 0xAB);
  EXPECT_EQ(*r.GetU16(), 0xBEEF);
  EXPECT_EQ(*r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(*r.GetI32(), -42);
  EXPECT_EQ(*r.GetI64(), -1234567890123LL);
  EXPECT_DOUBLE_EQ(*r.GetF64(), 3.14159);
  EXPECT_EQ(*r.GetBytes(), Bytes({1, 2, 3}));
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(BinaryCodecTest, TruncationFailsCleanly) {
  BinaryWriter w;
  w.PutU64(99);
  Bytes buf = w.Release();
  buf.resize(4);
  BinaryReader r(buf);
  EXPECT_FALSE(r.GetU64().ok());
}

TEST(BinaryCodecTest, LengthPrefixBeyondBufferFails) {
  BinaryWriter w;
  w.PutU32(1000);  // claims 1000 bytes follow
  w.PutU8(1);
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.GetBytes().ok());
}

TEST(BinaryCodecTest, SpecialDoubles) {
  BinaryWriter w;
  w.PutF64(0.0);
  w.PutF64(-0.0);
  w.PutF64(1e308);
  w.PutF64(-1e-308);
  BinaryReader r(w.buffer());
  EXPECT_EQ(*r.GetF64(), 0.0);
  EXPECT_EQ(*r.GetF64(), -0.0);
  EXPECT_EQ(*r.GetF64(), 1e308);
  EXPECT_EQ(*r.GetF64(), -1e-308);
}

// ------------------------------------------------------------ BoundedQueue

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(*q.Pop(), i);
}

TEST(BoundedQueueTest, CloseDrainsThenReturnsNullopt) {
  BoundedQueue<int> q(10);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, BlockingProducerConsumer) {
  BoundedQueue<int> q(4);
  constexpr int kItems = 10000;
  std::atomic<long> sum{0};
  std::thread consumer([&] {
    while (auto v = q.Pop()) sum += *v;
  });
  std::thread producer([&] {
    for (int i = 1; i <= kItems; ++i) q.Push(i);
    q.Close();
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(sum.load(), static_cast<long>(kItems) * (kItems + 1) / 2);
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(1);
  std::thread consumer([&] { EXPECT_FALSE(q.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

// -------------------------------------------------------------------- RNG

TEST(RngTest, XoshiroDeterministic) {
  Xoshiro256 a(9), b(9);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, NextBoundedUnbiasedish) {
  Xoshiro256 rng(3);
  int counts[7] = {};
  constexpr int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(7)];
  for (int c : counts) EXPECT_NEAR(c, kDraws / 7, kDraws / 7 * 0.1);
}

TEST(RngTest, NextInRangeInclusive) {
  Xoshiro256 rng(4);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

// ------------------------------------------------------------------ Stats

TEST(StatsTest, RunningStatsMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(StatsTest, EmptyStatsAreZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StatsTest, LatencyQuantiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.Add(i);
  EXPECT_NEAR(rec.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(rec.Quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(rec.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(rec.Mean(), 50.5, 1e-9);
}

TEST(StatsTest, HistogramTotalVariation) {
  FixedHistogram a(0, 10, 10), b(0, 10, 10);
  for (int i = 0; i < 100; ++i) {
    a.Add(1.5);
    b.Add(8.5);
  }
  EXPECT_NEAR(a.TotalVariationDistance(b), 1.0, 1e-9);  // disjoint
  FixedHistogram c(0, 10, 10);
  for (int i = 0; i < 100; ++i) c.Add(1.5);
  EXPECT_NEAR(a.TotalVariationDistance(c), 0.0, 1e-9);  // identical
}

TEST(StatsTest, HistogramClampsOutliers) {
  FixedHistogram h(0, 10, 10);
  h.Add(-5);
  h.Add(50);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
}

// ------------------------------------------------------------------ Clock

TEST(ClockTest, VirtualClockAdvances) {
  VirtualClock clock;
  EXPECT_EQ(clock.NowNanos(), 0);
  clock.AdvanceNanos(1500);
  EXPECT_EQ(clock.NowNanos(), 1500);
  Stopwatch watch(&clock);
  clock.AdvanceNanos(2000);
  EXPECT_EQ(watch.ElapsedNanos(), 2000);
}

TEST(ClockTest, SystemClockMonotone) {
  auto* clock = SystemClock::Global();
  int64_t a = clock->NowNanos();
  int64_t b = clock->NowNanos();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace fresque
