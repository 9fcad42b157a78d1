// Tests for counters, latency histograms and windowed bandwidth series.
#include "src/sim/stats.h"

#include <gtest/gtest.h>

namespace nomad {
namespace {

TEST(CounterSetTest, GetOfUnknownIsZero) {
  CounterSet c;
  EXPECT_EQ(c.Get("nope"), 0u);
}

TEST(CounterSetTest, AddAndAtAccumulate) {
  CounterSet c;
  c.Add("x", 3);
  c.At("x") += 4;
  EXPECT_EQ(c.Get("x"), 7u);
}

TEST(CounterSetTest, ResetClears) {
  CounterSet c;
  c.Add("x", 1);
  c.Reset();
  EXPECT_EQ(c.Get("x"), 0u);
  EXPECT_TRUE(c.All().empty());
}

// A copy owns its counters: writing through it leaves the source alone.
TEST(CounterSetTest, CopyConstructedSetDoesNotWriteItsSource) {
  CounterSet a;
  a.Add("x", 1);
  CounterSet b = a;
  b.Add("x", 1);
  EXPECT_EQ(a.Get("x"), 1u);
  EXPECT_EQ(b.Get("x"), 2u);
}

TEST(CounterSetTest, CopyAssignedSetDoesNotWriteItsSource) {
  CounterSet a;
  a.Add("x", 2);
  CounterSet c;
  c = a;
  c.At("x") += 5;
  EXPECT_EQ(a.Get("x"), 2u);
  EXPECT_EQ(c.Get("x"), 7u);
}

TEST(CounterSetTest, ToStringSortedByName) {
  CounterSet c;
  c.Add("b", 2);
  c.Add("a", 1);
  EXPECT_EQ(c.ToString(), "a=1\nb=2\n");
}

TEST(LatencyHistogramTest, MeanIsExact) {
  LatencyHistogram h;
  h.Record(100);
  h.Record(300);
  EXPECT_DOUBLE_EQ(h.Mean(), 200.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.Max(), 300u);
}

TEST(LatencyHistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0u);
}

TEST(LatencyHistogramTest, QuantileBracketsValues) {
  LatencyHistogram h;
  for (int i = 0; i < 99; i++) {
    h.Record(100);
  }
  h.Record(100000);
  // p50 must sit in the bucket containing 100 (i.e. (64,128]).
  EXPECT_GE(h.Quantile(0.5), 64u);
  EXPECT_LE(h.Quantile(0.5), 128u);
  // The maximum quantile must be in the large bucket.
  EXPECT_GE(h.Quantile(1.0), 65536u);
}

TEST(LatencyHistogramTest, MergeCombinesCounts) {
  LatencyHistogram a, b;
  a.Record(10);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 20.0);
  EXPECT_EQ(a.Max(), 30u);
}

TEST(LatencyHistogramTest, ResetZeroes) {
  LatencyHistogram h;
  h.Record(42);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Max(), 0u);
}

TEST(LatencyHistogramTest, ZeroLatencyRecorded) {
  LatencyHistogram h;
  h.Record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(WindowedSeriesTest, RecordsIntoCorrectWindow) {
  WindowedSeries s(1000);
  s.Record(0, 64);
  s.Record(999, 64);
  s.Record(1000, 64);
  ASSERT_EQ(s.NumWindows(), 2u);
  EXPECT_EQ(s.windows()[0], 128u);
  EXPECT_EQ(s.windows()[1], 64u);
}

TEST(WindowedSeriesTest, SparseRecordingFillsGapsWithZero) {
  WindowedSeries s(10);
  s.Record(95, 10);
  ASSERT_EQ(s.NumWindows(), 10u);
  EXPECT_EQ(s.windows()[4], 0u);
  EXPECT_EQ(s.windows()[9], 10u);
}

TEST(WindowedSeriesTest, ZeroWindowSizeIsClamped) {
  WindowedSeries s(0);
  s.Record(5, 64);  // must not divide by zero
  EXPECT_GE(s.NumWindows(), 1u);
}

}  // namespace
}  // namespace nomad
