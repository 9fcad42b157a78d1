// Histogram tests: bucket geometry (exact small values, 8 sub-buckets per
// octave, lo/hi edges), percentile math pinned to bucket boundaries, and
// merge/reset. The bucketing is ABI for metrics.json and for trace_query's
// latency reconstruction, so edges are asserted numerically.
#include "src/obs/hist.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace nomad {
namespace {

TEST(HistogramBucketsTest, SmallValuesAreExact) {
  for (uint64_t v = 0; v < Histogram::kSubBuckets; v++) {
    const int b = Histogram::BucketFor(v);
    EXPECT_EQ(b, static_cast<int>(v));
    EXPECT_EQ(Histogram::BucketLo(b), v);
    EXPECT_EQ(Histogram::BucketHi(b), v + 1);
  }
}

TEST(HistogramBucketsTest, OctaveEdges) {
  // 8 is the first value past the exact range: first bucket of octave 0.
  EXPECT_EQ(Histogram::BucketFor(8), Histogram::kSubBuckets);
  // 15 shares the octave, 16 starts the next (shift grows by one).
  EXPECT_EQ(Histogram::BucketFor(15), Histogram::kSubBuckets + 7);
  EXPECT_EQ(Histogram::BucketFor(16), Histogram::kSubBuckets + 8);
  // Power-of-two values sit at the bottom of their bucket.
  for (const uint64_t v : {16ull, 1024ull, 1ull << 32, 1ull << 62}) {
    const int b = Histogram::BucketFor(v);
    EXPECT_EQ(Histogram::BucketLo(b), v) << "v=" << v;
  }
  // The value one below a power of two sits at the top of the previous one.
  for (const uint64_t v : {1023ull, (1ull << 20) - 1}) {
    const int b = Histogram::BucketFor(v);
    EXPECT_EQ(Histogram::BucketHi(b), v + 1) << "v=" << v;
  }
  EXPECT_LT(Histogram::BucketFor(~uint64_t{0}), Histogram::kNumBuckets);
}

TEST(HistogramBucketsTest, LoHiRoundTripEveryBucket) {
  for (int b = 0; b < Histogram::kNumBuckets; b++) {
    const uint64_t lo = Histogram::BucketLo(b);
    ASSERT_EQ(Histogram::BucketFor(lo), b) << "bucket " << b;
    // hi is exclusive: the last representable value of the bucket maps back.
    const uint64_t hi = Histogram::BucketHi(b);
    if (hi > lo + 1) {
      EXPECT_EQ(Histogram::BucketFor(hi - 1), b) << "bucket " << b;
    }
  }
}

TEST(HistogramBucketsTest, RelativeErrorBounded) {
  // Any value reconstructed as its bucket's lo is at most 12.5% below it:
  // hi - lo == lo >> kSubBucketBits for log buckets.
  for (const uint64_t v : {100ull, 10688ull, 123456789ull, (1ull << 40) + 12345}) {
    const int b = Histogram::BucketFor(v);
    const uint64_t width = Histogram::BucketHi(b) - Histogram::BucketLo(b);
    EXPECT_LE(static_cast<double>(width),
              static_cast<double>(v) / 8.0 + 1.0)
        << "v=" << v;
  }
}

TEST(HistogramTest, QuantileOnUniformRange) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; i++) {
    h.Record(i);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.Max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 500.5);
  // Log buckets bound the relative error at one sub-bucket width (12.5%).
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.50)), 500.0, 500.0 * 0.125 + 1);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.90)), 900.0, 900.0 * 0.125 + 1);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.99)), 990.0, 990.0 * 0.125 + 1);
  EXPECT_EQ(h.Quantile(1.0), 1000u);
  EXPECT_EQ(h.Quantile(0.0), 1u);
}

TEST(HistogramTest, QuantileAtBucketBoundaries) {
  // All mass in one bucket: every quantile interpolates within [lo, hi),
  // clamped to max+1 so reconstructions never exceed an observed value.
  Histogram h;
  for (int i = 0; i < 10; i++) {
    h.Record(1000);  // bucket [960, 1024)
  }
  const int b = Histogram::BucketFor(1000);
  EXPECT_EQ(Histogram::BucketLo(b), 960u);
  EXPECT_EQ(Histogram::BucketHi(b), 1024u);
  for (const double q : {0.0, 0.5, 0.99}) {
    EXPECT_GE(h.Quantile(q), 960u) << "q=" << q;
    EXPECT_LE(h.Quantile(q), 1001u) << "q=" << q;
  }
}

TEST(HistogramTest, QuantileTwoSamplesUsesRankEstimator) {
  // target = floor(q*(count-1)): with two samples every q < 1 resolves to
  // the first sample's bucket. trace_query's selftest pins the same math.
  Histogram h;
  h.Record(2000);
  h.Record(6000);
  const uint64_t lo = Histogram::BucketLo(Histogram::BucketFor(2000));
  EXPECT_EQ(h.Quantile(0.50), lo);
  EXPECT_EQ(h.Quantile(0.99), lo);
  // q=1.0 targets rank 1: the second sample's bucket floor.
  EXPECT_EQ(h.Quantile(1.0), Histogram::BucketLo(Histogram::BucketFor(6000)));
}

TEST(HistogramTest, QuantileClampsToMaxInsideSparseTopBucket) {
  // A single sample at a bucket floor: hi clamps to max+1, so quantiles
  // cannot overshoot the only observed value.
  Histogram h;
  h.Record(961);  // bucket [960, 1024), max = 961
  EXPECT_GE(h.Quantile(0.99), 960u);
  EXPECT_LE(h.Quantile(0.99), 962u);
}

TEST(HistogramTest, EmptyAndZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.99), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  h.Record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Quantile(0.5), 0u);
}

TEST(HistogramTest, MergeAndReset) {
  Histogram a, b;
  for (uint64_t i = 0; i < 100; i++) {
    a.Record(10);
    b.Record(100000);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.Max(), 100000u);
  EXPECT_EQ(a.sum(), 100u * 10 + 100u * 100000);
  EXPECT_EQ(a.Quantile(0.25), 10u);
  EXPECT_GE(a.Quantile(0.75), Histogram::BucketLo(Histogram::BucketFor(100000)));
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.Max(), 0u);
  EXPECT_EQ(a.Quantile(0.99), 0u);
}

TEST(HistogramSetTest, RegistryNamesAccepted) {
  EXPECT_TRUE(IsRegisteredHistogramName(hist::kMigrationLatency));
  EXPECT_TRUE(IsRegisteredHistogramName(hist::kDemotionLatency));
  EXPECT_TRUE(IsRegisteredHistogramName(hist::kHotToPromoted));
  EXPECT_TRUE(IsRegisteredHistogramName(hist::kPcqResidence));
  EXPECT_TRUE(IsRegisteredHistogramName(hist::kTpmRetries));
  EXPECT_FALSE(IsRegisteredHistogramName("made.up.name"));
}

TEST(HistogramSetTest, RecordBooksUnderName) {
  HistogramSet set;
  set.Record(hist::kMigrationLatency, 1234);
  set.Record(hist::kMigrationLatency, 5678);
  ASSERT_EQ(set.All().count(hist::kMigrationLatency), 1u);
  EXPECT_EQ(set.All().at(hist::kMigrationLatency).count(), 2u);
  set.Reset();
  EXPECT_TRUE(set.All().empty());
}

}  // namespace
}  // namespace nomad
