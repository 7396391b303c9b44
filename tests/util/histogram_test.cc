#include "src/util/histogram.h"

#include <gtest/gtest.h>

namespace rtdvs {
namespace {

TEST(Histogram, RecordsIntoInclusiveUpperEdges) {
  Histogram h({1.0, 10.0, 100.0});
  h.Record(1.0);    // first bucket: edge is inclusive
  h.Record(5.0);    // second
  h.Record(100.0);  // third
  h.Record(1e6);    // overflow
  EXPECT_EQ(h.count(), 4);
  const auto& buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1);
  EXPECT_EQ(buckets[1], 1);
  EXPECT_EQ(buckets[2], 1);
  EXPECT_EQ(buckets[3], 1);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e6);
  EXPECT_DOUBLE_EQ(h.sum(), 1e6 + 106.0);
}

TEST(Histogram, PercentilesInterpolateAndClampToMax) {
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) {
    h.Record(5.0 + (i % 3) * 10.0);  // ~uniform over three buckets
  }
  double p50 = h.ValueAtPercentile(50);
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 30.0);
  // Monotone in p.
  EXPECT_LE(h.ValueAtPercentile(10), h.ValueAtPercentile(90));
  // The overflow bucket reports the observed max, not infinity.
  Histogram over({1.0});
  over.Record(500.0);
  EXPECT_DOUBLE_EQ(over.ValueAtPercentile(99), 500.0);
  // Empty histogram: all zeros.
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.ValueAtPercentile(50), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST(Histogram, ExponentialBoundsGrowGeometrically) {
  Histogram h = Histogram::Exponential(1.0, 2.0, 4);
  ASSERT_EQ(h.bounds().size(), 4u);
  EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
  EXPECT_DOUBLE_EQ(h.bounds()[1], 2.0);
  EXPECT_DOUBLE_EQ(h.bounds()[2], 4.0);
  EXPECT_DOUBLE_EQ(h.bounds()[3], 8.0);
}

TEST(Histogram, MergeAddsBucketwise) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  a.Record(0.5);
  b.Record(1.5);
  b.Record(9.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.sum(), 11.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_EQ(a.bucket_counts()[0], 1);
  EXPECT_EQ(a.bucket_counts()[1], 1);
  EXPECT_EQ(a.bucket_counts()[2], 1);
}

}  // namespace
}  // namespace rtdvs
