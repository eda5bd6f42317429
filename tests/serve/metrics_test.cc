#include "serve/metrics.h"

#include <gtest/gtest.h>

namespace after {
namespace serve {
namespace {

/// A sample reads back as its bucket's midpoint. From 16 us up a bucket
/// is 1/16 of its octave wide, so the midpoint is within 1/32 of the
/// sample, plus the half microsecond RecordMs rounds away; 1/16 bounds
/// both.
constexpr double kBucketError = 1.0 / (1 << LatencyHistogram::kSubBits);

TEST(LatencyHistogramTest, EmptyReadsZero) {
  const LatencyHistogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  for (double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_EQ(histogram.PercentileMs(q), 0.0) << "q " << q;
}

TEST(LatencyHistogramTest, SingleSampleReadsBackWithinBucketError) {
  for (double ms : {0.02, 0.213, 1.0, 3.12, 47.5, 1234.0}) {
    LatencyHistogram histogram;
    histogram.RecordMs(ms);
    for (double q : {0.0, 0.5, 1.0})
      EXPECT_NEAR(histogram.PercentileMs(q), ms, ms * kBucketError)
          << ms << " ms at q " << q;
  }
}

TEST(LatencyHistogramTest, QuantilesAreMonotoneAndPickTheirRank) {
  LatencyHistogram histogram;
  for (int ms = 100; ms >= 1; --ms) histogram.RecordMs(ms);
  double previous = 0.0;
  for (int i = 0; i <= 100; ++i) {
    const double at = histogram.PercentileMs(i / 100.0);
    EXPECT_GE(at, previous) << "q " << i / 100.0;
    previous = at;
  }
  // Quantile q reads the ceil(q * count)-th smallest sample.
  EXPECT_NEAR(histogram.PercentileMs(0.5), 50.0, 50.0 * kBucketError);
  EXPECT_NEAR(histogram.PercentileMs(0.99), 99.0, 99.0 * kBucketError);
  EXPECT_NEAR(histogram.PercentileMs(1.0), 100.0, 100.0 * kBucketError);
}

TEST(LatencyHistogramTest, CountCountsSamples) {
  LatencyHistogram histogram;
  for (int i = 0; i < 250; ++i) histogram.RecordMs(0.1 * i);
  histogram.RecordMs(-3.0);  // clamped to 0, still a sample
  EXPECT_EQ(histogram.count(), 251);
}

TEST(LatencyHistogramTest, ResetClears) {
  LatencyHistogram histogram;
  histogram.RecordMs(5.0);
  histogram.RecordMs(7.0);
  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(histogram.PercentileMs(0.5), 0.0);
  histogram.RecordMs(2.0);
  EXPECT_EQ(histogram.count(), 1);
  EXPECT_NEAR(histogram.PercentileMs(0.5), 2.0, 2.0 * kBucketError);
}

}  // namespace
}  // namespace serve
}  // namespace after
