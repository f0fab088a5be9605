// Unit tests for the time-series substrate (src/ts: container, normalize,
// resample, dataset).

#include <gtest/gtest.h>

#include <cmath>

#include "prob/rng.hpp"
#include "ts/dataset.hpp"
#include "ts/normalize.hpp"
#include "ts/resample.hpp"
#include "ts/time_series.hpp"

namespace uts::ts {
namespace {

TEST(TimeSeriesTest, BasicAccessors) {
  TimeSeries s({1.0, 2.0, 3.0}, 7, "unit/0");
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FALSE(s.empty());
  EXPECT_DOUBLE_EQ(s[1], 2.0);
  EXPECT_EQ(s.label(), 7);
  EXPECT_EQ(s.id(), "unit/0");
}

TEST(TimeSeriesTest, DefaultHasNoLabel) {
  TimeSeries s({1.0});
  EXPECT_EQ(s.label(), TimeSeries::kNoLabel);
}

TEST(TimeSeriesTest, MutationThroughIndexAndVector) {
  TimeSeries s({1.0, 2.0});
  s[0] = 5.0;
  s.mutable_values().push_back(9.0);
  EXPECT_DOUBLE_EQ(s[0], 5.0);
  EXPECT_EQ(s.size(), 3u);
}

TEST(TimeSeriesTest, EqualityIgnoresId) {
  TimeSeries a({1.0, 2.0}, 1, "a");
  TimeSeries b({1.0, 2.0}, 1, "b");
  TimeSeries c({1.0, 2.0}, 2, "a");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(TimeSeriesTest, RangeIteration) {
  TimeSeries s({1.0, 2.0, 3.0});
  double sum = 0.0;
  for (double v : s) sum += v;
  EXPECT_DOUBLE_EQ(sum, 6.0);
}

// ----------------------------------------------------------- normalization

TEST(NormalizeTest, MomentsOfKnownSeries) {
  TimeSeries s({1.0, 3.0, 5.0, 7.0});
  const SeriesMoments m = ComputeMoments(s);
  EXPECT_DOUBLE_EQ(m.mean, 4.0);
  EXPECT_DOUBLE_EQ(m.stddev, std::sqrt(5.0));
}

TEST(NormalizeTest, ZNormalizedHasZeroMeanUnitVariance) {
  prob::Rng rng(3);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.Gaussian(10.0, 4.0));
  TimeSeries s(std::move(values));
  ZNormalizeInPlace(s);
  const SeriesMoments m = ComputeMoments(s);
  EXPECT_NEAR(m.mean, 0.0, 1e-12);
  EXPECT_NEAR(m.stddev, 1.0, 1e-12);
}

TEST(NormalizeTest, ConstantSeriesIsCenteredOnly) {
  TimeSeries s({5.0, 5.0, 5.0});
  ZNormalizeInPlace(s);
  for (double v : s) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(NormalizeTest, CopyVariantLeavesOriginalUntouched) {
  TimeSeries s({1.0, 2.0, 3.0});
  const TimeSeries z = ZNormalized(s);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_NEAR(ComputeMoments(z).mean, 0.0, 1e-12);
  EXPECT_EQ(z.label(), s.label());
}

TEST(NormalizeTest, MinMaxMapsOntoRange) {
  TimeSeries s({2.0, 4.0, 6.0});
  MinMaxNormalizeInPlace(s, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  EXPECT_DOUBLE_EQ(s[1], 0.5);
  EXPECT_DOUBLE_EQ(s[2], 1.0);
}

TEST(NormalizeTest, MinMaxConstantMapsToMidpoint) {
  TimeSeries s({3.0, 3.0});
  MinMaxNormalizeInPlace(s, -1.0, 1.0);
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  EXPECT_DOUBLE_EQ(s[1], 0.0);
}

// -------------------------------------------------------------- resampling

TEST(ResampleTest, IdentityWhenLengthUnchanged) {
  TimeSeries s({1.0, 5.0, 2.0, 8.0});
  auto r = LinearResample(s, 4);
  ASSERT_TRUE(r.ok());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(r.ValueOrDie()[i], s[i], 1e-12);
  }
}

TEST(ResampleTest, EndpointsArePreserved) {
  TimeSeries s({3.0, -1.0, 4.0, 1.0, 5.0});
  for (std::size_t len : {2u, 7u, 50u, 1000u}) {
    auto r = LinearResample(s, len);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.ValueOrDie()[0], 3.0);
    EXPECT_DOUBLE_EQ(r.ValueOrDie()[len - 1], 5.0);
  }
}

TEST(ResampleTest, UpsampleOfLineIsExact) {
  // Linear interpolation reproduces a linear ramp exactly at any length.
  std::vector<double> ramp;
  for (int i = 0; i < 10; ++i) ramp.push_back(2.0 * i);
  auto r = LinearResample(TimeSeries(std::move(ramp)), 100);
  ASSERT_TRUE(r.ok());
  const auto& v = r.ValueOrDie();
  for (std::size_t i = 0; i < 100; ++i) {
    const double expected = 18.0 * static_cast<double>(i) / 99.0;
    EXPECT_NEAR(v[i], expected, 1e-12);
  }
}

TEST(ResampleTest, DownUpRoundTripApproximatesSmoothSeries) {
  std::vector<double> smooth;
  for (int i = 0; i < 256; ++i) smooth.push_back(std::sin(i * 0.05));
  TimeSeries s(std::move(smooth));
  auto down = LinearResample(s, 64);
  ASSERT_TRUE(down.ok());
  auto up = LinearResample(down.ValueOrDie(), 256);
  ASSERT_TRUE(up.ok());
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_NEAR(up.ValueOrDie()[i], s[i], 0.01);
  }
}

TEST(ResampleTest, PreservesMetadata) {
  TimeSeries s({1.0, 2.0, 3.0}, 4, "x/1");
  auto r = LinearResample(s, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().label(), 4);
  EXPECT_EQ(r.ValueOrDie().id(), "x/1");
}

TEST(ResampleTest, InputValidation) {
  EXPECT_FALSE(LinearResample(TimeSeries({1.0}), 10).ok());
  EXPECT_FALSE(LinearResample(TimeSeries({1.0, 2.0}), 1).ok());
}

TEST(DecimateTest, KeepsEveryStrideTh) {
  TimeSeries s({0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  auto d = Decimate(s, 3);
  ASSERT_TRUE(d.ok());
  const auto& v = d.ValueOrDie();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 3.0);
  EXPECT_DOUBLE_EQ(v[2], 6.0);
}

TEST(DecimateTest, InputValidation) {
  EXPECT_FALSE(Decimate(TimeSeries({1.0}), 0).ok());
  EXPECT_FALSE(Decimate(TimeSeries(), 1).ok());
}

// ----------------------------------------------------------------- dataset

Dataset MakeToyDataset() {
  Dataset d("toy");
  d.Add(TimeSeries({0.0, 0.0, 0.0, 0.0}, 0, "toy/0"));
  d.Add(TimeSeries({1.0, 1.0, 1.0, 1.0}, 1, "toy/1"));
  d.Add(TimeSeries({2.0, 2.0, 2.0, 2.0}, 0, "toy/2"));
  d.Add(TimeSeries({3.0, 3.0, 3.0, 3.0}, 1, "toy/3"));
  return d;
}

TEST(DatasetTest, SizeAndAccess) {
  const Dataset d = MakeToyDataset();
  EXPECT_EQ(d.name(), "toy");
  EXPECT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d[2][0], 2.0);
}

TEST(DatasetTest, UniformLengthDetection) {
  Dataset d = MakeToyDataset();
  EXPECT_TRUE(d.HasUniformLength());
  d.Add(TimeSeries({1.0, 2.0}));
  EXPECT_FALSE(d.HasUniformLength());
}

TEST(DatasetTest, ClassHistogram) {
  const auto hist = MakeToyDataset().ClassHistogram();
  EXPECT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist.at(0), 2u);
  EXPECT_EQ(hist.at(1), 2u);
}

TEST(DatasetTest, SummarizeBasics) {
  const DatasetInfo info = MakeToyDataset().Summarize();
  EXPECT_EQ(info.num_series, 4u);
  EXPECT_EQ(info.min_length, 4u);
  EXPECT_EQ(info.max_length, 4u);
  EXPECT_DOUBLE_EQ(info.avg_length, 4.0);
  EXPECT_EQ(info.num_classes, 2u);
  EXPECT_GT(info.avg_pairwise_distance, 0.0);
}

TEST(DatasetTest, TruncatedTakesPrefix) {
  auto t = MakeToyDataset().Truncated(2, 3);
  ASSERT_TRUE(t.ok());
  const Dataset& d = t.ValueOrDie();
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].size(), 3u);
  EXPECT_EQ(d[1].label(), 1);
}

TEST(DatasetTest, TruncatedValidation) {
  EXPECT_FALSE(MakeToyDataset().Truncated(10, 2).ok());
  EXPECT_FALSE(MakeToyDataset().Truncated(2, 9).ok());
  EXPECT_FALSE(MakeToyDataset().Truncated(2, 0).ok());
}

TEST(DatasetTest, MergeConcatenates) {
  const Dataset a = MakeToyDataset();
  const Dataset b = MakeToyDataset();
  const Dataset merged = Dataset::Merge("both", a, b);
  EXPECT_EQ(merged.size(), 8u);
  EXPECT_EQ(merged.name(), "both");
  EXPECT_DOUBLE_EQ(merged[5][0], 1.0);
}

TEST(DatasetTest, ZNormalizedCopyNormalizesEverySeries) {
  Dataset d("n");
  d.Add(TimeSeries({1.0, 2.0, 3.0, 4.0}));
  d.Add(TimeSeries({10.0, 30.0, 20.0, 40.0}));
  const Dataset z = d.ZNormalizedCopy();
  for (const auto& s : z) {
    const SeriesMoments m = ComputeMoments(s);
    EXPECT_NEAR(m.mean, 0.0, 1e-12);
    EXPECT_NEAR(m.stddev, 1.0, 1e-12);
  }
  // Original untouched.
  EXPECT_DOUBLE_EQ(d[0][0], 1.0);
}

}  // namespace
}  // namespace uts::ts
