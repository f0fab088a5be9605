// End-to-end tests reproducing the paper's headline findings on scaled-down
// data. These are the "does the whole pipeline tell the paper's story"
// checks; the bench/ harnesses run the same flows at larger scale.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "core/matchers.hpp"
#include "datagen/registry.hpp"
#include "uncertain/error_spec.hpp"

namespace uts::core {
namespace {

using prob::ErrorKind;
using uncertain::ErrorSpec;

struct NamedRun {
  std::string dataset;
  std::vector<MatcherResult> results;
};

/// Run (Euclidean, DUST, UMA, UEMA) on a few scaled-down datasets under the
/// paper's Figure 15-17 mixed-error regime and pool the scores.
std::vector<MatcherResult> RunSectionFiveSetup(ErrorKind kind,
                                               std::uint64_t seed) {
  EuclideanMatcher euclid;
  DustMatcher dust;
  auto uma = MakeUmaMatcher();
  auto uema = MakeUemaMatcher();
  Matcher* matchers[] = {&euclid, &dust, uma.get(), uema.get()};

  const ErrorSpec spec = kind == ErrorKind::kUniform
                             ? ErrorSpec::MixedSigma(kind).
                               WithTailedUniformReporting()
                             : ErrorSpec::MixedSigma(kind);

  RunOptions options;
  options.ground_truth_k = 5;
  options.max_queries = 15;
  options.seed = seed;

  std::vector<std::vector<MatcherResult>> parts;
  for (const char* name : {"GunPoint", "Trace", "FaceFour"}) {
    auto dataset_spec = datagen::SpecByName(name).ValueOrDie();
    const ts::Dataset d =
        datagen::GenerateScaled(dataset_spec, seed, 40, 64).ZNormalizedCopy();
    auto run = RunSimilarityMatching(d, spec, matchers, options);
    EXPECT_TRUE(run.ok()) << name << ": " << run.status();
    if (run.ok()) parts.push_back(std::move(run).ValueOrDie());
  }

  std::vector<MatcherResult> pooled;
  for (std::size_t m = 0; m < 4; ++m) {
    std::vector<MatcherResult> per_matcher;
    for (const auto& p : parts) per_matcher.push_back(p[m]);
    pooled.push_back(CombineAcrossDatasets(per_matcher[0].name, per_matcher));
  }
  return pooled;
}

TEST(PaperFindingsTest, UemaOutperformsEuclideanOnMixedNormalError) {
  // Section 5.2 / Figure 16: "UMA and UEMA perform consistently better"
  // than Euclidean and DUST under mixed normal error.
  const auto pooled = RunSectionFiveSetup(ErrorKind::kNormal, 31);
  ASSERT_EQ(pooled.size(), 4u);
  const double euclid = pooled[0].f1.mean;
  const double uema = pooled[3].f1.mean;
  EXPECT_GT(uema, euclid)
      << "UEMA should beat raw Euclidean under mixed noise";
}

TEST(PaperFindingsTest, UmaOutperformsEuclideanOnMixedExponentialError) {
  const auto pooled = RunSectionFiveSetup(ErrorKind::kExponential, 33);
  const double euclid = pooled[0].f1.mean;
  const double uma = pooled[2].f1.mean;
  EXPECT_GT(uma, euclid);
}

TEST(PaperFindingsTest, DustAndEuclideanAreComparableUnderNormalError) {
  // Figure 5(a): "virtually no difference among the different techniques"
  // — under constant normal error DUST is *equivalent* to Euclidean
  // (proportional distance, identical ranking), so F1 must be very close.
  EuclideanMatcher euclid;
  DustMatcher dust;
  Matcher* matchers[] = {&euclid, &dust};
  auto spec = datagen::SpecByName("GunPoint").ValueOrDie();
  const ts::Dataset d =
      datagen::GenerateScaled(spec, 35, 40, 64).ZNormalizedCopy();
  RunOptions options;
  options.ground_truth_k = 5;
  options.max_queries = 20;
  options.seed = 35;
  auto results = RunSimilarityMatching(
      d, ErrorSpec::Constant(ErrorKind::kNormal, 0.8), matchers, options);
  ASSERT_TRUE(results.ok());
  EXPECT_NEAR(results.ValueOrDie()[0].f1.mean,
              results.ValueOrDie()[1].f1.mean, 0.05);
}

TEST(PaperFindingsTest, RecallStaysHigherThanPrecisionAsNoiseGrows) {
  // Figures 6-7: as sigma grows, precision collapses while recall stays
  // comparatively high. PROUD runs at its optimal tau, as in the paper
  // ("PROUD is using the optimal threshold, tau, for every value of the
  // standard deviation").
  ProudMatcher proud(0.5);
  Matcher* matchers[] = {&proud};
  auto spec = datagen::SpecByName("Trace").ValueOrDie();
  const ts::Dataset d =
      datagen::GenerateScaled(spec, 37, 40, 64).ZNormalizedCopy();
  RunOptions options;
  options.ground_truth_k = 5;
  options.max_queries = 15;
  options.seed = 37;
  options.proud_sigma = 2.0;
  const ErrorSpec spec_noise = ErrorSpec::Constant(ErrorKind::kNormal, 2.0);
  auto sweep = SweepTau(d, spec_noise, proud, options, DefaultTauGrid());
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  auto results = RunSimilarityMatching(d, spec_noise, matchers, options);
  ASSERT_TRUE(results.ok());
  const auto& r = results.ValueOrDie()[0];
  EXPECT_GT(r.recall.mean, 0.0);
  EXPECT_GT(r.recall.mean, r.precision.mean);
}

TEST(PaperFindingsTest, MunichAccurateAtLowSigmaOnTruncatedData) {
  // Figure 4 regime: tiny series, 5 samples/timestamp, low sigma: MUNICH
  // achieves high accuracy.
  auto spec = datagen::SpecByName("GunPoint").ValueOrDie();
  const ts::Dataset full =
      datagen::GenerateScaled(spec, 39, 60, 48).ZNormalizedCopy();
  const ts::Dataset d = full.Truncated(24, 6).ValueOrDie();

  measures::MunichOptions mopts;
  mopts.estimator = measures::MunichOptions::Estimator::kExact;
  mopts.tau = 0.5;
  MunichMatcher munich(mopts);
  Matcher* matchers[] = {&munich};
  RunOptions options;
  options.ground_truth_k = 5;
  options.max_queries = 8;
  options.seed = 39;
  options.munich_samples_per_point = 5;

  auto low = RunSimilarityMatching(
      d, ErrorSpec::Constant(ErrorKind::kNormal, 0.2), matchers, options);
  auto high = RunSimilarityMatching(
      d, ErrorSpec::Constant(ErrorKind::kNormal, 2.0), matchers, options);
  ASSERT_TRUE(low.ok()) << low.status();
  ASSERT_TRUE(high.ok()) << high.status();
  // Low-noise accuracy is solid and collapses as sigma grows (the paper's
  // "accuracy falls sharply" observation).
  EXPECT_GT(low.ValueOrDie()[0].f1.mean, 0.5);
  EXPECT_GT(low.ValueOrDie()[0].f1.mean, high.ValueOrDie()[0].f1.mean);
}

TEST(PaperFindingsTest, WindowSweepPeaksAwayFromZero) {
  // Figure 13: w=0 (plain Euclidean) is worse than a small positive window.
  auto spec = datagen::SpecByName("ECG200").ValueOrDie();
  const ts::Dataset d =
      datagen::GenerateScaled(spec, 41, 40, 64).ZNormalizedCopy();
  const ErrorSpec noise = ErrorSpec::MixedSigma(ErrorKind::kNormal);
  RunOptions options;
  options.ground_truth_k = 5;
  options.max_queries = 15;
  options.seed = 41;

  auto f1_at = [&](std::size_t w) {
    auto uma = MakeUmaMatcher(w);
    Matcher* matchers[] = {uma.get()};
    auto run = RunSimilarityMatching(d, noise, matchers, options);
    EXPECT_TRUE(run.ok());
    return run.ok() ? run.ValueOrDie()[0].f1.mean : 0.0;
  };
  const double at_zero = f1_at(0);
  const double at_two = f1_at(2);
  EXPECT_GT(at_two, at_zero);
}

TEST(PaperFindingsTest, TimeGrowsWithSeriesLength) {
  // Figure 12: per-query time grows (roughly linearly) with length.
  EuclideanMatcher euclid;
  DustMatcher dust;
  Matcher* matchers[] = {&euclid, &dust};
  auto spec = datagen::SpecByName("Lighting2").ValueOrDie();
  RunOptions options;
  options.ground_truth_k = 3;
  options.max_queries = 0;  // every series is a query
  options.seed = 43;

  const ts::Dataset short_data =
      datagen::GenerateScaled(spec, 43, 64, 64).ZNormalizedCopy();
  const ts::Dataset long_data =
      datagen::GenerateScaled(spec, 43, 64, 512).ZNormalizedCopy();
  auto time_of = [&](const ts::Dataset& d) {
    auto run = RunSimilarityMatching(
        d, ErrorSpec::Constant(ErrorKind::kNormal, 0.5), matchers, options);
    EXPECT_TRUE(run.ok());
    return run.ValueOrDie()[0].avg_query_millis +
           run.ValueOrDie()[1].avg_query_millis;
  };
  // 8x the length takes clearly more time per query. One run averages
  // 64 queries of 63 pairs each, and each length keeps its best of several
  // interleaved runs, so a preempted run (or a slow stretch of a loaded
  // host) cannot invert the order.
  double short_series = time_of(short_data);
  double long_series = time_of(long_data);
  for (int repeat = 1; repeat < 5; ++repeat) {
    short_series = std::min(short_series, time_of(short_data));
    long_series = std::min(long_series, time_of(long_data));
  }
  EXPECT_GT(long_series, short_series);
}

}  // namespace
}  // namespace uts::core
