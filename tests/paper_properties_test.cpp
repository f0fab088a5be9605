// Cross-cutting property tests tying the paper's analytical claims to the
// implementation, swept over all 17 datasets and the σ grid.

#include <gtest/gtest.h>

#include <cmath>

#include "datagen/registry.hpp"
#include "distance/lp.hpp"
#include "measures/dust.hpp"
#include "measures/proud.hpp"
#include "prob/stats.hpp"
#include "query/engine.hpp"
#include "query/search.hpp"
#include "uncertain/perturb.hpp"

namespace uts {
namespace {

// ------------------------------------------------ dataset-wide invariants

class EveryDataset : public ::testing::TestWithParam<std::string> {
 protected:
  ts::Dataset Load(std::size_t series = 24, std::size_t length = 48) const {
    auto spec = datagen::SpecByName(GetParam()).ValueOrDie();
    return datagen::GenerateScaled(spec, 99, series, length);
  }
};

TEST_P(EveryDataset, GenerationIsDeterministic) {
  const ts::Dataset a = Load();
  const ts::Dataset b = Load();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST_P(EveryDataset, ScalingPreservesThePrefix) {
  const ts::Dataset big = Load(24, 48);
  const ts::Dataset small = Load(12, 48);
  for (std::size_t i = 0; i < small.size(); ++i) EXPECT_EQ(big[i], small[i]);
}

TEST_P(EveryDataset, ClassesAreInterleavedAndBalanced) {
  const ts::Dataset d = Load(24, 48);
  const auto hist = d.ClassHistogram();
  ASSERT_GE(hist.size(), 2u);
  std::size_t min_count = d.size(), max_count = 0;
  for (const auto& [label, count] : hist) {
    (void)label;
    min_count = std::min(min_count, count);
    max_count = std::max(max_count, count);
  }
  // Round-robin assignment keeps class sizes within one of each other.
  EXPECT_LE(max_count - min_count, 1u);
}

TEST_P(EveryDataset, ValuesAreFiniteAndNonConstant) {
  const ts::Dataset d = Load();
  for (const auto& s : d) {
    prob::RunningStats stats;
    for (double v : s) {
      ASSERT_TRUE(std::isfinite(v));
      stats.Add(v);
    }
    EXPECT_GT(stats.StdDevPopulation(), 1e-9) << s.id();
  }
}

TEST_P(EveryDataset, GroundTruthNeighborsFavorSameClass) {
  // Nearest neighbors on exact z-normalized data should be enriched for
  // the query's class — otherwise the paper's evaluation task would be
  // meaningless on this dataset. Size the sample so every class has at
  // least 3 members (50words has 50 classes).
  const std::size_t classes =
      datagen::SpecByName(GetParam()).ValueOrDie().shape.num_classes;
  const ts::Dataset d =
      Load(std::max<std::size_t>(36, 3 * classes), 64).ZNormalizedCopy();
  const auto hist = d.ClassHistogram();
  double same = 0.0, total = 0.0;
  const auto engine = query::DistanceMatrixEngine::Create(d).ValueOrDie();
  for (std::size_t qi = 0; qi < 12; ++qi) {
    const auto nn = engine.KNearestEuclidean(qi, 3);
    for (const auto& nb : nn) {
      same += d[nb.index].label() == d[qi].label() ? 1.0 : 0.0;
      total += 1.0;
    }
  }
  const double chance =
      1.0 / static_cast<double>(hist.size());  // random-label baseline
  EXPECT_GT(same / total, chance) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(All17, EveryDataset,
                         ::testing::ValuesIn(datagen::UcrLikeNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ------------------------------------------------------ σ-grid invariants

class SigmaGridProperties : public ::testing::TestWithParam<double> {};

TEST_P(SigmaGridProperties, DustNormalRankingEqualsEuclideanRanking) {
  // Section 2.3: with normal errors DUST is equivalent to Euclidean; the
  // k-NN sets must coincide at every σ of the paper's sweep.
  const double sigma = GetParam();
  auto spec = datagen::SpecByName("Coffee").ValueOrDie();
  const ts::Dataset exact =
      datagen::GenerateScaled(spec, 7, 20, 40).ZNormalizedCopy();
  const auto pdf = uncertain::PerturbDataset(
      exact, uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, sigma),
      5);
  measures::Dust dust;
  const auto dust_nn =
      query::KNearest(pdf.size(), 0, 5, [&](std::size_t i) {
        return dust.Distance(pdf[0], pdf[i]).ValueOrDie();
      });
  const auto euclid_nn =
      query::KNearest(pdf.size(), 0, 5, [&](std::size_t i) {
        return distance::Euclidean(pdf[0].observations(),
                                   pdf[i].observations());
      });
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(dust_nn[k].index, euclid_nn[k].index) << "sigma=" << sigma;
  }
}

TEST_P(SigmaGridProperties, ProudProbabilityDecreasesWithReportedSigma) {
  // At fixed ε and observations, telling PROUD the noise is larger shifts
  // the squared-distance statistic up: the match probability must fall.
  const double sigma = GetParam();
  prob::Rng rng(13);
  std::vector<double> x(32), y(32);
  for (auto& v : x) v = rng.Gaussian();
  for (auto& v : y) v = rng.Gaussian();
  const double eps = 1.2 * distance::Euclidean(x, y);
  measures::Proud narrower({.tau = 0.5, .sigma = sigma});
  measures::Proud wider({.tau = 0.5, .sigma = sigma + 0.3});
  EXPECT_GE(narrower.MatchProbability(x, y, eps),
            wider.MatchProbability(x, y, eps) - 1e-12)
      << "sigma=" << sigma;
}

TEST_P(SigmaGridProperties, PerturbationVarianceMatchesSigma) {
  const double sigma = GetParam();
  const ts::TimeSeries zero(std::vector<double>(4000, 0.0));
  for (auto kind : {prob::ErrorKind::kNormal, prob::ErrorKind::kUniform,
                    prob::ErrorKind::kExponential}) {
    const auto u = uncertain::PerturbSeries(
        zero, uncertain::ErrorSpec::Constant(kind, sigma), 17);
    prob::RunningStats stats;
    for (std::size_t i = 0; i < u.size(); ++i) stats.Add(u.observation(i));
    EXPECT_NEAR(stats.StdDevPopulation(), sigma, 0.12 * sigma)
        << prob::ErrorKindName(kind) << " sigma=" << sigma;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperSweep, SigmaGridProperties,
                         ::testing::Values(0.2, 0.6, 1.0, 1.4, 2.0));

}  // namespace
}  // namespace uts
