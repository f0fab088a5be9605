// Unit tests for the uncertainty models and perturbation pipeline
// (src/uncertain).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <set>

#include "exec/parallel_for.hpp"
#include "exec/thread_pool.hpp"
#include "prob/stats.hpp"
#include "ts/normalize.hpp"
#include "uncertain/error_spec.hpp"
#include "uncertain/perturb.hpp"
#include "uncertain/uncertain_series.hpp"

namespace uts::uncertain {
namespace {

using prob::ErrorKind;

ts::TimeSeries Ramp(std::size_t n) {
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
  return ts::TimeSeries(std::move(values), 3, "ramp/0");
}

// ----------------------------------------------------------------- models

TEST(UncertainSeriesTest, AccessorsAndStddevs) {
  std::vector<prob::ErrorDistributionPtr> errors{
      prob::MakeNormalError(0.5), prob::MakeUniformError(1.0)};
  UncertainSeries s({1.0, 2.0}, std::move(errors), 7, "u/0");
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.observation(1), 2.0);
  EXPECT_EQ(s.label(), 7);
  const auto sigmas = s.Stddevs();
  ASSERT_EQ(sigmas.size(), 2u);
  EXPECT_NEAR(sigmas[0], 0.5, 1e-12);
  EXPECT_NEAR(sigmas[1], 1.0, 1e-12);
}

TEST(UncertainSeriesTest, AsTimeSeriesCarriesMetadata) {
  std::vector<prob::ErrorDistributionPtr> errors{prob::MakeNormalError(1.0)};
  UncertainSeries s({5.0}, std::move(errors), 2, "u/1");
  const ts::TimeSeries t = s.AsTimeSeries();
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.label(), 2);
  EXPECT_EQ(t.id(), "u/1");
}

TEST(MultiSampleSeriesTest, SampleMeansAndBoundingInterval) {
  MultiSampleSeries s({{1.0, 3.0}, {10.0, 20.0, 30.0}}, 1, "m/0");
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.num_samples(1), 3u);
  const ts::TimeSeries means = s.SampleMeans();
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 20.0);
  const auto [lo, hi] = s.BoundingInterval(1);
  EXPECT_DOUBLE_EQ(lo, 10.0);
  EXPECT_DOUBLE_EQ(hi, 30.0);
}

// -------------------------------------------------------------- error spec

/// The model index `spec` assigns each of `length` points under `seed`.
std::vector<std::uint8_t> ModelsOf(const ErrorSpec& spec, std::size_t length,
                                   std::uint64_t seed) {
  std::vector<std::uint8_t> model_of(length, 0xff);
  spec.AssignModels(seed, model_of);
  return model_of;
}

TEST(ErrorSpecTest, ConstantAssignsOneDistributionEverywhere) {
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.7);
  const ErrorModels models = spec.Models();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models.actual[0]->kind(), ErrorKind::kNormal);
  EXPECT_NEAR(models.actual[0]->stddev(), 0.7, 1e-12);
  EXPECT_EQ(models.reported[0], models.actual[0]);  // same object
  for (const std::uint8_t m : ModelsOf(spec, 20, 42)) EXPECT_EQ(m, 0);
  EXPECT_NEAR(spec.RepresentativeSigma(), 0.7, 1e-12);
}

TEST(ErrorSpecTest, MixedSigmaHitsExactFraction) {
  // Paper's Figure 8 regime: 20% sigma=1.0, 80% sigma=0.4.
  const ErrorSpec spec = ErrorSpec::MixedSigma(ErrorKind::kNormal);
  const ErrorModels models = spec.Models();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_NEAR(models.actual[0]->stddev(), 0.4, 1e-12);
  EXPECT_NEAR(models.actual[1]->stddev(), 1.0, 1e-12);
  std::size_t hi = 0;
  for (const std::uint8_t m : ModelsOf(spec, 100, 7)) {
    ASSERT_LT(m, 2u);
    hi += m;
  }
  EXPECT_EQ(hi, 20u);
}

TEST(ErrorSpecTest, MixedSigmaPositionsVaryWithSeed) {
  const ErrorSpec spec = ErrorSpec::MixedSigma(ErrorKind::kNormal);
  auto hi_positions = [&](std::uint64_t seed) {
    std::set<std::size_t> set;
    const std::vector<std::uint8_t> model_of = ModelsOf(spec, 50, seed);
    for (std::size_t i = 0; i < model_of.size(); ++i) {
      if (model_of[i] == 1) set.insert(i);
    }
    return set;
  };
  EXPECT_EQ(hi_positions(1), hi_positions(1));   // deterministic
  EXPECT_NE(hi_positions(1), hi_positions(2));   // seed-sensitive
}

TEST(ErrorSpecTest, MixedKindUsesAllThreeFamilies) {
  const ErrorSpec spec = ErrorSpec::MixedKind();
  const ErrorModels models = spec.Models();
  std::set<ErrorKind> kinds;
  for (const std::uint8_t m : ModelsOf(spec, 300, 11)) {
    kinds.insert(models.actual[m]->kind());
  }
  EXPECT_TRUE(kinds.count(ErrorKind::kNormal));
  EXPECT_TRUE(kinds.count(ErrorKind::kUniform));
  EXPECT_TRUE(kinds.count(ErrorKind::kExponential));
}

TEST(ErrorSpecTest, MixedKindHasSixModelsWhateverTheLength) {
  // Three families × two σ levels, each low then high: model 2·family +
  // is_hi, however long the series.
  const ErrorSpec spec = ErrorSpec::MixedKind();
  const ErrorModels models = spec.Models();
  ASSERT_EQ(models.size(), 6u);
  for (std::size_t m = 0; m < 6; ++m) {
    EXPECT_NEAR(models.actual[m]->stddev(), m % 2 ? 1.0 : 0.4, 1e-12);
  }
  for (const std::uint8_t m : ModelsOf(spec, 300, 11)) EXPECT_LT(m, 6u);
}

TEST(ErrorSpecTest, MisreportedSeparatesActualFromReported) {
  // Figure 10: actual mixed-sigma normal, reported constant normal 0.7.
  const ErrorSpec spec = ErrorSpec::MixedSigma(ErrorKind::kNormal)
                             .WithMisreported(ErrorKind::kNormal, 0.7);
  const ErrorModels models = spec.Models();
  bool actual_varies = false;
  for (const std::uint8_t m : ModelsOf(spec, 50, 3)) {
    EXPECT_NEAR(models.reported[m]->stddev(), 0.7, 1e-12);
    if (std::fabs(models.actual[m]->stddev() - 0.7) > 1e-9) {
      actual_varies = true;
    }
  }
  EXPECT_TRUE(actual_varies);
  EXPECT_NEAR(spec.RepresentativeSigma(), 0.7, 1e-12);
}

TEST(ErrorSpecTest, TailedUniformReportingOnlyRewritesUniform) {
  const ErrorSpec spec = ErrorSpec::MixedKind().WithTailedUniformReporting();
  const ErrorModels models = spec.Models();
  // One substitute per uniform σ level; every other model reports itself.
  std::set<const prob::ErrorDistribution*> substitutes;
  for (std::size_t m = 0; m < models.size(); ++m) {
    if (models.actual[m]->kind() == ErrorKind::kUniform) {
      EXPECT_EQ(models.reported[m]->kind(), ErrorKind::kTailedUniform);
      EXPECT_NEAR(models.reported[m]->stddev(), models.actual[m]->stddev(),
                  1e-9);
      substitutes.insert(models.reported[m].get());
    } else {
      EXPECT_EQ(models.reported[m], models.actual[m]);
    }
  }
  EXPECT_EQ(substitutes.size(), 2u);  // σ_lo and σ_hi
}

TEST(ErrorSpecTest, RepresentativeSigmaOfMixedSpecIsRms) {
  const ErrorSpec spec = ErrorSpec::MixedSigma(ErrorKind::kNormal, 0.2, 1.0, 0.4);
  const double expected = std::sqrt(0.2 * 1.0 + 0.8 * 0.16);
  EXPECT_NEAR(spec.RepresentativeSigma(), expected, 1e-12);
}

TEST(ErrorSpecTest, DescribeIsHumanReadable) {
  EXPECT_NE(ErrorSpec::Constant(ErrorKind::kUniform, 0.6).Describe().find(
                "uniform"),
            std::string::npos);
  EXPECT_NE(ErrorSpec::MixedSigma(ErrorKind::kNormal).Describe().find("20%"),
            std::string::npos);
  EXPECT_NE(ErrorSpec::MixedSigma(ErrorKind::kNormal)
                .WithMisreported(ErrorKind::kNormal, 0.7)
                .Describe()
                .find("reported"),
            std::string::npos);
}

// ------------------------------------------------------------ perturbation

TEST(PerturbTest, DeterministicUnderSeed) {
  const ts::TimeSeries exact = Ramp(32);
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.5);
  const UncertainSeries a = PerturbSeries(exact, spec, 99);
  const UncertainSeries b = PerturbSeries(exact, spec, 99);
  const UncertainSeries c = PerturbSeries(exact, spec, 100);
  ASSERT_EQ(a.size(), b.size());
  bool differs_from_c = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.observation(i), b.observation(i));
    if (a.observation(i) != c.observation(i)) differs_from_c = true;
  }
  EXPECT_TRUE(differs_from_c);
}

TEST(PerturbTest, PreservesMetadataAndLength) {
  const ts::TimeSeries exact = Ramp(16);
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kUniform, 1.0);
  const UncertainSeries u = PerturbSeries(exact, spec, 5);
  EXPECT_EQ(u.size(), 16u);
  EXPECT_EQ(u.label(), 3);
  EXPECT_EQ(u.id(), "ramp/0");
}

TEST(PerturbTest, NoErrorSpecIsIdentity) {
  const ts::TimeSeries exact = Ramp(16);
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNone, 0.0);
  const UncertainSeries u = PerturbSeries(exact, spec, 5);
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_DOUBLE_EQ(u.observation(i), exact[i]);
  }
}

TEST(PerturbTest, PerturbationErrorHasExpectedMagnitude) {
  const std::size_t n = 20000;
  const ts::TimeSeries exact(std::vector<double>(n, 0.0));
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kExponential, 0.8);
  const UncertainSeries u = PerturbSeries(exact, spec, 21);
  prob::RunningStats stats;
  for (std::size_t i = 0; i < n; ++i) stats.Add(u.observation(i));
  EXPECT_NEAR(stats.Mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.StdDevPopulation(), 0.8, 0.05);
}

TEST(PerturbTest, MultiSampleShapesAndVariation) {
  const ts::TimeSeries exact = Ramp(12);
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.3);
  const MultiSampleSeries m = PerturbMultiSample(exact, spec, 5, 17);
  ASSERT_EQ(m.size(), 12u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    ASSERT_EQ(m.num_samples(i), 5u);
    // Samples at a timestamp differ (continuous error).
    const auto& s = m.samples(i);
    EXPECT_NE(s[0], s[1]);
    // And scatter around the exact value.
    for (double v : s) EXPECT_NEAR(v, exact[i], 6.0 * 0.3);
  }
}

TEST(PerturbTest, DatasetPerturbationDerivesPerSeriesSeeds) {
  ts::Dataset dataset("d");
  dataset.Add(Ramp(8));
  dataset.Add(Ramp(8));
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 1.0);
  const UncertainDataset u = PerturbDataset(dataset, spec, 1);
  ASSERT_EQ(u.size(), 2u);
  // Same exact input, different seeds => different observations.
  bool differ = false;
  for (std::size_t i = 0; i < 8; ++i) {
    if (u[0].observation(i) != u[1].observation(i)) differ = true;
  }
  EXPECT_TRUE(differ);
  EXPECT_EQ(u.name, "d");
}

TEST(PerturbTest, MultiSampleDatasetIsDeterministic) {
  ts::Dataset dataset("d");
  dataset.Add(Ramp(8));
  dataset.Add(Ramp(8));
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kUniform, 0.5);
  const MultiSampleDataset a = PerturbDatasetMultiSample(dataset, spec, 3, 9);
  const MultiSampleDataset b = PerturbDatasetMultiSample(dataset, spec, 3, 9);
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(a[s].samples(i), b[s].samples(i));
    }
  }
}

// ------------------------------------------------------- perturbation pool

constexpr std::size_t kPoolWidths[] = {1, 2, 8};

/// The error specs the paper perturbs with.
std::vector<ErrorSpec> PaperSpecs() {
  return {ErrorSpec::Constant(ErrorKind::kNormal, 0.5),
          ErrorSpec::MixedSigma(ErrorKind::kNormal),
          ErrorSpec::MixedKind(),
          ErrorSpec::MixedSigma(ErrorKind::kNormal)
              .WithMisreported(ErrorKind::kNormal, 0.7),
          ErrorSpec::MixedKind().WithTailedUniformReporting()};
}

/// Enough series for several pool chunks, the last one short.
ts::Dataset ManySeries() {
  ts::Dataset dataset("many");
  for (std::size_t s = 0; s < 53; ++s) {
    std::vector<double> values(24);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = std::sin(0.3 * static_cast<double>(i + s));
    }
    dataset.Add(ts::TimeSeries(std::move(values), static_cast<int>(s % 3),
                               "many/" + std::to_string(s)));
  }
  return dataset;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bitwise equal observations, equal metadata and equal error models
/// (compared by Key(): the two sides build their own model objects).
void ExpectSameDataset(const UncertainDataset& a, const UncertainDataset& b) {
  EXPECT_EQ(a.name, b.name);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size()) << "series " << s;
    EXPECT_EQ(a[s].label(), b[s].label());
    EXPECT_EQ(a[s].id(), b[s].id());
    for (std::size_t t = 0; t < a[s].size(); ++t) {
      EXPECT_TRUE(SameBits(a[s].observation(t), b[s].observation(t)))
          << "series " << s << " point " << t;
      EXPECT_EQ(a[s].error(t)->Key(), b[s].error(t)->Key());
    }
  }
}

void ExpectSameDataset(const MultiSampleDataset& a,
                       const MultiSampleDataset& b) {
  EXPECT_EQ(a.name, b.name);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size()) << "series " << s;
    EXPECT_EQ(a[s].label(), b[s].label());
    EXPECT_EQ(a[s].id(), b[s].id());
    for (std::size_t t = 0; t < a[s].size(); ++t) {
      ASSERT_EQ(a[s].num_samples(t), b[s].num_samples(t));
      for (std::size_t k = 0; k < a[s].num_samples(t); ++k) {
        EXPECT_TRUE(SameBits(a[s].samples(t)[k], b[s].samples(t)[k]))
            << "series " << s << " point " << t << " sample " << k;
      }
    }
  }
}

TEST(PerturbPoolTest, DatasetOnAPoolIsBitwiseTheInlineDataset) {
  const ts::Dataset exact = ManySeries();
  for (const ErrorSpec& spec : PaperSpecs()) {
    SCOPED_TRACE(spec.Describe());
    const UncertainDataset inline_pdf = PerturbDataset(exact, spec, 31);
    const MultiSampleDataset inline_samples =
        PerturbDatasetMultiSample(exact, spec, 3, 31);
    for (std::size_t width : kPoolWidths) {
      SCOPED_TRACE("pool width " + std::to_string(width));
      exec::ThreadPool pool(width);
      ExpectSameDataset(PerturbDataset(exact, spec, 31, &pool), inline_pdf);
      ExpectSameDataset(PerturbDatasetMultiSample(exact, spec, 3, 31, &pool),
                        inline_samples);
    }
  }
}

TEST(PerturbPoolTest, CallFromAWorkerOfThePoolRunsInline) {
  // Both workers issue a perturbation on their own pool. Had the nested
  // calls queued chunks behind the waiting workers, this would hang.
  const ts::Dataset exact = ManySeries();
  const ErrorSpec spec = ErrorSpec::MixedSigma(ErrorKind::kUniform);
  exec::ThreadPool pool(2);
  std::vector<UncertainDataset> pdfs(2);
  std::vector<MultiSampleDataset> samples(2);
  exec::ParallelFor(&pool, 2, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      EXPECT_TRUE(pool.OnWorkerThread());
      pdfs[i] = PerturbDataset(exact, spec, 8, &pool);
      samples[i] = PerturbDatasetMultiSample(exact, spec, 2, 8, &pool);
    }
  });
  const UncertainDataset inline_pdf = PerturbDataset(exact, spec, 8);
  const MultiSampleDataset inline_samples =
      PerturbDatasetMultiSample(exact, spec, 2, 8);
  for (std::size_t i = 0; i < 2; ++i) {
    ExpectSameDataset(pdfs[i], inline_pdf);
    ExpectSameDataset(samples[i], inline_samples);
  }
}

}  // namespace
}  // namespace uts::uncertain
