// Unit + property tests for DUST (src/measures/dust).
//
// Correctness oracles:
//  * Gaussian errors have the closed form dust(d) = d / sqrt(2(sx^2+sy^2)),
//    so the numeric-integration path can be validated against it;
//  * dust must be reflexive (dust(0) = 0), symmetric, and monotone in the
//    observed difference for unimodal errors;
//  * the pure-uniform pathology (phi = 0 => saturation) and its tailed
//    workaround are paper-documented behaviours (Section 4.2.1).

#include <gtest/gtest.h>

#include <cmath>

#include "distance/dtw.hpp"
#include "measures/dust.hpp"
#include "prob/rng.hpp"
#include "uncertain/perturb.hpp"

namespace uts::measures {
namespace {

using prob::ErrorKind;

uncertain::UncertainSeries MakeSeries(std::vector<double> obs,
                                      prob::ErrorDistributionPtr err) {
  std::vector<prob::ErrorDistributionPtr> errors(obs.size(), std::move(err));
  return uncertain::UncertainSeries(std::move(obs), std::move(errors));
}

TEST(DustTableTest, GaussianClosedForm) {
  DustOptions options;
  auto table = DustTable::Build(*prob::MakeNormalError(0.5),
                                *prob::MakeNormalError(0.5), options);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_TRUE(table.ValueOrDie().closed_form());
  // dust(d) = d / (2 sigma) for equal sigmas.
  for (double d : {0.0, 0.3, 1.0, 2.7}) {
    EXPECT_NEAR(table.ValueOrDie().Dust(d), d / (2.0 * 0.5), 1e-12);
  }
}

TEST(DustTableTest, GaussianUnequalSigmas) {
  DustOptions options;
  auto table = DustTable::Build(*prob::MakeNormalError(0.3),
                                *prob::MakeNormalError(0.8), options);
  ASSERT_TRUE(table.ok());
  const double scale = 1.0 / std::sqrt(2.0 * (0.09 + 0.64));
  EXPECT_NEAR(table.ValueOrDie().Dust(1.3), 1.3 * scale, 1e-12);
}

TEST(DustTableTest, NumericMatchesGaussianClosedForm) {
  // Force the numeric-integration path on normal errors and compare.
  DustOptions numeric;
  numeric.use_closed_form_normal = false;
  DustOptions closed;
  auto num_table = DustTable::Build(*prob::MakeNormalError(0.7),
                                    *prob::MakeNormalError(0.7), numeric);
  auto cf_table = DustTable::Build(*prob::MakeNormalError(0.7),
                                   *prob::MakeNormalError(0.7), closed);
  ASSERT_TRUE(num_table.ok()) << num_table.status();
  ASSERT_TRUE(cf_table.ok());
  EXPECT_FALSE(num_table.ValueOrDie().closed_form());
  for (double d : {0.0, 0.2, 0.9, 2.0, 4.0, 7.5}) {
    EXPECT_NEAR(num_table.ValueOrDie().Dust(d), cf_table.ValueOrDie().Dust(d),
                2e-3)
        << "d=" << d;
  }
}

TEST(DustTableTest, NumericSimpsonTracksClosedFormWithinPinnedTolerance) {
  // Property pin for the engine's closed-form fast path: over the whole
  // lookup range the adaptive-Simpson table and the analytic
  // dust(Δ) = Δ / sqrt(2 (σx² + σy²)) must agree within a fixed tolerance.
  // A regression that loosens the integrator or the table resolution (or a
  // fast path that drifts from the numeric definition) trips this.
  DustOptions numeric;
  numeric.use_closed_form_normal = false;
  auto num_table = DustTable::Build(*prob::MakeNormalError(0.4),
                                    *prob::MakeNormalError(0.9), numeric);
  ASSERT_TRUE(num_table.ok()) << num_table.status();
  const double scale = 1.0 / std::sqrt(2.0 * (0.16 + 0.81));
  double max_abs_err = 0.0;
  for (double d = 0.0; d <= 10.0; d += 0.05) {
    max_abs_err = std::max(max_abs_err,
                           std::fabs(num_table.ValueOrDie().Dust(d) -
                                     d * scale));
  }
  EXPECT_LE(max_abs_err, 2.5e-3);  // pinned
}

TEST(DustTableTest, LutViewEvaluatesBitwiseLikeTheTable) {
  // The batch kernels evaluate through DustLut::Eval; the scalar Dust()
  // delegates to the same code. Pin the bitwise identity for both the
  // closed-form and the numeric-table paths so the two can never drift.
  DustOptions options;
  for (auto table_result :
       {DustTable::Build(*prob::MakeNormalError(0.5),
                         *prob::MakeNormalError(0.8), options),
        DustTable::Build(*prob::MakeUniformError(0.5),
                         *prob::MakeUniformError(0.5), options)}) {
    ASSERT_TRUE(table_result.ok());
    const DustTable& table = table_result.ValueOrDie();
    const distance::DustLut lut = table.Lut();
    for (double d = -20.0; d <= 20.0; d += 0.37) {
      EXPECT_EQ(table.Dust(d), lut.Eval(d)) << "delta=" << d;  // bitwise
    }
  }
}

TEST(DustTableTest, ReflexivityDustOfZeroIsZero) {
  DustOptions options;
  for (auto err :
       {prob::MakeNormalError(0.5), prob::MakeUniformError(0.5),
        prob::MakeExponentialError(0.5), prob::MakeTailedUniformError(0.5)}) {
    auto table = DustTable::Build(*err, *err, options);
    ASSERT_TRUE(table.ok()) << err->Key() << ": " << table.status();
    EXPECT_NEAR(table.ValueOrDie().Dust(0.0), 0.0, 1e-6) << err->Key();
  }
}

TEST(DustTableTest, MonotoneInObservedDifference) {
  DustOptions options;
  for (auto err : {prob::MakeNormalError(0.6), prob::MakeExponentialError(0.6),
                   prob::MakeTailedUniformError(0.6)}) {
    auto table = DustTable::Build(*err, *err, options);
    ASSERT_TRUE(table.ok());
    double prev = -1.0;
    for (double d = 0.0; d <= 10.0; d += 0.1) {
      const double v = table.ValueOrDie().Dust(d);
      EXPECT_GE(v, prev - 1e-9) << err->Key() << " d=" << d;
      prev = v;
    }
  }
}

TEST(DustTableTest, UniformErrorSaturatesBeyondOverlap) {
  // Pure uniform error: supports of the two posteriors stop overlapping at
  // delta = 2a (a = sigma*sqrt(3)); phi = 0 and dust saturates at the
  // phi_floor ceiling. This reproduces the Section 4.2.1 log(0) pathology.
  DustOptions options;
  const double sigma = 0.5;
  auto table = DustTable::Build(*prob::MakeUniformError(sigma),
                                *prob::MakeUniformError(sigma), options);
  ASSERT_TRUE(table.ok());
  const double overlap_edge = 2.0 * sigma * std::sqrt(3.0);
  const double inside = table.ValueOrDie().Dust(overlap_edge * 0.5);
  const double outside1 = table.ValueOrDie().Dust(overlap_edge + 0.5);
  const double outside2 = table.ValueOrDie().Dust(overlap_edge + 3.0);
  EXPECT_LT(inside, outside1);
  // Saturated: beyond the overlap every difference looks equally far.
  EXPECT_NEAR(outside1, outside2, 1e-6);
  EXPECT_DOUBLE_EQ(table.ValueOrDie().Phi(overlap_edge + 1.0), 0.0);
}

TEST(DustTableTest, PhiFloorSaturationValueIsPinnedAtOverlapBoundary) {
  // Regression for the uniform-error saturation (Section 4.2.1): past the
  // support-overlap boundary δ = 2a (a = σ√3) the overlap integral is
  // exactly zero, the phi_floor kicks in, and every saturated cell must
  // equal sqrt(log φ(0) − log phi_floor) — finite, and constant from the
  // boundary to the clamp edge. Before this pin the saturating value was
  // implied but untested; a phi_floor regression (e.g. flooring after the
  // log) would produce ±Inf/NaN here.
  DustOptions options;
  const double sigma = 0.5;
  auto table_result = DustTable::Build(*prob::MakeUniformError(sigma),
                                       *prob::MakeUniformError(sigma),
                                       options);
  ASSERT_TRUE(table_result.ok());
  const DustTable& table = table_result.ValueOrDie();
  const double overlap_edge = 2.0 * sigma * std::sqrt(3.0);
  const double saturated =
      std::sqrt(std::log(table.phi0()) - std::log(options.phi_floor));
  ASSERT_TRUE(std::isfinite(saturated));
  // Just inside the boundary: strictly below saturation and finite.
  const double inside = table.Dust(overlap_edge - 0.05);
  EXPECT_TRUE(std::isfinite(inside));
  EXPECT_LT(inside, saturated);
  // Outside (including the table clamp region): exactly the pinned value,
  // up to the table's linear interpolation at the boundary cell.
  for (double delta : {overlap_edge + 0.1, overlap_edge + 2.0, 100.0}) {
    const double v = table.Dust(delta);
    EXPECT_TRUE(std::isfinite(v)) << "delta=" << delta;
    EXPECT_NEAR(v, saturated, 1e-9) << "delta=" << delta;
  }
}

TEST(DustDistanceTest, UniformSaturationNeverLeaksNanOrInf) {
  // Sequence-level guard: far-apart series under pure uniform error hit the
  // saturated cells at every point; DUST(X, Y) must stay finite (the
  // documented "large, constant dissimilarity" behaviour) and reproducible.
  auto err = prob::MakeUniformError(0.5);
  std::vector<double> far_a(24, 0.0), far_b(24, 8.0);
  auto x = MakeSeries(far_a, err);
  auto y = MakeSeries(far_b, err);
  Dust dust;
  auto d = dust.Distance(x, y);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(std::isfinite(d.ValueOrDie()));
  EXPECT_GT(d.ValueOrDie(), 0.0);
  // sqrt(n) · saturated-cell value, by Eq. 13.
  auto table = DustTable::Build(*err, *err, dust.options());
  ASSERT_TRUE(table.ok());
  EXPECT_NEAR(d.ValueOrDie(),
              std::sqrt(24.0) * table.ValueOrDie().Dust(8.0), 1e-9);
}

TEST(DustTableTest, TailedUniformAvoidsSaturation) {
  DustOptions options;
  const double sigma = 0.5;
  auto table = DustTable::Build(*prob::MakeTailedUniformError(sigma),
                                *prob::MakeTailedUniformError(sigma), options);
  ASSERT_TRUE(table.ok());
  const double far1 = table.ValueOrDie().Dust(4.0);
  const double far2 = table.ValueOrDie().Dust(6.0);
  EXPECT_GT(far2, far1 + 1e-3);  // still discriminating far differences
  EXPECT_GT(table.ValueOrDie().Phi(6.0), 0.0);
}

TEST(DustTableTest, ClampsBeyondTableRange) {
  DustOptions options;
  options.table_delta_max = 4.0;
  auto table = DustTable::Build(*prob::MakeExponentialError(1.0),
                                *prob::MakeExponentialError(1.0), options);
  ASSERT_TRUE(table.ok());
  EXPECT_DOUBLE_EQ(table.ValueOrDie().Dust(100.0),
                   table.ValueOrDie().Dust(4.0));
}

TEST(DustTableTest, InvalidOptionsRejected) {
  DustOptions bad;
  bad.table_size = 1;
  EXPECT_FALSE(DustTable::Build(*prob::MakeNormalError(1.0),
                                *prob::MakeUniformError(1.0), bad)
                   .ok());
  DustOptions bad2;
  bad2.table_delta_max = 0.0;
  EXPECT_FALSE(DustTable::Build(*prob::MakeUniformError(1.0),
                                *prob::MakeUniformError(1.0), bad2)
                   .ok());
}

TEST(DustTableTest, BothDegenerateErrorsRejected) {
  DustOptions options;
  EXPECT_FALSE(
      DustTable::Build(*prob::MakeNoError(), *prob::MakeNoError(), options)
          .ok());
}

TEST(DustTableTest, OneDegenerateErrorUsesPdfLookup) {
  DustOptions options;
  options.use_closed_form_normal = false;
  auto table = DustTable::Build(*prob::MakeNoError(),
                                *prob::MakeNormalError(1.0), options);
  ASSERT_TRUE(table.ok()) << table.status();
  // phi(delta) = N(delta; 0, 1) => dust(d) = d/sqrt(2).
  EXPECT_NEAR(table.ValueOrDie().Dust(1.0), 1.0 / std::sqrt(2.0), 1e-3);
}

// -------------------------------------------------------------- distances

TEST(DustDistanceTest, GaussianCaseProportionalToEuclidean) {
  // "DUST is equivalent to the Euclidean distance, in the case where the
  // error of the time series values follows the normal distribution."
  prob::Rng rng(1);
  std::vector<double> xo(40), yo(40);
  for (auto& v : xo) v = rng.Gaussian();
  for (auto& v : yo) v = rng.Gaussian();
  const double sigma = 0.6;
  auto x = MakeSeries(xo, prob::MakeNormalError(sigma));
  auto y = MakeSeries(yo, prob::MakeNormalError(sigma));

  Dust dust;
  auto d = dust.Distance(x, y);
  ASSERT_TRUE(d.ok());
  double euclid_sq = 0.0;
  for (std::size_t i = 0; i < 40; ++i) {
    euclid_sq += (xo[i] - yo[i]) * (xo[i] - yo[i]);
  }
  const double expected = std::sqrt(euclid_sq) / (2.0 * sigma);
  EXPECT_NEAR(d.ValueOrDie(), expected, 1e-9);
}

TEST(DustDistanceTest, ReflexiveAndSymmetric) {
  prob::Rng rng(2);
  std::vector<double> xo(20), yo(20);
  for (auto& v : xo) v = rng.Gaussian();
  for (auto& v : yo) v = rng.Gaussian();
  auto x = MakeSeries(xo, prob::MakeExponentialError(0.5));
  auto y = MakeSeries(yo, prob::MakeExponentialError(0.5));
  Dust dust;
  EXPECT_NEAR(dust.Distance(x, x).ValueOrDie(), 0.0, 1e-6);
  EXPECT_NEAR(dust.Distance(x, y).ValueOrDie(),
              dust.Distance(y, x).ValueOrDie(), 1e-9);
}

TEST(DustDistanceTest, AsymmetricErrorPairsShareCanonicalTable) {
  // dust(x,y) must equal dust(y,x) even when the two points carry
  // *different* asymmetric error models.
  auto x = MakeSeries({0.0, 1.0}, prob::MakeExponentialError(0.4));
  auto y = MakeSeries({0.5, 0.2}, prob::MakeNormalError(1.0));
  Dust dust;
  const double xy = dust.Distance(x, y).ValueOrDie();
  const double yx = dust.Distance(y, x).ValueOrDie();
  EXPECT_NEAR(xy, yx, 1e-12);
  // Only one table was built for the pair.
  EXPECT_EQ(dust.CacheSize(), 1u);
}

TEST(DustDistanceTest, LengthMismatchRejected) {
  auto x = MakeSeries({1.0, 2.0}, prob::MakeNormalError(1.0));
  auto y = MakeSeries({1.0}, prob::MakeNormalError(1.0));
  Dust dust;
  EXPECT_FALSE(dust.Distance(x, y).ok());
}

TEST(DustDistanceTest, MixedErrorSeriesBuildsOneTablePerPair) {
  std::vector<prob::ErrorDistributionPtr> ex, ey;
  for (int i = 0; i < 10; ++i) {
    ex.push_back(prob::MakeNormalError(i % 2 == 0 ? 1.0 : 0.4));
    ey.push_back(prob::MakeNormalError(i % 3 == 0 ? 1.0 : 0.4));
  }
  uncertain::UncertainSeries x(std::vector<double>(10, 0.0), ex);
  uncertain::UncertainSeries y(std::vector<double>(10, 1.0), ey);
  Dust dust;
  ASSERT_TRUE(dust.Distance(x, y).ok());
  // Pairs: (1,1), (1,.4), (.4,1)->canonical (.4,1), (.4,.4): 3 distinct.
  EXPECT_EQ(dust.CacheSize(), 3u);
}

TEST(DustDistanceTest, PointDustMatchesTableLookup) {
  Dust dust;
  auto err = prob::MakeNormalError(0.5);
  auto d = dust.PointDust(1.2, *err, 0.2, *err);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.ValueOrDie(), 1.0 / (2.0 * 0.5), 1e-12);
}

// ------------------------------------------------------------------- DTW

TEST(DustDtwTest, UpperBoundedByLockstepDust) {
  prob::Rng rng(3);
  std::vector<double> xo(24), yo(24);
  for (auto& v : xo) v = rng.Gaussian();
  for (auto& v : yo) v = rng.Gaussian();
  auto x = MakeSeries(xo, prob::MakeNormalError(0.5));
  auto y = MakeSeries(yo, prob::MakeNormalError(0.5));
  Dust dust;
  const double lockstep = dust.Distance(x, y).ValueOrDie();
  const double warped = dust.DtwDistance(x, y).ValueOrDie();
  EXPECT_LE(warped, lockstep + 1e-9);
}

TEST(DustDtwTest, RealignsShiftedPattern) {
  std::vector<double> a(40, 0.0), b(40, 0.0);
  for (int i = 10; i < 18; ++i) a[i] = 3.0;
  for (int i = 14; i < 22; ++i) b[i] = 3.0;
  auto x = MakeSeries(a, prob::MakeNormalError(0.3));
  auto y = MakeSeries(b, prob::MakeNormalError(0.3));
  Dust dust;
  const double lockstep = dust.Distance(x, y).ValueOrDie();
  const double warped = dust.DtwDistance(x, y).ValueOrDie();
  EXPECT_LT(warped, 0.3 * lockstep);
}

TEST(DustDtwTest, NormalErrorDtwProportionalToPlainDtw) {
  // Under constant normal error, dust(d) = d/(2σ), so dust² local costs are
  // plain squared diffs scaled by 1/(2σ)²: DUST-DTW == DTW / (2σ) exactly.
  prob::Rng rng(5);
  std::vector<double> xo(32), yo(32);
  for (auto& v : xo) v = rng.Gaussian();
  for (auto& v : yo) v = rng.Gaussian();
  const double sigma = 0.4;
  auto x = MakeSeries(xo, prob::MakeNormalError(sigma));
  auto y = MakeSeries(yo, prob::MakeNormalError(sigma));
  Dust dust;
  const double dust_dtw = dust.DtwDistance(x, y).ValueOrDie();
  const double plain_dtw = distance::Dtw(xo, yo);
  EXPECT_NEAR(dust_dtw, plain_dtw / (2.0 * sigma), 1e-9);
}

TEST(DustDtwTest, EmptySeriesRejected) {
  uncertain::UncertainSeries empty;
  auto x = MakeSeries({1.0}, prob::MakeNormalError(1.0));
  Dust dust;
  EXPECT_FALSE(dust.DtwDistance(empty, x).ok());
}

// --------------------------------------------------- ranking equivalence

TEST(DustRankingTest, NormalErrorPreservesEuclideanRanking) {
  // Proportionality => identical nearest-neighbor rankings.
  prob::Rng rng(4);
  const std::size_t n = 16, m = 12;
  auto query_obs = std::vector<double>(n);
  for (auto& v : query_obs) v = rng.Gaussian();
  auto query = MakeSeries(query_obs, prob::MakeNormalError(0.7));

  std::vector<uncertain::UncertainSeries> candidates;
  std::vector<double> euclid;
  for (std::size_t c = 0; c < m; ++c) {
    std::vector<double> obs(n);
    for (auto& v : obs) v = rng.Gaussian();
    double sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sq += (obs[i] - query_obs[i]) * (obs[i] - query_obs[i]);
    }
    euclid.push_back(std::sqrt(sq));
    candidates.push_back(MakeSeries(obs, prob::MakeNormalError(0.7)));
  }
  Dust dust;
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) {
      const double da = dust.Distance(query, candidates[a]).ValueOrDie();
      const double db = dust.Distance(query, candidates[b]).ValueOrDie();
      EXPECT_EQ(da < db, euclid[a] < euclid[b])
          << "ranking flip at pair (" << a << "," << b << ")";
    }
  }
}

}  // namespace
}  // namespace uts::measures
