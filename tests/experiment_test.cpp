// Integration tests for the evaluation methodology (src/core/experiment,
// src/core/matchers): binding, calibration, tau sweeps, aggregation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/matchers.hpp"
#include "datagen/registry.hpp"
#include "query/engine_context.hpp"
#include "uncertain/error_spec.hpp"
#include "uncertain/perturb.hpp"

namespace uts::core {
namespace {

using prob::ErrorKind;
using uncertain::ErrorSpec;

ts::Dataset SmallDataset(std::uint64_t seed = 7) {
  auto spec = datagen::SpecByName("GunPoint").ValueOrDie();
  return datagen::GenerateScaled(spec, seed, 30, 48).ZNormalizedCopy();
}

RunOptions QuickOptions() {
  RunOptions options;
  options.ground_truth_k = 5;
  options.max_queries = 10;
  options.seed = 101;
  return options;
}

TEST(RunSimilarityMatchingTest, ZeroNoiseGivesPerfectEuclidean) {
  // With no perturbation the observations equal the exact values, the
  // calibrated epsilon is exactly the k-NN distance, and Euclidean must
  // retrieve exactly the ground-truth set.
  const ts::Dataset d = SmallDataset();
  EuclideanMatcher euclid;
  Matcher* matchers[] = {&euclid};
  auto results = RunSimilarityMatching(
      d, ErrorSpec::Constant(ErrorKind::kNone, 0.0), matchers, QuickOptions());
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_NEAR(results.ValueOrDie()[0].f1.mean, 1.0, 1e-12);
}

TEST(RunSimilarityMatchingTest, ResultsAreDeterministic) {
  const ts::Dataset d = SmallDataset();
  EuclideanMatcher euclid;
  Matcher* matchers[] = {&euclid};
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.6);
  auto a = RunSimilarityMatching(d, spec, matchers, QuickOptions());
  auto b = RunSimilarityMatching(d, spec, matchers, QuickOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a.ValueOrDie()[0].f1.mean, b.ValueOrDie()[0].f1.mean);
}

TEST(RunSimilarityMatchingTest, MoreNoiseLowersAccuracy) {
  const ts::Dataset d = SmallDataset();
  EuclideanMatcher euclid;
  Matcher* matchers[] = {&euclid};
  auto low = RunSimilarityMatching(
      d, ErrorSpec::Constant(ErrorKind::kNormal, 0.2), matchers,
      QuickOptions());
  auto high = RunSimilarityMatching(
      d, ErrorSpec::Constant(ErrorKind::kNormal, 2.0), matchers,
      QuickOptions());
  ASSERT_TRUE(low.ok() && high.ok());
  EXPECT_GT(low.ValueOrDie()[0].f1.mean, high.ValueOrDie()[0].f1.mean);
}

TEST(RunSimilarityMatchingTest, AllPaperMatchersRunTogether) {
  const ts::Dataset d = SmallDataset();
  EuclideanMatcher euclid;
  ProudMatcher proud(0.6);
  DustMatcher dust;
  auto uma = MakeUmaMatcher();
  auto uema = MakeUemaMatcher();
  Matcher* matchers[] = {&euclid, &proud, &dust, uma.get(), uema.get()};

  const ErrorSpec spec = ErrorSpec::MixedSigma(ErrorKind::kNormal);
  auto results = RunSimilarityMatching(d, spec, matchers, QuickOptions());
  ASSERT_TRUE(results.ok()) << results.status();
  const auto& rs = results.ValueOrDie();
  ASSERT_EQ(rs.size(), 5u);
  EXPECT_EQ(rs[0].name, "Euclidean");
  EXPECT_EQ(rs[1].name, "PROUD");
  EXPECT_EQ(rs[2].name, "DUST");
  EXPECT_EQ(rs[3].name, "UMA(w=2)");
  EXPECT_EQ(rs[4].name, "UEMA(w=2,lambda=1)");
  for (const auto& r : rs) {
    EXPECT_EQ(r.queries, 10u);
    EXPECT_GE(r.f1.mean, 0.0);
    EXPECT_LE(r.f1.mean, 1.0);
    EXPECT_GE(r.precision.mean, 0.0);
    EXPECT_LE(r.precision.mean, 1.0);
    EXPECT_GE(r.recall.mean, 0.0);
    EXPECT_LE(r.recall.mean, 1.0);
    EXPECT_EQ(r.per_query_f1.size(), 10u);
  }
}

TEST(RunSimilarityMatchingTest, MunichRequiresSampleModel) {
  const ts::Dataset d = SmallDataset();
  measures::MunichOptions mopts;
  MunichMatcher munich(mopts);
  Matcher* matchers[] = {&munich};
  // Without munich_samples_per_point the context has no sample dataset.
  auto missing = RunSimilarityMatching(
      d, ErrorSpec::Constant(ErrorKind::kNormal, 0.4), matchers,
      QuickOptions());
  EXPECT_FALSE(missing.ok());

  auto truncated = d.Truncated(12, 6).ValueOrDie();
  RunOptions options = QuickOptions();
  options.ground_truth_k = 3;
  options.max_queries = 4;
  options.munich_samples_per_point = 5;
  auto ok = RunSimilarityMatching(
      truncated, ErrorSpec::Constant(ErrorKind::kNormal, 0.4), matchers,
      options);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_GE(ok.ValueOrDie()[0].f1.mean, 0.0);
}

TEST(RunSimilarityMatchingTest, InputValidation) {
  EuclideanMatcher euclid;
  Matcher* matchers[] = {&euclid};
  ts::Dataset tiny("tiny");
  tiny.Add(ts::TimeSeries({1.0, 2.0}));
  EXPECT_FALSE(RunSimilarityMatching(tiny,
                                     ErrorSpec::Constant(ErrorKind::kNone, 0),
                                     matchers, QuickOptions())
                   .ok());

  const ts::Dataset d = SmallDataset();
  RunOptions bad_k = QuickOptions();
  bad_k.ground_truth_k = 1000;
  EXPECT_FALSE(RunSimilarityMatching(d,
                                     ErrorSpec::Constant(ErrorKind::kNone, 0),
                                     matchers, bad_k)
                   .ok());

  EXPECT_FALSE(RunSimilarityMatching(d,
                                     ErrorSpec::Constant(ErrorKind::kNone, 0),
                                     {}, QuickOptions())
                   .ok());
}

TEST(RunSimilarityMatchingTest, ProudSigmaOverride) {
  // Figure 8 setup: PROUD told sigma = 0.7 while the data has mixed sigma.
  const ts::Dataset d = SmallDataset();
  ProudMatcher proud(0.5);
  Matcher* matchers[] = {&proud};
  RunOptions options = QuickOptions();
  options.proud_sigma = 0.7;
  auto results = RunSimilarityMatching(
      d, ErrorSpec::MixedSigma(ErrorKind::kNormal), matchers, options);
  ASSERT_TRUE(results.ok());
}

TEST(RunSimilarityMatchingTest, SuppliedContextMustMatchForceScalar) {
  // A supplied context runs the kernels it was built with, so a run must
  // not take one built for another SIMD mode than it asks for.
  const ts::Dataset d = SmallDataset();
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.6);
  for (const bool force_scalar : {true, false}) {
    SCOPED_TRACE(force_scalar ? "force_scalar" : "native");
    const distance::SimdMode asked = force_scalar
                                         ? distance::SimdMode::kForceScalar
                                         : distance::SimdMode::kAuto;
    const distance::SimdMode other = force_scalar
                                         ? distance::SimdMode::kAuto
                                         : distance::SimdMode::kForceScalar;
    RunOptions options = QuickOptions();
    options.force_scalar = force_scalar;
    EuclideanMatcher euclid;
    Matcher* matchers[] = {&euclid};

    query::EngineContextOptions mismatched_options;
    mismatched_options.simd = other;
    query::EngineContext mismatched(mismatched_options);
    options.engine_context = &mismatched;
    auto refused = RunSimilarityMatching(d, spec, matchers, options);
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(mismatched.stats().data_binds, 0u);

    query::EngineContextOptions matching_options;
    matching_options.simd = asked;
    query::EngineContext matching(matching_options);
    options.engine_context = &matching;
    auto run = RunSimilarityMatching(d, spec, matchers, options);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(matching.stats().data_binds, 1u);
  }
}

// ------------------------------------------------------------------- sweep

TEST(SweepTauTest, FindsBestTauOnGrid) {
  const ts::Dataset d = SmallDataset();
  ProudMatcher proud(0.5);
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.6);
  const auto grid = DefaultTauGrid();
  auto sweep = SweepTau(d, spec, proud, QuickOptions(), grid);
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  const auto& s = sweep.ValueOrDie();
  ASSERT_EQ(s.taus.size(), grid.size());
  // best_f1 is the max of the grid.
  double max_f1 = 0.0;
  for (double f1 : s.f1s) max_f1 = std::max(max_f1, f1);
  EXPECT_DOUBLE_EQ(s.best_f1, max_f1);
  // The matcher is left configured at the best tau.
  EXPECT_DOUBLE_EQ(proud.tau(), s.best_tau);
}

TEST(SweepTauTest, RejectsNonProbabilisticMatcher) {
  const ts::Dataset d = SmallDataset();
  EuclideanMatcher euclid;
  auto sweep = SweepTau(d, ErrorSpec::Constant(ErrorKind::kNormal, 0.5),
                        euclid, QuickOptions(), DefaultTauGrid());
  EXPECT_FALSE(sweep.ok());
}

TEST(SweepTauTest, RejectsTauOutsideOpenUnitInterval) {
  const ts::Dataset d = SmallDataset();
  const std::vector<std::vector<double>> grids = {
      {0.5, std::numeric_limits<double>::quiet_NaN()}, {0.0}, {1.0}};
  for (const auto& grid : grids) {
    ProudMatcher proud(0.5);
    auto sweep = SweepTau(d, ErrorSpec::Constant(ErrorKind::kNormal, 0.5),
                          proud, QuickOptions(), grid);
    ASSERT_FALSE(sweep.ok());
    EXPECT_EQ(sweep.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(proud.tau(), 0.5);
  }
}

// The τ search before it scored once: set_tau + RunSimilarityMatching per
// grid point, first maximum wins. The score-once SweepTau must equal it.
TauSweepResult ReferenceSweep(const ts::Dataset& exact, const ErrorSpec& spec,
                              Matcher& matcher, const RunOptions& options,
                              const std::vector<double>& grid) {
  TauSweepResult ref;
  ref.best_f1 = -1.0;
  Matcher* const matchers[] = {&matcher};
  for (double tau : grid) {
    matcher.set_tau(tau);
    auto run = RunSimilarityMatching(exact, spec, matchers, options);
    EXPECT_TRUE(run.ok()) << run.status();
    if (!run.ok()) return ref;
    const double f1 = run.ValueOrDie().front().f1.mean;
    ref.taus.push_back(tau);
    ref.f1s.push_back(f1);
    if (f1 > ref.best_f1) {
      ref.best_f1 = f1;
      ref.best_tau = tau;
    }
  }
  matcher.set_tau(ref.best_tau);
  return ref;
}

std::vector<std::uint64_t> Bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> bits;
  for (double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
  return bits;
}

/// Runs SweepTau on `fast` and the reference loop on `slow` (two matchers
/// in the same starting state) and requires bitwise-equal outcomes.
void ExpectSweepEqualsReference(const ts::Dataset& exact,
                                const ErrorSpec& spec, Matcher& fast,
                                Matcher& slow, const RunOptions& options,
                                const std::vector<double>& grid) {
  auto sweep = SweepTau(exact, spec, fast, options, grid);
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  const TauSweepResult want = ReferenceSweep(exact, spec, slow, options, grid);
  const TauSweepResult& got = sweep.ValueOrDie();
  EXPECT_EQ(Bits(got.taus), Bits(want.taus));
  EXPECT_EQ(Bits(got.f1s), Bits(want.f1s));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best_tau),
            std::bit_cast<std::uint64_t>(want.best_tau));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best_f1),
            std::bit_cast<std::uint64_t>(want.best_f1));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.tau()),
            std::bit_cast<std::uint64_t>(slow.tau()));
  // The grid must actually discriminate, or equality proves little.
  EXPECT_GT(std::set<double>(got.f1s.begin(), got.f1s.end()).size(), 1u);
}

TEST(SweepTauTest, ScoreOnceEqualsPerTauLoopOnTheProudEngine) {
  const ts::Dataset d = SmallDataset();
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.6);
  for (std::size_t threads : {1u, 2u, 8u}) {
    query::EngineContextOptions context_options;
    context_options.threads = threads;
    query::EngineContext context(context_options);
    RunOptions options = QuickOptions();
    options.threads = threads;
    options.engine_context = &context;
    ProudMatcher fast(0.5), slow(0.5);
    ExpectSweepEqualsReference(d, spec, fast, slow, options, DefaultTauGrid());
    EXPECT_GT(context.stats().acquires_served, 0u) << threads;
    EXPECT_EQ(context.stats().acquires_declined, 0u) << threads;
  }
}

TEST(SweepTauTest, ScoreOnceEqualsPerTauLoopForMunich) {
  const ts::Dataset d = SmallDataset().Truncated(12, 6).ValueOrDie();
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.5);
  RunOptions options = QuickOptions();
  options.ground_truth_k = 3;
  options.max_queries = 6;
  options.munich_samples_per_point = 4;
  options.threads = 2;
  MunichMatcher fast, slow;
  ExpectSweepEqualsReference(d, spec, fast, slow, options,
                             {0.05, 0.2, 0.4, 0.6, 0.8, 0.95});
}

TEST(SweepTauTest, RepeatedTauKeepsTheFirstMaximum) {
  // Repeated and near-identical τ values tie; the first maximum must win.
  const ts::Dataset d = SmallDataset();
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.6);
  const std::vector<double> grid = {1e-4, 0.3, 0.5, 0.5 + 1e-12,
                                    0.5,  0.3, 1e-4};
  ProudMatcher fast(0.9), slow(0.9);
  ExpectSweepEqualsReference(d, spec, fast, slow, QuickOptions(), grid);

  ProudMatcher proud(0.9);
  auto sweep = SweepTau(d, spec, proud, QuickOptions(), grid);
  ASSERT_TRUE(sweep.ok());
  const auto& f1s = sweep.ValueOrDie().f1s;
  EXPECT_EQ(f1s[1], f1s[5]);
  EXPECT_EQ(f1s[2], f1s[4]);
  EXPECT_EQ(f1s[0], f1s[6]);
  const std::size_t first_max = static_cast<std::size_t>(
      std::max_element(f1s.begin(), f1s.end()) - f1s.begin());
  EXPECT_EQ(sweep.ValueOrDie().best_tau, grid[first_max]);
}

TEST(SweepTauTest, PerturbsBindsAndBuildsGroundTruthOnce) {
  // One 19-point search binds the data once and sweeps or reuses the
  // ground truth once, where a run per grid point did each 19 times.
  const ts::Dataset d = SmallDataset();
  query::EngineContext context(query::EngineContextOptions{});
  RunOptions options = QuickOptions();
  options.engine_context = &context;
  ProudMatcher proud(0.5);
  const std::vector<double> grid = DefaultTauGrid();
  ASSERT_EQ(grid.size(), 19u);
  const auto before = context.stats();
  ASSERT_TRUE(SweepTau(d, ErrorSpec::Constant(ErrorKind::kNormal, 0.6), proud,
                       options, grid)
                  .ok());
  const auto after = context.stats();
  EXPECT_EQ(after.data_binds + after.data_rebind_hits -
                (before.data_binds + before.data_rebind_hits),
            1u);
  EXPECT_EQ(after.certain_packs + after.certain_reuses -
                (before.certain_packs + before.certain_reuses),
            1u);
}

// --------------------------------------------------------------- combining

TEST(CombineAcrossDatasetsTest, PoolsPerQueryScores) {
  MatcherResult a;
  a.name = "X";
  a.per_query_f1 = {1.0, 0.0};
  a.per_query_precision = {1.0, 0.0};
  a.per_query_recall = {1.0, 0.0};
  a.queries = 2;
  a.avg_query_millis = 2.0;
  MatcherResult b = a;
  b.per_query_f1 = {0.5, 0.5};
  b.avg_query_millis = 4.0;

  const MatcherResult combined = CombineAcrossDatasets("X", {{a, b}});
  EXPECT_EQ(combined.queries, 4u);
  EXPECT_NEAR(combined.f1.mean, 0.5, 1e-12);
  EXPECT_NEAR(combined.avg_query_millis, 3.0, 1e-12);
  EXPECT_EQ(combined.per_query_f1.size(), 4u);
}

// ------------------------------------------------------- matcher specifics

TEST(MatcherTest, NamesEncodeParameters) {
  EXPECT_EQ(MakeUmaMatcher(3)->name(), "UMA(w=3)");
  EXPECT_EQ(MakeUemaMatcher(5, 0.1)->name(), "UEMA(w=5,lambda=0.1)");
  EXPECT_EQ(MakeMovingAverageMatcher(2)->name(), "MA(w=2)");
  EXPECT_EQ(MakeExponentialMovingAverageMatcher(2, 1.0)->name(),
            "EMA(w=2,lambda=1)");
}

TEST(MatcherTest, TauAccessors) {
  ProudMatcher proud(0.7);
  EXPECT_TRUE(proud.has_tau());
  EXPECT_DOUBLE_EQ(proud.tau(), 0.7);
  proud.set_tau(0.3);
  EXPECT_DOUBLE_EQ(proud.tau(), 0.3);

  MunichMatcher munich;
  EXPECT_TRUE(munich.has_tau());
  munich.set_tau(0.8);
  EXPECT_DOUBLE_EQ(munich.tau(), 0.8);

  EuclideanMatcher euclid;
  EXPECT_FALSE(euclid.has_tau());
}

TEST(MatcherTest, MatchersRequireBinding) {
  // Binding to a context without bound data fails cleanly.
  query::EngineContext empty;
  EuclideanMatcher euclid;
  EXPECT_FALSE(euclid.Bind(empty).ok());
  MunichMatcher munich;
  EXPECT_FALSE(munich.Bind(empty).ok());
}

TEST(MatcherTest, ProudWaveletAgreesWithProud) {
  // Same tau/sigma => identical decisions (the synopsis is only a filter).
  const ts::Dataset d = SmallDataset();
  ProudMatcher proud(0.8);
  ProudSynopsisMatcherAdapter fast(0.8, 8);
  Matcher* matchers[] = {&proud, &fast};
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.5);
  auto results = RunSimilarityMatching(d, spec, matchers, QuickOptions());
  ASSERT_TRUE(results.ok()) << results.status();
  const auto& rs = results.ValueOrDie();
  ASSERT_EQ(rs[0].per_query_f1.size(), rs[1].per_query_f1.size());
  for (std::size_t i = 0; i < rs[0].per_query_f1.size(); ++i) {
    EXPECT_DOUBLE_EQ(rs[0].per_query_f1[i], rs[1].per_query_f1[i]) << i;
  }
}

TEST(MatcherTest, ProudWaveletTauBelowHalfIsAnErrorNotAStaleTau) {
  // The synopsis prune is unsound below τ = 0.5. Set after Bind, such a τ
  // must fail every later decision instead of deciding at the old τ.
  const ts::Dataset d = SmallDataset();
  const uncertain::UncertainDataset pdf = uncertain::PerturbDataset(
      d, ErrorSpec::Constant(ErrorKind::kNormal, 0.5), 3);
  query::EngineContext context;
  ASSERT_TRUE(context.BindData(pdf, std::nullopt, 3, 0.5).ok());

  ProudSynopsisMatcherAdapter too_low(0.3, 8);
  EXPECT_EQ(too_low.Bind(context).code(), StatusCode::kInvalidArgument);

  ProudSynopsisMatcherAdapter wavelet(0.8, 8);
  ProudMatcher proud(0.8);
  ASSERT_TRUE(wavelet.Bind(context).ok());
  ASSERT_TRUE(proud.Bind(context).ok());
  const double eps = wavelet.CalibrationDistance(0, 5).ValueOrDie();
  const std::size_t n = pdf.size();
  const auto at_08 = proud.Retrieve(0, n, eps).ValueOrDie();
  ASSERT_EQ(wavelet.Retrieve(0, n, eps).ValueOrDie(), at_08);

  wavelet.set_tau(0.3);
  EXPECT_EQ(wavelet.tau(), 0.3);
  EXPECT_EQ(wavelet.Matches(0, 1, eps).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(wavelet.Retrieve(0, n, eps).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<double> taus = {0.8, 0.3};
  EXPECT_EQ(wavelet.RetrieveEachTau(0, n, eps, taus).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(wavelet.tau(), 0.3);

  // A valid τ restores service at that τ.
  wavelet.set_tau(0.8);
  EXPECT_EQ(wavelet.Retrieve(0, n, eps).ValueOrDie(), at_08);

  // A τ search reaching below 0.5 reports the error.
  auto sweep = SweepTau(d, ErrorSpec::Constant(ErrorKind::kNormal, 0.5),
                        wavelet, QuickOptions(), taus);
  EXPECT_EQ(sweep.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatcherTest, ProudTauOutsideTheOpenUnitIntervalIsAnError) {
  // Φ⁻¹(τ) is ∓inf at τ = 0 and 1: such a τ must be an error, never a
  // decision that matches every pair or none.
  const ts::Dataset d = SmallDataset();
  const uncertain::UncertainDataset pdf = uncertain::PerturbDataset(
      d, ErrorSpec::Constant(ErrorKind::kNormal, 0.5), 3);
  query::EngineContext engines;
  ASSERT_TRUE(engines.BindData(pdf, std::nullopt, 3, 0.5).ok());

  for (const double tau :
       {0.0, 1.0, -0.5, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    ProudMatcher bad(tau);
    EXPECT_EQ(bad.Bind(engines).code(), StatusCode::kInvalidArgument) << tau;
  }

  ProudMatcher proud(0.8);
  ASSERT_TRUE(proud.Bind(engines).ok());
  const double eps = proud.CalibrationDistance(0, 5).ValueOrDie();
  const std::size_t n = pdf.size();
  const auto at_08 = proud.Retrieve(0, n, eps).ValueOrDie();
  const bool match_08 = proud.Matches(0, 1, eps).ValueOrDie();

  proud.set_tau(1.0);
  EXPECT_EQ(proud.tau(), 1.0);
  EXPECT_EQ(proud.Matches(0, 1, eps).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(proud.Retrieve(0, n, eps).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<double> taus = {0.8, 1.0};
  EXPECT_EQ(proud.RetrieveEachTau(0, n, eps, taus).status().code(),
            StatusCode::kInvalidArgument);

  // A valid τ restores the original answer.
  proud.set_tau(0.8);
  EXPECT_EQ(proud.Retrieve(0, n, eps).ValueOrDie(), at_08);
  EXPECT_EQ(proud.Matches(0, 1, eps).ValueOrDie(), match_08);
  EXPECT_GT(engines.stats().acquires_served, 0u);
}

TEST(MatcherTest, MunichProbabilityCacheSurvivesTauChanges) {
  // The tau sweep re-binds MUNICH to identical data; cached probabilities
  // must produce exactly the decisions of a fresh matcher at each tau.
  const ts::Dataset d = SmallDataset().Truncated(12, 6).ValueOrDie();
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.5);
  RunOptions options = QuickOptions();
  options.ground_truth_k = 3;
  options.max_queries = 4;
  options.munich_samples_per_point = 4;

  measures::MunichOptions mopts;
  MunichMatcher reused(mopts);
  for (double tau : {0.2, 0.5, 0.8}) {
    reused.set_tau(tau);
    MunichMatcher fresh(mopts);
    fresh.set_tau(tau);
    Matcher* reused_arr[] = {&reused};
    Matcher* fresh_arr[] = {&fresh};
    auto a = RunSimilarityMatching(d, spec, reused_arr, options);
    auto b = RunSimilarityMatching(d, spec, fresh_arr, options);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a.ValueOrDie()[0].per_query_f1.size(),
              b.ValueOrDie()[0].per_query_f1.size());
    for (std::size_t i = 0; i < a.ValueOrDie()[0].per_query_f1.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.ValueOrDie()[0].per_query_f1[i],
                       b.ValueOrDie()[0].per_query_f1[i])
          << "tau=" << tau << " query=" << i;
    }
  }
}

TEST(MatcherTest, MunichRebindToDataChangedInTheMiddleDropsCachedRows) {
  // Two datasets differing only in series 5 and 6 (negated): same first and
  // last series, same seed. A matcher that ran on the first must score the
  // second exactly like a fresh matcher, not from stale probabilities.
  const ts::Dataset d = SmallDataset().Truncated(12, 6).ValueOrDie();
  ts::Dataset changed = d;
  for (std::size_t i : {5u, 6u}) {
    for (double& v : changed[i].mutable_values()) v = -v;
  }
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.5);
  RunOptions options = QuickOptions();
  options.ground_truth_k = 3;
  options.munich_samples_per_point = 4;

  MunichMatcher reused, fresh;
  Matcher* reused_arr[] = {&reused};
  Matcher* fresh_arr[] = {&fresh};
  ASSERT_TRUE(RunSimilarityMatching(d, spec, reused_arr, options).ok());
  auto a = RunSimilarityMatching(changed, spec, reused_arr, options);
  auto b = RunSimilarityMatching(changed, spec, fresh_arr, options);
  ASSERT_TRUE(a.ok() && b.ok());
  const MatcherResult& got = a.ValueOrDie()[0];
  const MatcherResult& want = b.ValueOrDie()[0];
  EXPECT_EQ(Bits(got.per_query_f1), Bits(want.per_query_f1));
  EXPECT_EQ(Bits(got.per_query_precision), Bits(want.per_query_precision));
  EXPECT_EQ(Bits(got.per_query_recall), Bits(want.per_query_recall));
}

TEST(MatcherTest, DustDtwMatcherRuns) {
  const ts::Dataset d = SmallDataset().Truncated(15, 24).ValueOrDie();
  DustDtwMatcher dust_dtw;
  Matcher* matchers[] = {&dust_dtw};
  RunOptions options = QuickOptions();
  options.ground_truth_k = 3;
  options.max_queries = 4;
  auto results = RunSimilarityMatching(
      d, ErrorSpec::Constant(ErrorKind::kNormal, 0.4), matchers, options);
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_GE(results.ValueOrDie()[0].f1.mean, 0.0);
}

TEST(MatcherTest, MunichDtwMatcherRuns) {
  const ts::Dataset d = SmallDataset().Truncated(10, 8).ValueOrDie();
  measures::MunichOptions mopts;
  mopts.mc_samples = 500;
  MunichDtwMatcher munich_dtw(mopts);
  Matcher* matchers[] = {&munich_dtw};
  RunOptions options = QuickOptions();
  options.ground_truth_k = 3;
  options.max_queries = 3;
  options.munich_samples_per_point = 3;
  auto results = RunSimilarityMatching(
      d, ErrorSpec::Constant(ErrorKind::kUniform, 0.4), matchers, options);
  ASSERT_TRUE(results.ok()) << results.status();
}

// --------------------------------------------------- query-parallel runner
//
// The runner spreads queries over the run's pool. Every matcher must give
// bitwise the same per-query scores, τ-search outcome and error at every
// pool width; these suites also run under TSan, which checks that matchers
// are safe per query.

using MatcherSet = std::vector<std::unique_ptr<Matcher>>;

/// Per-query f1/precision/recall of every result, as bit patterns.
std::vector<std::uint64_t> ScoreBits(const std::vector<MatcherResult>& rs) {
  std::vector<std::uint64_t> bits;
  for (const MatcherResult& r : rs) {
    for (const auto* scores :
         {&r.per_query_f1, &r.per_query_precision, &r.per_query_recall}) {
      for (double v : *scores) bits.push_back(std::bit_cast<std::uint64_t>(v));
    }
  }
  return bits;
}

std::vector<Matcher*> Borrow(const MatcherSet& owned) {
  std::vector<Matcher*> matchers;
  for (const auto& m : owned) matchers.push_back(m.get());
  return matchers;
}

/// Runs fresh matchers from `make` at 1, 2 and 8 threads, each on its own
/// context, and requires bitwise-equal per-query scores. Returns the
/// declined engine acquisitions of the last run.
std::size_t ExpectRunParity(const ts::Dataset& exact, const ErrorSpec& spec,
                            RunOptions options,
                            const std::function<MatcherSet()>& make) {
  std::vector<std::uint64_t> want;
  std::size_t declined = 0;
  for (std::size_t threads : {1u, 2u, 8u}) {
    query::EngineContextOptions context_options;
    context_options.threads = threads;
    query::EngineContext context(context_options);
    options.threads = threads;
    options.engine_context = &context;
    const MatcherSet owned = make();
    const std::vector<Matcher*> matchers = Borrow(owned);
    auto run = RunSimilarityMatching(exact, spec, matchers, options);
    EXPECT_TRUE(run.ok()) << run.status();
    if (!run.ok()) return declined;
    EXPECT_EQ(run.ValueOrDie().size(), owned.size());
    const std::vector<std::uint64_t> bits = ScoreBits(run.ValueOrDie());
    if (threads == 1) {
      want = bits;
    } else {
      EXPECT_EQ(bits, want) << "threads=" << threads;
    }
    declined = context.stats().acquires_declined;
  }
  return declined;
}

template <typename T, typename... Args>
void Add(MatcherSet& set, Args&&... args) {
  set.push_back(std::make_unique<T>(std::forward<Args>(args)...));
}

TEST(MatcherTest, IndicesOutsideTheBindingAreInvalidArgument) {
  // 30 bound series: index 30 lies past the packed rows. Every matcher
  // refuses it instead of reading past its data, and the engine matchers,
  // whose sweeps cover every bound series, refuse any other candidate
  // count.
  const ts::Dataset d = SmallDataset().Truncated(30, 8).ValueOrDie();
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.5);
  query::EngineContext engines;
  ASSERT_TRUE(engines
                  .BindData(uncertain::PerturbDataset(d, spec, 3),
                            uncertain::PerturbDatasetMultiSample(d, spec, 3, 4),
                            3, 0.5)
                  .ok());
  MatcherSet on_engine;
  Add<EuclideanMatcher>(on_engine);
  Add<ProudMatcher>(on_engine, 0.8);
  Add<DustMatcher>(on_engine);
  Add<MunichMatcher>(on_engine);
  MatcherSet others;
  Add<ProudSynopsisMatcherAdapter>(others, 0.8, 8);
  Add<DustDtwMatcher>(others);
  Add<MunichDtwMatcher>(others);
  others.push_back(MakeUmaMatcher());
  Add<DtwMatcher>(others);
  Add<Ar1SmootherMatcher>(others);

  const std::size_t n = 30;
  const double eps = 1e9;
  const std::vector<double> taus = {0.5};
  auto code = [](const auto& result) { return result.status().code(); };
  constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;
  for (const MatcherSet* set : {&on_engine, &others}) {
    for (const auto& matcher : *set) {
      SCOPED_TRACE(matcher->name());
      ASSERT_TRUE(matcher->Bind(engines).ok());
      EXPECT_EQ(code(matcher->CalibrationDistance(0, n)), kInvalid);
      EXPECT_EQ(code(matcher->CalibrationDistance(n, 0)), kInvalid);
      EXPECT_EQ(code(matcher->Matches(0, n, eps)), kInvalid);
      EXPECT_EQ(code(matcher->Matches(n, 0, eps)), kInvalid);
      EXPECT_EQ(code(matcher->Retrieve(0, n + 1, eps)), kInvalid);
      EXPECT_EQ(code(matcher->Retrieve(n, n, eps)), kInvalid);
      if (matcher->has_tau()) {
        EXPECT_EQ(code(matcher->RetrieveEachTau(0, n + 1, eps, taus)),
                  kInvalid);
        EXPECT_EQ(code(matcher->RetrieveEachTau(n, n, eps, taus)), kInvalid);
      }
      if (set == &on_engine) {
        EXPECT_EQ(code(matcher->Retrieve(0, n - 1, eps)), kInvalid);
      }
      EXPECT_TRUE(matcher->Retrieve(0, n, eps).ok());
    }
  }
}

TEST(RunnerThreadParityTest, EuclideanProudAndDust) {
  const ts::Dataset d = SmallDataset();
  RunOptions options = QuickOptions();
  options.max_queries = 0;
  const std::size_t declined = ExpectRunParity(
      d, ErrorSpec::Constant(ErrorKind::kNormal, 0.6), options, [&] {
        MatcherSet set;
        Add<EuclideanMatcher>(set);
        Add<ProudMatcher>(set, 0.5);
        Add<ProudSynopsisMatcherAdapter>(set, 0.8, 8);
        Add<DustMatcher>(set);
        return set;
      });
  EXPECT_EQ(declined, 0u);
}

TEST(RunnerThreadParityTest, DustScalarPathsShareOneTableCache) {
  // Several error classes and numerically integrated tables: DUST-DTW
  // looks tables up (and builds them) from every worker through its one
  // measures::Dust cache, beside DUST on the shared engine's tables.
  const ts::Dataset d = SmallDataset().Truncated(16, 24).ValueOrDie();
  RunOptions options = QuickOptions();
  options.ground_truth_k = 3;
  options.max_queries = 0;
  measures::DustOptions dust;
  dust.table_size = 128;
  const std::size_t declined = ExpectRunParity(
      d, ErrorSpec::MixedSigma(ErrorKind::kUniform), options, [&] {
        MatcherSet set;
        Add<DustMatcher>(set);
        Add<DustDtwMatcher>(set, dust);
        return set;
      });
  EXPECT_EQ(declined, 0u);
}

TEST(RunnerThreadParityTest, MunichAndMunichDtw) {
  // Two MUNICH estimator configurations share the one engine: each query
  // runs the estimator of the matcher that asks.
  const ts::Dataset d = SmallDataset().Truncated(12, 6).ValueOrDie();
  RunOptions options = QuickOptions();
  options.ground_truth_k = 3;
  options.max_queries = 0;
  options.munich_samples_per_point = 4;
  measures::MunichOptions cheap;
  cheap.mc_samples = 200;
  const std::size_t declined = ExpectRunParity(
      d, ErrorSpec::Constant(ErrorKind::kNormal, 0.5), options, [&] {
        MatcherSet set;
        Add<MunichMatcher>(set);
        Add<MunichMatcher>(set, cheap);
        Add<MunichDtwMatcher>(set, cheap);
        return set;
      });
  EXPECT_EQ(declined, 0u);
}

TEST(RunnerThreadParityTest, FilteredSmoothedAndDtw) {
  const ts::Dataset d = SmallDataset();
  RunOptions options = QuickOptions();
  options.max_queries = 0;
  ExpectRunParity(d, ErrorSpec::Constant(ErrorKind::kNormal, 0.6), options,
                  [] {
                    MatcherSet set;
                    set.push_back(MakeUmaMatcher());
                    set.push_back(MakeUemaMatcher());
                    Add<Ar1SmootherMatcher>(set);
                    Add<DtwMatcher>(set);
                    return set;
                  });
}

/// SweepTau on a fresh matcher from `make` at 1, 2 and 8 threads: bitwise
/// equal f1s and best τ.
void ExpectSweepParity(const ts::Dataset& exact, const ErrorSpec& spec,
                       RunOptions options,
                       const std::function<std::unique_ptr<Matcher>()>& make,
                       const std::vector<double>& grid) {
  TauSweepResult want;
  for (std::size_t threads : {1u, 2u, 8u}) {
    options.threads = threads;
    const std::unique_ptr<Matcher> matcher = make();
    auto sweep = SweepTau(exact, spec, *matcher, options, grid);
    ASSERT_TRUE(sweep.ok()) << sweep.status();
    const TauSweepResult& got = sweep.ValueOrDie();
    if (threads == 1) {
      want = got;
      EXPECT_GT(std::set<double>(got.f1s.begin(), got.f1s.end()).size(), 1u);
      continue;
    }
    EXPECT_EQ(Bits(got.f1s), Bits(want.f1s)) << "threads=" << threads;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best_tau),
              std::bit_cast<std::uint64_t>(want.best_tau))
        << "threads=" << threads;
  }
}

TEST(RunnerThreadParityTest, SweepTauProudAndWavelet) {
  const ts::Dataset d = SmallDataset();
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.6);
  RunOptions options = QuickOptions();
  options.max_queries = 0;
  ExpectSweepParity(
      d, spec, options, [] { return std::make_unique<ProudMatcher>(0.5); },
      DefaultTauGrid());
  // PROUD told a σ other than the data's.
  RunOptions told = options;
  told.proud_sigma = 0.7;
  ExpectSweepParity(
      d, spec, told, [] { return std::make_unique<ProudMatcher>(0.5); },
      DefaultTauGrid());
  // Told a small σ, so the τ >= 0.5 grid the prune allows discriminates.
  told.proud_sigma = 0.1;
  ExpectSweepParity(
      d, spec, told,
      [] { return std::make_unique<ProudSynopsisMatcherAdapter>(0.8, 8); },
      {0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999});
}

TEST(RunnerThreadParityTest, SweepTauMunichAndMunichDtw) {
  const ts::Dataset d = SmallDataset().Truncated(12, 6).ValueOrDie();
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.5);
  RunOptions options = QuickOptions();
  options.ground_truth_k = 3;
  options.max_queries = 0;
  options.munich_samples_per_point = 4;
  const std::vector<double> grid = {0.05, 0.2, 0.4, 0.6, 0.8, 0.95};
  ExpectSweepParity(
      d, spec, options, [] { return std::make_unique<MunichMatcher>(); },
      grid);
  measures::MunichOptions cheap;
  cheap.mc_samples = 200;
  ExpectSweepParity(
      d, spec, options,
      [&] { return std::make_unique<MunichDtwMatcher>(cheap); }, grid);
}

/// Euclidean matcher whose calibration fails from query `fail_from` on,
/// naming itself and the query; records the threads that ran it.
class FailingMatcher final : public Matcher {
 public:
  FailingMatcher(std::string name, std::size_t fail_from)
      : name_(std::move(name)), fail_from_(fail_from) {}

  std::string name() const override { return name_; }
  Status Bind(query::EngineContext& engines) override {
    return inner_.Bind(engines);
  }
  Result<double> CalibrationDistance(std::size_t qi, std::size_t ci) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      threads_.insert(std::this_thread::get_id());
    }
    if (qi >= fail_from_) {
      return Status::NumericError(name_ + " failed at query " +
                                  std::to_string(qi));
    }
    return inner_.CalibrationDistance(qi, ci);
  }
  Result<bool> Matches(std::size_t qi, std::size_t ci,
                       double epsilon) override {
    return inner_.Matches(qi, ci, epsilon);
  }

  std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_;
  }

 private:
  std::string name_;
  std::size_t fail_from_;
  EuclideanMatcher inner_;
  mutable std::mutex mutex_;
  std::set<std::thread::id> threads_;
};

TEST(RunnerThreadParityTest, LowestFailingQueryThenMatcherAtEveryWidth) {
  const ts::Dataset d = SmallDataset();
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.6);
  RunOptions options = QuickOptions();
  options.max_queries = 0;
  struct Case {
    std::size_t a_from, b_from;
    std::string want;
  };
  for (const Case& c : {Case{7, 4, "B failed at query 4"},
                        Case{4, 4, "A failed at query 4"},
                        Case{29, 30, "A failed at query 29"}}) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      options.threads = threads;
      EuclideanMatcher euclid;
      FailingMatcher a("A", c.a_from), b("B", c.b_from);
      Matcher* matchers[] = {&euclid, &a, &b};
      auto run = RunSimilarityMatching(d, spec, matchers, options);
      ASSERT_FALSE(run.ok()) << "threads=" << threads;
      EXPECT_EQ(run.status().code(), StatusCode::kNumericError);
      EXPECT_EQ(run.status().message(), c.want) << "threads=" << threads;
    }
  }
}

TEST(RunnerThreadParityTest, QueriesRunOnThePoolNotTheCaller) {
  const ts::Dataset d = SmallDataset();
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.6);
  RunOptions options = QuickOptions();
  options.max_queries = 0;
  const auto caller = std::this_thread::get_id();
  for (std::size_t threads : {1u, 2u}) {
    options.threads = threads;
    FailingMatcher never("never", d.size());
    Matcher* matchers[] = {&never};
    ASSERT_TRUE(RunSimilarityMatching(d, spec, matchers, options).ok());
    const std::set<std::thread::id> ran_on = never.threads();
    if (threads == 1) {
      EXPECT_EQ(ran_on, std::set<std::thread::id>{caller});
    } else {
      EXPECT_EQ(ran_on.count(caller), 0u);
      EXPECT_LE(ran_on.size(), threads);
    }
  }
}

}  // namespace
}  // namespace uts::core
