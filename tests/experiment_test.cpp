// Integration tests for the evaluation methodology (src/core/experiment,
// src/core/matchers): binding, calibration, tau sweeps, aggregation.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
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
  options.measure_time = false;
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

TEST(SweepTauTest, ScoreOnceEqualsPerTauLoopWhenTheEngineDeclines) {
  // PROUD told σ = 0.7 while the run's σ is 0.6: the shared engine is
  // declined and the matcher decides through the scalar path.
  const ts::Dataset d = SmallDataset();
  const ErrorSpec spec = ErrorSpec::Constant(ErrorKind::kNormal, 0.6);
  query::EngineContextOptions context_options;
  context_options.threads = 2;
  query::EngineContext context(context_options);
  RunOptions options = QuickOptions();
  options.threads = 2;
  options.engine_context = &context;
  ProudMatcher fast(0.5, 0.7), slow(0.5, 0.7);
  ExpectSweepEqualsReference(d, spec, fast, slow, options, DefaultTauGrid());
  EXPECT_GT(context.stats().acquires_declined, 0u);
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
  // One 19-point search binds the data once and builds or reuses the
  // ground-truth engine once, where a run per grid point did each 19 times.
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
  // Calling Bind with an incomplete context fails cleanly.
  EuclideanMatcher euclid;
  EvalContext empty;
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
  EvalContext context;
  context.exact = &d;
  context.pdf = &pdf;
  context.reported_sigma = 0.5;
  context.seed = 3;

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

}  // namespace
}  // namespace uts::core
