// Lifecycle + cross-matcher reuse suite for the run-wide shared engine
// context (src/query/engine_context):
//
//  * resource discipline — a full multi-matcher evaluation packs the pdf
//    dataset into SoA exactly once, sweeps its ground truth once and
//    constructs exactly one thread pool (none at threads == 1), asserted
//    through EngineContext::Stats and the process-wide
//    exec::ThreadPool::TotalCreated() counter;
//  * cross-matcher reuse parity — PROUD, DUST and MUNICH served by one
//    shared engine produce bit-identical sweep / PRQ / k-NN outputs to
//    fresh per-matcher engines, and bit-identical evaluation scores to
//    solo per-matcher runs, at 1, 2 and 8 threads;
//  * the ground-truth memo — rows equal a fresh sweep whatever the request
//    order, k, distance, thread count or storage tier; an equal copy hits,
//    a changed value misses, and eval_paper's call order sweeps only under
//    its first σ;
//  * lazy caches — τ-sweep style rebinds to bit-identical data keep the
//    packed engines; data the engines cannot pack is refused at bind, and
//    what can still fail (no sample model, an unusable spill dir) fails the
//    acquisition instead of falling back;
//  * bind fingerprint — equal content rebinds whatever the model objects,
//    one changed point misses, and the decisions are the same at 1, 2 and
//    8 threads;
//  * the unbound-matcher regression — Retrieve / Matches /
//    CalibrationDistance on a never-bound matcher return a Status instead
//    of dereferencing null state.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/matchers.hpp"
#include "core/metrics.hpp"
#include "distance/dtw.hpp"
#include "distance/lp.hpp"
#include "exec/thread_pool.hpp"
#include "prob/distribution.hpp"
#include "prob/rng.hpp"
#include "query/engine.hpp"
#include "query/engine_context.hpp"
#include "query/uncertain_engine.hpp"
#include "server/frame.hpp"
#include "server/session.hpp"
#include "server/wire.hpp"
#include "uncertain/error_spec.hpp"
#include "uncertain/perturb.hpp"

namespace uts::query {
namespace {

using prob::ErrorKind;

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

ts::Dataset MakeExact(std::size_t n, std::size_t len, std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("ctx-exact");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = rng.Gaussian();
    d.Add(ts::TimeSeries(std::move(values), static_cast<int>(i % 2)));
  }
  return d.ZNormalizedCopy();
}

core::RunOptions QuickRunOptions(std::size_t threads) {
  core::RunOptions options;
  options.ground_truth_k = 4;
  options.max_queries = 6;
  options.seed = 77;
  options.threads = threads;
  options.munich_samples_per_point = 3;
  return options;
}

/// The paper's uncertain trio with a cheap MUNICH estimator.
struct Trio {
  core::ProudMatcher proud{0.5};
  core::DustMatcher dust;
  core::MunichMatcher munich;

  Trio() : munich(MakeMunichOptions()) {}

  static measures::MunichOptions MakeMunichOptions() {
    measures::MunichOptions options;
    options.mc_samples = 300;
    return options;
  }

  std::vector<core::Matcher*> All() { return {&proud, &dust, &munich}; }
};

// --- Resource discipline -----------------------------------------------------

TEST(EngineContextTest, OnePoolOnePackPerMultiMatcherEvaluation) {
  const ts::Dataset exact = MakeExact(24, 8, 5);
  const auto spec = uncertain::ErrorSpec::Constant(ErrorKind::kNormal, 0.5);

  EngineContextOptions context_options;
  context_options.threads = 8;
  EngineContext engines(context_options);

  Trio trio;
  auto matchers = trio.All();
  core::RunOptions options = QuickRunOptions(8);
  options.engine_context = &engines;

  const std::size_t pools_before = exec::ThreadPool::TotalCreated();
  auto run = core::RunSimilarityMatching(exact, spec, matchers, options);
  ASSERT_TRUE(run.ok()) << run.status();
  const std::size_t pools_after = exec::ThreadPool::TotalCreated();

  // One pool for the whole evaluation — ground truth, calibration and all
  // three matchers' sweeps — and one SoA pack per dataset.
  EXPECT_EQ(pools_after - pools_before, 1u);
  EXPECT_EQ(engines.stats().pools_created, 1u);
  EXPECT_EQ(engines.stats().pdf_packs, 1u);
  EXPECT_EQ(engines.stats().certain_packs, 1u);
  EXPECT_EQ(engines.stats().data_binds, 1u);
  EXPECT_EQ(engines.stats().sample_attaches, 1u);
  EXPECT_EQ(engines.stats().acquires_served, 3u);
  EXPECT_EQ(engines.stats().acquires_declined, 0u);
}

TEST(EngineContextTest, SequentialEvaluationCreatesNoPool) {
  const ts::Dataset exact = MakeExact(20, 6, 6);
  const auto spec = uncertain::ErrorSpec::Constant(ErrorKind::kNormal, 0.4);

  EngineContext engines;  // threads = 1
  Trio trio;
  auto matchers = trio.All();
  core::RunOptions options = QuickRunOptions(1);
  options.engine_context = &engines;

  const std::size_t pools_before = exec::ThreadPool::TotalCreated();
  auto run = core::RunSimilarityMatching(exact, spec, matchers, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(exec::ThreadPool::TotalCreated() - pools_before, 0u);
  EXPECT_EQ(engines.stats().pools_created, 0u);
  EXPECT_EQ(engines.stats().pdf_packs, 1u);
}

TEST(EngineContextTest, TauSweepRebindKeepsEnginesAndCaches) {
  const ts::Dataset exact = MakeExact(24, 8, 7);
  const auto spec = uncertain::ErrorSpec::Constant(ErrorKind::kUniform, 0.5);

  EngineContextOptions context_options;
  context_options.threads = 2;
  EngineContext engines(context_options);

  Trio trio;
  auto matchers = trio.All();
  core::RunOptions options = QuickRunOptions(2);
  options.engine_context = &engines;

  // Runs at several τ re-run the whole evaluation: same seed, same spec —
  // bit-identical perturbed data every time.
  for (double tau : {0.3, 0.5, 0.8}) {
    trio.proud.set_tau(tau);
    trio.munich.set_tau(tau);
    auto run = core::RunSimilarityMatching(exact, spec, matchers, options);
    ASSERT_TRUE(run.ok()) << run.status();
  }

  EXPECT_EQ(engines.stats().pdf_packs, 1u);
  EXPECT_EQ(engines.stats().certain_packs, 1u);
  EXPECT_EQ(engines.stats().pools_created, 1u);
  EXPECT_EQ(engines.stats().data_binds, 1u);
  EXPECT_EQ(engines.stats().data_rebind_hits, 2u);
  EXPECT_EQ(engines.stats().certain_reuses, 2u);
  EXPECT_EQ(engines.stats().sample_attaches, 1u);
  // The uniform-error DUST tables were numerically integrated exactly once.
  EXPECT_EQ(engines.stats().dust_table_builds, 1u);

  // Different data (new seed) repacks — but the DUST table cache persists
  // (tables depend on the error models, not the observations).
  options.seed = 1234;
  auto run = core::RunSimilarityMatching(exact, spec, matchers, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(engines.stats().data_binds, 2u);
  EXPECT_EQ(engines.stats().pdf_packs, 2u);
  EXPECT_EQ(engines.stats().dust_table_builds, 1u);
}

// --- Ground-truth memo -------------------------------------------------------

/// One fresh Euclidean sweep of queries [0, num_queries) on a new engine,
/// flattened like GroundTruth's rows.
std::vector<Neighbor> FreshSweep(const ts::Dataset& exact, std::size_t k,
                                 std::size_t num_queries) {
  EngineOptions options;
  options.threads = 1;
  const auto lists = DistanceMatrixEngine::Create(exact, options)
                         .ValueOrDie()
                         .AllKNearestEuclidean(k, num_queries)
                         .ValueOrDie();
  std::vector<Neighbor> rows;
  for (const auto& list : lists) {
    rows.insert(rows.end(), list.begin(), list.end());
  }
  return rows;
}

/// The sequential exact-DTW k-NN of queries [0, num_queries), flattened.
std::vector<Neighbor> FreshDtwSweep(const ts::Dataset& exact, std::size_t k,
                                    std::size_t num_queries,
                                    std::size_t band) {
  distance::DtwOptions dtw;
  dtw.band_radius = band;
  std::vector<Neighbor> rows;
  for (std::size_t q = 0; q < num_queries; ++q) {
    const auto list = KNearest(exact.size(), q, k, [&](std::size_t i) {
      return distance::Dtw(exact[q].values(), exact[i].values(), dtw);
    });
    rows.insert(rows.end(), list.begin(), list.end());
  }
  return rows;
}

void ExpectRowsBitwise(const std::vector<Neighbor>& got,
                       const std::vector<Neighbor>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << what << " slot " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].distance),
              std::bit_cast<std::uint64_t>(want[i].distance))
        << what << " slot " << i;
  }
}

TEST(EngineContextTest, GroundTruthRowsEqualAFreshSweepInAnyRequestOrder) {
  // 130 series of length 24: 130 % 4 != 0 and an odd request leave
  // queries outside a full multi-query block, whose pairs must still run
  // the blocks' accumulation chain; a full request takes the symmetric
  // matrix path, a shorter one the streaming path. Paged stores cut the
  // rows into blocks of 8.
  constexpr std::size_t kRows = 130, kLength = 24, kBand = 3;
  const ts::Dataset exact = MakeExact(kRows, kLength, 21);
  const std::vector<std::vector<std::size_t>> orders = {
      {64, 128}, {128, 64}, {5, kRows}, {kRows, 5}};
  for (std::size_t threads : kThreadCounts) {
    for (bool paged : {false, true}) {
      for (const auto& order : orders) {
        EngineContextOptions context_options;
        context_options.threads = threads;
        if (paged) {
          context_options.block_rows = 8;
          context_options.memory_budget_bytes =
              3 * 8 * kLength * sizeof(double);
        }
        EngineContext engines(context_options);
        const std::string what = "threads=" + std::to_string(threads) +
                                 (paged ? " paged" : " resident") + " order " +
                                 std::to_string(order[0]) + "->" +
                                 std::to_string(order[1]);
        // k 3 then 5: one memo entry per k, each extended or served whole.
        for (std::size_t k : {std::size_t{3}, std::size_t{5}}) {
          for (std::size_t num_queries : order) {
            ExpectRowsBitwise(
                engines.GroundTruth(exact, k, num_queries).ValueOrDie(),
                FreshSweep(exact, k, num_queries),
                what + " k=" + std::to_string(k) +
                    " queries=" + std::to_string(num_queries));
          }
        }
        for (std::size_t num_queries : order) {
          ExpectRowsBitwise(
              engines.GroundTruth(exact, 4, num_queries, kBand).ValueOrDie(),
              FreshDtwSweep(exact, 4, num_queries, kBand),
              what + " dtw queries=" + std::to_string(num_queries));
        }
        // A longer request sweeps (and packs); a shorter one is a copy.
        const bool grows = order[1] > order[0];
        EXPECT_EQ(engines.stats().certain_packs, grows ? 6u : 3u) << what;
        EXPECT_EQ(engines.stats().certain_reuses, grows ? 0u : 3u) << what;
        EXPECT_EQ(engines.stats().buffer_pools_created, paged ? 1u : 0u)
            << what;
      }
    }
  }
}

TEST(EngineContextTest, EvalPaperCallOrderPacksOnlyUnderTheFirstSigma) {
  // The eval_paper pass: per σ, PROUD's τ is searched on the first two
  // datasets at half the queries, then the trio's final runs cover all four.
  // Every σ shares one ground truth per dataset, so only the first σ sweeps.
  std::vector<ts::Dataset> datasets;
  for (std::uint64_t d = 0; d < 4; ++d) {
    datasets.push_back(MakeExact(40, 16, 60 + d));
  }
  EngineContextOptions context_options;
  context_options.threads = 2;
  EngineContext engines(context_options);
  core::RunOptions final_options;
  final_options.ground_truth_k = 5;
  final_options.max_queries = 16;
  final_options.threads = 2;
  final_options.engine_context = &engines;
  core::RunOptions tune_options = final_options;
  tune_options.max_queries = 8;
  const std::vector<double> grid = {0.1, 0.5, 0.9};

  const double sigmas[] = {0.4, 1.0, 1.6};
  for (std::size_t s = 0; s < std::size(sigmas); ++s) {
    const auto spec =
        uncertain::ErrorSpec::Constant(ErrorKind::kNormal, sigmas[s]);
    core::EuclideanMatcher euclid;
    core::ProudMatcher proud(0.5);
    for (std::size_t d = 0; d < 2; ++d) {
      ASSERT_TRUE(
          core::SweepTau(datasets[d], spec, proud, tune_options, grid).ok());
    }
    core::Matcher* const matchers[] = {&euclid, &proud};
    for (const ts::Dataset& exact : datasets) {
      ASSERT_TRUE(
          core::RunSimilarityMatching(exact, spec, matchers, final_options)
              .ok());
    }
    // The first σ sweeps 8 rows of datasets 0-1, extends them to 16, then
    // sweeps 16 rows of datasets 2-3; every later request is a copy.
    EXPECT_EQ(engines.stats().certain_packs, 6u) << "sigma=" << sigmas[s];
    EXPECT_EQ(engines.stats().certain_reuses, 6 * s) << "sigma=" << sigmas[s];
  }
}

TEST(EngineContextTest, GroundTruthIsKeyedByContentNotAddress) {
  // The memo's key is the content: an equal dataset at another address is
  // served from it after the copy it was swept from is gone, and one
  // changed value misses.
  const ts::Dataset exact = MakeExact(24, 8, 9);
  EngineContextOptions context_options;
  context_options.threads = 2;
  EngineContext engines(context_options);

  auto copy = std::make_unique<ts::Dataset>(exact);
  const auto want = engines.GroundTruth(*copy, 5, 24).ValueOrDie();
  copy.reset();

  ExpectRowsBitwise(engines.GroundTruth(exact, 5, 24).ValueOrDie(), want,
                    "equal copy");
  EXPECT_EQ(engines.stats().certain_packs, 1u);
  EXPECT_EQ(engines.stats().certain_reuses, 1u);
  ExpectRowsBitwise(want, FreshSweep(exact, 5, 24), "fresh sweep");

  ts::Dataset changed = exact;
  double& value = changed[3].mutable_values()[2];
  value = std::nextafter(value, 10.0);
  ExpectRowsBitwise(engines.GroundTruth(changed, 5, 24).ValueOrDie(),
                    FreshSweep(changed, 5, 24), "changed value");
  EXPECT_EQ(engines.stats().certain_packs, 2u);
  EXPECT_EQ(engines.stats().certain_reuses, 1u);
}

TEST(EngineContextTest, GroundTruthRefusesWhatNoSweepCanAnswer) {
  ts::Dataset ragged("ragged");
  ragged.Add(ts::TimeSeries({1.0, 2.0, 3.0}));
  ragged.Add(ts::TimeSeries({1.0, 2.0}));
  ragged.Add(ts::TimeSeries({0.0, 0.0, 0.0}));
  ts::Dataset empty_series("empty-series");
  for (int i = 0; i < 3; ++i) {
    empty_series.Add(ts::TimeSeries(std::vector<double>{}));
  }
  const ts::Dataset exact = MakeExact(12, 8, 3);
  EngineContext engines;
  for (const ts::Dataset* d : {&ragged, &empty_series}) {
    EXPECT_EQ(engines.GroundTruth(*d, 1, 3).status().code(),
              StatusCode::kInvalidArgument)
        << d->name();
  }
  EXPECT_EQ(engines.GroundTruth(ts::Dataset("empty"), 1, 1).status().code(),
            StatusCode::kInvalidArgument);
  for (const auto& [k, num_queries] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 4}, {12, 4}, {3, 0}, {3, 13}}) {
    EXPECT_EQ(engines.GroundTruth(exact, k, num_queries).status().code(),
              StatusCode::kInvalidArgument)
        << "k=" << k << " num_queries=" << num_queries;
  }
  EXPECT_EQ(engines.stats().certain_packs, 0u);
  EXPECT_EQ(engines.stats().certain_reuses, 0u);
  EXPECT_EQ(engines.GroundTruth(exact, 11, 12).ValueOrDie().size(), 132u);
}

// --- Cross-matcher reuse parity ----------------------------------------------

TEST(EngineContextTest, SharedContextMatchesSoloRunsBitwiseAtEveryThreads) {
  const ts::Dataset exact = MakeExact(24, 8, 9);
  const auto spec = uncertain::ErrorSpec::Constant(ErrorKind::kNormal, 0.6);

  // Reference: each matcher evaluated alone, sequentially, with a private
  // per-run context (the fresh-engine-per-matcher baseline).
  auto solo = [&](core::Matcher& matcher) {
    core::Matcher* matchers[] = {&matcher};
    auto run = core::RunSimilarityMatching(exact, spec, matchers,
                                           QuickRunOptions(1));
    EXPECT_TRUE(run.ok()) << run.status();
    return std::move(run).ValueOrDie().front();
  };
  Trio reference_trio;
  const core::MatcherResult want_proud = solo(reference_trio.proud);
  const core::MatcherResult want_dust = solo(reference_trio.dust);
  const core::MatcherResult want_munich = solo(reference_trio.munich);
  const core::MatcherResult* want[] = {&want_proud, &want_dust, &want_munich};

  for (std::size_t threads : kThreadCounts) {
    EngineContextOptions context_options;
    context_options.threads = threads;
    EngineContext engines(context_options);

    Trio trio;
    auto matchers = trio.All();
    core::RunOptions options = QuickRunOptions(threads);
    options.engine_context = &engines;
    auto run = core::RunSimilarityMatching(exact, spec, matchers, options);
    ASSERT_TRUE(run.ok()) << run.status();
    const auto& got = run.ValueOrDie();
    ASSERT_EQ(got.size(), 3u);
    for (std::size_t m = 0; m < got.size(); ++m) {
      EXPECT_EQ(got[m].per_query_f1, want[m]->per_query_f1)
          << got[m].name << " threads=" << threads;
      EXPECT_EQ(got[m].per_query_precision, want[m]->per_query_precision)
          << got[m].name << " threads=" << threads;
      EXPECT_EQ(got[m].per_query_recall, want[m]->per_query_recall)
          << got[m].name << " threads=" << threads;
    }
    // All three matchers were served by the one shared engine.
    EXPECT_EQ(engines.stats().pdf_packs, 1u);
    EXPECT_EQ(engines.stats().acquires_served, 3u);
  }
}

TEST(EngineContextTest, SharedEngineQueriesMatchFreshEnginesBitwise) {
  // Engine-level acceptance: sweep, PRQ and k-NN outputs of the one shared
  // engine serving PROUD, then DUST, then MUNICH are bit-identical to
  // fresh per-measure engines, at 1, 2 and 8 threads. Mixed normal/uniform
  // errors exercise the table-lookup DUST path.
  const ts::Dataset exact = MakeExact(20, 6, 11);
  const auto spec = uncertain::ErrorSpec::Constant(ErrorKind::kUniform, 0.5);
  const std::uint64_t seed = 99;
  const double proud_sigma = 0.5;
  uncertain::UncertainDataset pdf =
      uncertain::PerturbDataset(exact, spec, seed);
  uncertain::MultiSampleDataset samples = uncertain::PerturbDatasetMultiSample(
      exact, spec, 3, prob::DeriveSeed(seed, 0xface));
  const double epsilon = 2.0;
  const double tau = 0.5;

  for (std::size_t threads : kThreadCounts) {
    // Fresh per-measure engines (the pre-context binding pattern).
    UncertainEngineOptions fresh_options;
    fresh_options.threads = threads;
    fresh_options.seed = seed;
    fresh_options.proud_sigma = proud_sigma;
    measures::Dust fresh_dust_cache;
    auto fresh_dust = UncertainEngine::Create(pdf, fresh_options);
    ASSERT_TRUE(fresh_dust.ok());
    ASSERT_TRUE(
        fresh_dust.ValueOrDie()->BuildDustTables(fresh_dust_cache).ok());
    auto fresh_proud = UncertainEngine::Create(pdf, fresh_options);
    ASSERT_TRUE(fresh_proud.ok());
    auto fresh_munich = UncertainEngine::Create(pdf, fresh_options);
    ASSERT_TRUE(fresh_munich.ok());
    ASSERT_TRUE(fresh_munich.ValueOrDie()->AttachSamples(samples).ok());

    // The shared engine, acquired PROUD → DUST → MUNICH.
    EngineContextOptions context_options;
    context_options.threads = threads;
    EngineContext engines(context_options);
    ASSERT_TRUE(engines.BindData(pdf, samples, seed, proud_sigma).ok());
    UncertainEngine* shared = engines.Acquire(Measure::kEuclidean).ValueOrDie();
    ASSERT_EQ(engines.Acquire(Measure::kDust).ValueOrDie(), shared);
    ASSERT_EQ(engines.Acquire(Measure::kMunich).ValueOrDie(), shared);
    EXPECT_EQ(engines.stats().pdf_packs, 1u);
    const measures::MunichOptions munich = Trio::MakeMunichOptions();

    // DUST: dense sweep + RQ + k-NN; PROUD and MUNICH: dense sweep + PRQ
    // (counter-based pair seeds make the Monte Carlo streams identical).
    const struct {
      Measure measure;
      const UncertainEngine* fresh;
      std::vector<QueryKind> kinds;
    } cases[] = {
        {Measure::kDust, fresh_dust.ValueOrDie().get(),
         {QueryKind::kSweep, QueryKind::kRange, QueryKind::kKnn}},
        {Measure::kProud, fresh_proud.ValueOrDie().get(),
         {QueryKind::kSweep, QueryKind::kPrq}},
        {Measure::kMunich, fresh_munich.ValueOrDie().get(),
         {QueryKind::kSweep, QueryKind::kPrq}},
    };
    for (std::size_t q : {std::size_t{0}, std::size_t{7}}) {
      for (const auto& c : cases) {
        for (QueryKind kind : c.kinds) {
          const Query query{.measure = c.measure,
                            .kind = kind,
                            .query = q,
                            .k = 5,
                            .epsilon = epsilon,
                            .taus = {tau},
                            .munich = munich};
          const auto want = c.fresh->Answer(query);
          const auto got = shared->Answer(query);
          ASSERT_TRUE(want.ok() && got.ok());
          EXPECT_EQ(got.ValueOrDie().scores, want.ValueOrDie().scores);
          EXPECT_EQ(got.ValueOrDie().matches, want.ValueOrDie().matches);
          const auto& got_knn = got.ValueOrDie().neighbors;
          const auto& want_knn = want.ValueOrDie().neighbors;
          ASSERT_EQ(got_knn.size(), want_knn.size());
          for (std::size_t i = 0; i < got_knn.size(); ++i) {
            EXPECT_EQ(got_knn[i].index, want_knn[i].index);
            EXPECT_EQ(got_knn[i].distance, want_knn[i].distance);
          }
        }
      }
    }
  }
}

// --- Refusals ----------------------------------------------------------------

TEST(EngineContextTest, RaggedOrEmptySeriesDataIsRefusedAtBind) {
  // The engines pack one row length: data they cannot pack is refused where
  // it enters the context, and an unbound context serves no acquisition.
  auto err = prob::MakeNormalError(0.5);
  auto series = [&err](std::size_t length) {
    return uncertain::UncertainSeries(
        std::vector<double>(length, 1.0),
        std::vector<prob::ErrorDistributionPtr>(length, err));
  };
  uncertain::UncertainDataset ragged, empty_series, empty;
  ragged.series = {series(2), series(1)};
  empty_series.series = {series(0), series(0)};

  EngineContext engines;
  for (const auto* pdf : {&ragged, &empty_series, &empty}) {
    EXPECT_EQ(engines.BindData(*pdf, std::nullopt, 1, 1.0).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(engines.AddResident("r", *pdf, std::nullopt, 1, 1.0).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(engines.HasResident("r"));
  EXPECT_EQ(engines.pdf(), nullptr);
  EXPECT_EQ(engines.Acquire(Measure::kEuclidean).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engines.Acquire(Measure::kDust).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engines.Acquire(Measure::kMunich).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engines.stats().acquires_declined, 3u);
  EXPECT_EQ(engines.stats().pdf_packs, 0u);
}

TEST(EngineContextTest, MunichWithoutASampleModelIsNotSupported) {
  const ts::Dataset exact = MakeExact(12, 5, 13);
  const auto spec = uncertain::ErrorSpec::Constant(ErrorKind::kNormal, 0.5);
  EngineContext engines;
  ASSERT_TRUE(engines
                  .BindData(uncertain::PerturbDataset(exact, spec, 3),
                            std::nullopt, 3, 0.5)
                  .ok());
  EXPECT_EQ(engines.Acquire(Measure::kMunich).status().code(),
            StatusCode::kNotSupported);
  core::MunichMatcher munich;
  EXPECT_EQ(munich.Bind(engines).code(), StatusCode::kNotSupported);
  EXPECT_EQ(munich.Retrieve(0, 12, 1.0).status().code(),
            StatusCode::kInvalidArgument);  // left unbound
  // The other measures are served from the same engine.
  EXPECT_TRUE(engines.Acquire(Measure::kDust).ok());
  EXPECT_EQ(engines.stats().acquires_declined, 2u);
  EXPECT_EQ(engines.stats().acquires_served, 1u);
}

// --- Unbound matcher regression ---------------------------------------------

TEST(EngineContextTest, UnboundMatcherQueriesReturnStatusNotUb) {
  // Regression: Retrieve (and the query methods it delegates to) on a
  // never-bound matcher used to dereference null engine/context state.
  core::ProudMatcher proud;
  core::DustMatcher dust;
  core::MunichMatcher munich;
  core::EuclideanMatcher euclid;
  core::Matcher* unbound[] = {&proud, &dust, &munich, &euclid};
  for (core::Matcher* matcher : unbound) {
    EXPECT_FALSE(matcher->Retrieve(0, 4, 1.0).ok()) << matcher->name();
    EXPECT_FALSE(matcher->Matches(0, 1, 1.0).ok()) << matcher->name();
    EXPECT_FALSE(matcher->CalibrationDistance(0, 1).ok()) << matcher->name();
  }
}

TEST(EngineContextTest, ResidencyTableActivatesAndQueriesMultipleDatasets) {
  const ts::Dataset exact_a = MakeExact(10, 8, 21);
  const ts::Dataset exact_b = MakeExact(6, 12, 22);
  const auto spec = uncertain::ErrorSpec::Constant(ErrorKind::kNormal, 0.4);

  EngineContext engines{EngineContextOptions{}};
  EXPECT_FALSE(engines.HasResident("a"));
  EXPECT_EQ(engines.active_resident(), nullptr);
  ASSERT_TRUE(engines
                  .AddResident("a", uncertain::PerturbDataset(exact_a, spec, 1),
                               std::nullopt, 1, 0.4)
                  .ok());
  ASSERT_TRUE(engines
                  .AddResident("b", uncertain::PerturbDataset(exact_b, spec, 2),
                               std::nullopt, 2, 0.4)
                  .ok());
  EXPECT_TRUE(engines.HasResident("a"));
  EXPECT_EQ(engines.ResidentNames(),
            (std::vector<std::string>{"a", "b"}));

  // Activation routes residents through BindData; each serves queries on
  // its own data (sweep lengths prove which dataset is live).
  ASSERT_TRUE(engines.ActivateResident("a").ok());
  ASSERT_NE(engines.active_resident(), nullptr);
  EXPECT_EQ(*engines.active_resident(), "a");
  const Query sweep{.measure = Measure::kDust, .kind = QueryKind::kSweep};
  UncertainEngine* dust_a = engines.Acquire(Measure::kDust).ValueOrDie();
  EXPECT_EQ(dust_a->Answer(sweep).ValueOrDie().scores.size(), 10u);

  ASSERT_TRUE(engines.ActivateResident("b").ok());
  UncertainEngine* dust_b = engines.Acquire(Measure::kDust).ValueOrDie();
  EXPECT_EQ(dust_b->Answer(sweep).ValueOrDie().scores.size(), 6u);

  // Re-activating the already-active resident is dedup'd by the content
  // fingerprint: no repack.
  const std::size_t packs_before = engines.stats().pdf_packs;
  ASSERT_TRUE(engines.ActivateResident("b").ok());
  EXPECT_EQ(engines.stats().pdf_packs, packs_before);
  EXPECT_EQ(engines.stats().resident_adds, 2u);
  EXPECT_GE(engines.stats().resident_activations, 3u);

  // Unknown names fail; dropping clears the active label.
  EXPECT_FALSE(engines.ActivateResident("zzz").ok());
  EXPECT_FALSE(engines.DropResident("zzz").ok());
  ASSERT_TRUE(engines.DropResident("b").ok());
  EXPECT_EQ(engines.active_resident(), nullptr);
  EXPECT_FALSE(engines.HasResident("b"));
  EXPECT_TRUE(engines.HasResident("a"));
}

TEST(EngineContextTest, ResidentActivationMatchesDirectBindBitwise) {
  // Queries served through the residency table are bit-identical to binding
  // the same pdf dataset directly — residency adds routing, never values.
  const ts::Dataset exact = MakeExact(12, 10, 5);
  const auto spec = uncertain::ErrorSpec::Constant(ErrorKind::kNormal, 0.5);
  uncertain::UncertainDataset pdf = uncertain::PerturbDataset(exact, spec, 9);

  EngineContext direct{EngineContextOptions{}};
  ASSERT_TRUE(direct.BindData(pdf, std::nullopt, 9, 0.5).ok());
  UncertainEngine* want = direct.Acquire(Measure::kDust).ValueOrDie();

  EngineContext resident{EngineContextOptions{}};
  ASSERT_TRUE(resident.AddResident("r", pdf, std::nullopt, 9, 0.5).ok());
  ASSERT_TRUE(resident.ActivateResident("r").ok());
  UncertainEngine* got = resident.Acquire(Measure::kDust).ValueOrDie();

  for (std::size_t q = 0; q < 3; ++q) {
    const Query sweep{
        .measure = Measure::kDust, .kind = QueryKind::kSweep, .query = q};
    const auto a = want->Answer(sweep);
    const auto b = got->Answer(sweep);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.ValueOrDie().scores, b.ValueOrDie().scores) << "query " << q;
  }
}

TEST(EngineContextTest, DropActiveResidentClearsLabelButKeepsEnginesUsable) {
  // Dropping the resident that is currently bound removes the name from the
  // table and clears the active label — but the binding owns copies, so
  // engines acquired before the drop keep answering, bitwise unchanged.
  const ts::Dataset exact = MakeExact(10, 8, 31);
  const auto spec = uncertain::ErrorSpec::Constant(ErrorKind::kNormal, 0.4);

  EngineContext engines{EngineContextOptions{}};
  ASSERT_TRUE(engines
                  .AddResident("live", uncertain::PerturbDataset(exact, spec, 1),
                               std::nullopt, 1, 0.4)
                  .ok());
  ASSERT_TRUE(engines.ActivateResident("live").ok());
  UncertainEngine* dust = engines.Acquire(Measure::kDust).ValueOrDie();
  const Query sweep{.measure = Measure::kDust, .kind = QueryKind::kSweep};
  const auto before = dust->Answer(sweep);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(engines.DropResident("live").ok());
  EXPECT_EQ(engines.active_resident(), nullptr);
  EXPECT_FALSE(engines.HasResident("live"));

  // The bound engine outlives the table entry: same pointer, same answers.
  EXPECT_EQ(engines.Acquire(Measure::kDust).ValueOrDie(), dust);
  const auto after = dust->Answer(sweep);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().scores, before.ValueOrDie().scores);
}

TEST(EngineContextTest, ReAddSameNameRebindsOnIdenticalDataRebuildsOnNew) {
  // Re-AddResident under an existing name replaces the stored entry.
  // Activation then goes through BindData's content fingerprint: identical
  // bytes keep the pack and engines (a rebind hit), different bytes repack.
  const ts::Dataset exact = MakeExact(12, 6, 33);
  const auto spec = uncertain::ErrorSpec::Constant(ErrorKind::kNormal, 0.5);

  EngineContext engines{EngineContextOptions{}};
  ASSERT_TRUE(engines
                  .AddResident("r", uncertain::PerturbDataset(exact, spec, 5),
                               std::nullopt, 5, 0.5)
                  .ok());
  ASSERT_TRUE(engines.ActivateResident("r").ok());
  ASSERT_TRUE(engines.Acquire(Measure::kDust).ok());
  EXPECT_EQ(engines.stats().data_binds, 1u);
  EXPECT_EQ(engines.stats().pdf_packs, 1u);

  // Same name, bit-identical data (same exact dataset, spec and seed):
  // rebind, not rebuild.
  ASSERT_TRUE(engines
                  .AddResident("r", uncertain::PerturbDataset(exact, spec, 5),
                               std::nullopt, 5, 0.5)
                  .ok());
  ASSERT_TRUE(engines.ActivateResident("r").ok());
  EXPECT_EQ(engines.stats().data_binds, 1u);
  EXPECT_EQ(engines.stats().data_rebind_hits, 1u);
  EXPECT_EQ(engines.stats().pdf_packs, 1u);

  // Same name, different perturbation seed: the fingerprint differs, so the
  // activation replaces the binding and packs the new data.
  ASSERT_TRUE(engines
                  .AddResident("r", uncertain::PerturbDataset(exact, spec, 6),
                               std::nullopt, 6, 0.5)
                  .ok());
  ASSERT_TRUE(engines.ActivateResident("r").ok());
  ASSERT_TRUE(engines.Acquire(Measure::kDust).ok());
  EXPECT_EQ(engines.stats().data_binds, 2u);
  EXPECT_EQ(engines.stats().data_rebind_hits, 1u);
  EXPECT_EQ(engines.stats().pdf_packs, 2u);
  EXPECT_EQ(engines.stats().resident_adds, 3u);
  EXPECT_EQ(engines.stats().resident_activations, 3u);
}

// --- Bind fingerprint --------------------------------------------------------

/// `exact` as a pdf dataset with normal(σ) error at every point: one model
/// object shared by every point of every series when `shared_model`, one
/// object per series otherwise. The two fingerprint equally.
uncertain::UncertainDataset NormalPdf(const ts::Dataset& exact, double sigma,
                                      bool shared_model) {
  uncertain::UncertainDataset pdf;
  pdf.name = exact.name();
  const prob::ErrorDistributionPtr shared = prob::MakeNormalError(sigma);
  for (const auto& series : exact) {
    const auto values = series.values();
    const prob::ErrorDistributionPtr model =
        shared_model ? shared : prob::MakeNormalError(sigma);
    pdf.series.emplace_back(
        std::vector<double>(values.begin(), values.end()),
        std::vector<prob::ErrorDistributionPtr>(values.size(), model),
        series.label());
  }
  return pdf;
}

/// `pdf` with point t of series s replaced by (value, model).
uncertain::UncertainDataset WithPoint(uncertain::UncertainDataset pdf,
                                      std::size_t s, std::size_t t,
                                      double value,
                                      prob::ErrorDistributionPtr model) {
  const uncertain::UncertainSeries& old = pdf.series[s];
  std::vector<double> observations = old.observations();
  std::vector<prob::ErrorDistributionPtr> errors;
  for (std::size_t i = 0; i < old.size(); ++i) errors.push_back(old.error(i));
  observations[t] = value;
  errors[t] = std::move(model);
  pdf.series[s] = uncertain::UncertainSeries(
      std::move(observations), std::move(errors), old.label(), old.id());
  return pdf;
}

TEST(EngineContextTest, EqualContentRebindsWhateverTheModelObjects) {
  // 40 series: several fingerprint chunks, the last one short.
  const ts::Dataset exact = MakeExact(40, 8, 21);
  EngineContext engines{EngineContextOptions{}};
  ASSERT_TRUE(
      engines.BindData(NormalPdf(exact, 0.5, true), std::nullopt, 3, 0.5)
          .ok());
  ASSERT_TRUE(engines.Acquire(Measure::kEuclidean).ok());
  ASSERT_EQ(engines.stats().pdf_packs, 1u);

  // Same observations and models by Key(), one model object per series.
  ASSERT_TRUE(
      engines.BindData(NormalPdf(exact, 0.5, false), std::nullopt, 3, 0.5)
          .ok());
  EXPECT_EQ(engines.stats().data_rebind_hits, 1u);
  EXPECT_EQ(engines.stats().data_binds, 1u);
  ASSERT_TRUE(engines.Acquire(Measure::kEuclidean).ok());
  EXPECT_EQ(engines.stats().pdf_packs, 1u);
}

TEST(EngineContextTest, OneChangedObservationOrModelInAMiddleSeriesMisses) {
  const ts::Dataset exact = MakeExact(40, 8, 21);
  const uncertain::UncertainDataset base = NormalPdf(exact, 0.5, true);
  const double value = base[20].observation(3);
  const prob::ErrorDistributionPtr model = base[20].error(3);
  EngineContext engines{EngineContextOptions{}};
  ASSERT_TRUE(engines.BindData(base, std::nullopt, 3, 0.5).ok());

  const uncertain::UncertainDataset changed[] = {
      WithPoint(base, 20, 3, std::nextafter(value, 1e9), model),
      WithPoint(base, 20, 3, value, prob::MakeNormalError(0.6)),
      WithPoint(base, 20, 3, value, prob::MakeUniformError(0.5)),
  };
  std::size_t binds = 1;
  for (const auto& pdf : changed) {
    ASSERT_TRUE(engines.BindData(pdf, std::nullopt, 3, 0.5).ok());
    EXPECT_EQ(engines.stats().data_binds, ++binds);
    // And back: the base content differs from what is bound now.
    ASSERT_TRUE(engines.BindData(base, std::nullopt, 3, 0.5).ok());
    EXPECT_EQ(engines.stats().data_binds, ++binds);
  }
  EXPECT_EQ(engines.stats().data_rebind_hits, 0u);
}

TEST(EngineContextTest, BindDecisionsAreTheSameAtEveryThreadCount) {
  const ts::Dataset exact = MakeExact(40, 8, 21);
  const auto spec = uncertain::ErrorSpec::MixedSigma(ErrorKind::kNormal);
  const uncertain::UncertainDataset shared = NormalPdf(exact, 0.5, true);
  const uncertain::UncertainDataset changed =
      WithPoint(shared, 20, 3, 0.25, shared[20].error(3));
  struct Bind {
    uncertain::UncertainDataset pdf;
    std::optional<uncertain::MultiSampleDataset> samples;
    std::uint64_t seed;
    double proud_sigma;
  };
  const std::vector<Bind> sequence = {
      {shared, std::nullopt, 3, 0.5},
      {NormalPdf(exact, 0.5, false), std::nullopt, 3, 0.5},  // hit
      {changed, std::nullopt, 3, 0.5},                       // miss
      {changed, std::nullopt, 3, 0.5},                       // hit
      {changed, std::nullopt, 4, 0.5},                       // seed: miss
      {changed, std::nullopt, 4, 0.6},                       // σ: miss
      {uncertain::PerturbDataset(exact, spec, 9), std::nullopt, 9, 0.5},
      {uncertain::PerturbDataset(exact, spec, 9), std::nullopt, 9, 0.5},
      {uncertain::PerturbDataset(exact, spec, 9),
       uncertain::PerturbDatasetMultiSample(exact, spec, 3, 9), 9, 0.5},
      {uncertain::PerturbDataset(exact, spec, 9),
       uncertain::PerturbDatasetMultiSample(exact, spec, 3, 9), 9, 0.5},
      {uncertain::PerturbDataset(exact, spec, 9),
       uncertain::PerturbDatasetMultiSample(exact, spec, 2, 9), 9, 0.5},
  };
  const std::vector<bool> expected_hits = {false, true,  false, true,
                                           false, false, false, true,
                                           false, true,  false};
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EngineContextOptions options;
    options.threads = threads;
    EngineContext engines(options);
    std::vector<bool> hits;
    for (const Bind& bind : sequence) {
      const std::size_t before = engines.stats().data_rebind_hits;
      ASSERT_TRUE(engines
                      .BindData(bind.pdf, bind.samples, bind.seed,
                                bind.proud_sigma)
                      .ok());
      hits.push_back(engines.stats().data_rebind_hits != before);
    }
    EXPECT_EQ(hits, expected_hits);
  }
}

// --- Euclidean on the shared engine -----------------------------------------

/// Random walks: cumulative sums of Gaussian steps.
ts::Dataset RandomWalks(std::size_t n, std::size_t len, std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("ctx-walks");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    double level = 0.0;
    for (double& v : values) v = level += rng.Gaussian();
    d.Add(ts::TimeSeries(std::move(values), static_cast<int>(i % 2)));
  }
  return d;
}

/// Ties everywhere: series on a {0, 1, 2} grid, every third one a copy of
/// its predecessor, and the last four constant (two of them equal).
ts::Dataset TieHeavy(std::size_t n, std::size_t len, std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("ctx-ties");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    if (i + 4 >= n) {
      std::fill(values.begin(), values.end(),
                static_cast<double>(std::min<std::size_t>(i + 4 - n, 2)));
    } else if (i % 3 == 2) {
      const auto previous = d[i - 1].values();
      values.assign(previous.begin(), previous.end());
    } else {
      for (double& v : values) v = static_cast<double>(rng.Next() % 3);
    }
    d.Add(ts::TimeSeries(std::move(values), static_cast<int>(i % 2)));
  }
  return d;
}

constexpr std::size_t kNeighbours = 4;

/// The kNeighbours nearest exact neighbours of `qi`, nearest first, ties by
/// index: the runner's ground truth, whose last entry calibrates ε.
std::vector<std::size_t> ExactNeighbours(const ts::Dataset& exact,
                                         std::size_t qi) {
  std::vector<Neighbor> truth;
  for (std::size_t ci = 0; ci < exact.size(); ++ci) {
    if (ci == qi) continue;
    truth.push_back(
        {ci, distance::Euclidean(exact[qi].values(), exact[ci].values())});
  }
  std::sort(truth.begin(), truth.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.index < b.index;
            });
  truth.resize(kNeighbours);
  std::vector<std::size_t> relevant;
  for (const Neighbor& nb : truth) relevant.push_back(nb.index);
  return relevant;
}

/// Appends the F1, precision and recall bits of `retrieved`.
void AppendScoreBits(const std::vector<std::size_t>& retrieved,
                     const std::vector<std::size_t>& relevant,
                     std::vector<std::uint64_t>& bits) {
  const core::SetMetrics m = core::ComputeSetMetrics(retrieved, relevant);
  for (double v : {m.f1, m.precision, m.recall}) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  }
}

/// Per-query score bits of the scalar reference: ε is distance::Euclidean
/// on the observations to the calibration neighbour, and a candidate
/// matches when its distance is at most ε.
std::vector<std::uint64_t> ReferenceScoreBits(
    const ts::Dataset& exact, const uncertain::UncertainDataset& pdf) {
  auto distance = [&pdf](std::size_t a, std::size_t b) {
    return distance::Euclidean(pdf[a].observations(), pdf[b].observations());
  };
  std::vector<std::uint64_t> bits;
  for (std::size_t qi = 0; qi < exact.size(); ++qi) {
    const std::vector<std::size_t> relevant = ExactNeighbours(exact, qi);
    const double eps = distance(qi, relevant.back());
    std::vector<std::size_t> retrieved;
    for (std::size_t ci = 0; ci < exact.size(); ++ci) {
      if (ci != qi && distance(qi, ci) <= eps) retrieved.push_back(ci);
    }
    AppendScoreBits(retrieved, relevant, bits);
  }
  return bits;
}

/// The same bits from an EuclideanMatcher bound to `pdf` through
/// `engines`, scored like the runner: ε is the calibration distance to the
/// calibration neighbour, then Retrieve. Also checks, per query, that the
/// calibration candidate is retrieved and that Retrieve equals the Matches
/// loop.
std::vector<std::uint64_t> EuclideanScoreBits(
    const ts::Dataset& exact, const uncertain::UncertainDataset& pdf,
    EngineContext& engines) {
  EXPECT_TRUE(engines.BindData(pdf, std::nullopt, 1, 0.5).ok());
  core::EuclideanMatcher matcher;
  EXPECT_TRUE(matcher.Bind(engines).ok());
  const std::size_t n = exact.size();
  std::vector<std::uint64_t> bits;
  for (std::size_t qi = 0; qi < n; ++qi) {
    const std::vector<std::size_t> relevant = ExactNeighbours(exact, qi);
    const std::size_t calibration = relevant.back();
    const double eps = matcher.CalibrationDistance(qi, calibration).ValueOrDie();
    const std::vector<std::size_t> retrieved =
        matcher.Retrieve(qi, n, eps).ValueOrDie();
    EXPECT_TRUE(std::binary_search(retrieved.begin(), retrieved.end(),
                                   calibration))
        << "qi=" << qi;
    EXPECT_EQ(retrieved, matcher.core::Matcher::Retrieve(qi, n, eps)
                             .ValueOrDie())
        << "qi=" << qi;
    AppendScoreBits(retrieved, relevant, bits);
  }
  return bits;
}

TEST(EngineContextTest, EuclideanMatcherScoresEqualOnAndOffTheEngine) {
  // The scalar reference (distance::Euclidean and the ε comparison)
  // against the matcher on the shared engine at 1, 2 and 8 threads and
  // under forced scalar kernels, on exact ties and on perturbed random
  // walks.
  const ts::Dataset ties = TieHeavy(30, 12, 41);
  const ts::Dataset walks = RandomWalks(30, 24, 42).ZNormalizedCopy();
  const auto spec = uncertain::ErrorSpec::Constant(ErrorKind::kNormal, 0.5);
  const std::pair<const ts::Dataset*, uncertain::UncertainDataset> cases[] = {
      {&ties, NormalPdf(ties, 0.5, true)},
      {&walks, uncertain::PerturbDataset(walks, spec, 43)},
  };
  for (const auto& [exact, pdf] : cases) {
    SCOPED_TRACE(exact->name());
    const std::vector<std::uint64_t> want = ReferenceScoreBits(*exact, pdf);
    for (std::size_t threads : kThreadCounts) {
      for (auto simd : {distance::SimdMode::kAuto,
                        distance::SimdMode::kForceScalar}) {
        SCOPED_TRACE(testing::Message()
                     << "threads=" << threads << " forced scalar="
                     << (simd == distance::SimdMode::kForceScalar));
        EngineContextOptions options;
        options.threads = threads;
        options.simd = simd;
        EngineContext engines(options);
        EXPECT_EQ(EuclideanScoreBits(*exact, pdf, engines), want);
        EXPECT_EQ(engines.stats().acquires_served, 1u);
        EXPECT_EQ(engines.stats().pdf_packs, 1u);
      }
    }
  }
}

TEST(EngineContextTest, EuclideanProudDustRunSharesOneEngine) {
  const ts::Dataset exact = MakeExact(24, 8, 5);
  const auto spec = uncertain::ErrorSpec::Constant(ErrorKind::kNormal, 0.5);
  EngineContextOptions context_options;
  context_options.threads = 2;
  EngineContext engines(context_options);
  core::EuclideanMatcher euclid;
  core::ProudMatcher proud(0.5);
  core::DustMatcher dust;
  core::Matcher* matchers[] = {&euclid, &proud, &dust};
  core::RunOptions options = QuickRunOptions(2);
  options.engine_context = &engines;
  auto run = core::RunSimilarityMatching(exact, spec, matchers, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(engines.stats().acquires_served, 3u);
  EXPECT_EQ(engines.stats().acquires_declined, 0u);
  EXPECT_EQ(engines.stats().pdf_packs, 1u);
}

// --- DUST table cache --------------------------------------------------------

TEST(EngineContextTest, DustTableCacheKeepsNoBoundDatasetsModels) {
  // The context's DUST table cache outlives every binding, as a server
  // shard does its rebinds: it may keep tables, not the error models of
  // every dataset it served.
  const ts::Dataset exact = MakeExact(12, 6, 51);
  const auto spec = uncertain::ErrorSpec::MixedSigma(ErrorKind::kNormal);
  EngineContext engines{EngineContextOptions{}};
  std::vector<std::weak_ptr<const prob::ErrorDistribution>> models;
  std::vector<std::string> names;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    uncertain::UncertainDataset pdf = uncertain::PerturbDataset(exact, spec,
                                                                seed);
    for (const auto& series : pdf.series) {
      for (std::size_t t = 0; t < series.size(); ++t) {
        models.push_back(series.error(t));
      }
    }
    names.push_back(std::to_string(seed));
    ASSERT_TRUE(engines
                    .AddResident(names.back(), std::move(pdf), std::nullopt,
                                 seed, 0.5)
                    .ok());
    ASSERT_TRUE(engines.ActivateResident(names.back()).ok());
    ASSERT_TRUE(engines.Acquire(Measure::kDust).ok());
  }
  // Rebind an earlier resident, then drop them all and bind fresh data.
  ASSERT_TRUE(engines.ActivateResident(names[1]).ok());
  ASSERT_TRUE(engines.Acquire(Measure::kDust).ok());
  for (const std::string& name : names) {
    ASSERT_TRUE(engines.DropResident(name).ok());
  }
  ASSERT_TRUE(engines
                  .BindData(uncertain::PerturbDataset(exact, spec, 99),
                            std::nullopt, 99, 0.5)
                  .ok());
  ASSERT_TRUE(engines.Acquire(Measure::kDust).ok());

  std::size_t alive = 0;
  for (const auto& model : models) alive += model.expired() ? 0 : 1;
  EXPECT_EQ(alive, 0u) << "of " << models.size() << " models";
  // The tables themselves were built once and served every bind.
  EXPECT_EQ(engines.stats().dust_table_builds, 1u);
}

TEST(EngineContextTest, SessionAttachReplaysOnlyFramesPastPartialAck) {
  // The resumable-session half of the residency story: a client that acked
  // part of the stream, died, and reconnects claiming a later receipt gets
  // exactly the unseen tail — nothing recomputed, nothing duplicated.
  int sv[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  server::Session session(7, 64);
  const auto first = session.Attach(sv[0], 0, false);
  EXPECT_EQ(first.replayed, 0u);
  EXPECT_FALSE(first.poisoned);

  const std::uint8_t kType =
      static_cast<std::uint8_t>(server::MessageType::kPong);
  EXPECT_EQ(session.Deliver(kType, {0x01}, 1), 1u);
  EXPECT_EQ(session.Deliver(kType, {0x02}, 2), 2u);
  EXPECT_EQ(session.Deliver(kType, {0x03}, 3), 3u);
  EXPECT_EQ(session.BacklogSize(), 3u);

  // Partial ack: frame 1 is released, 2 and 3 stay retained.
  session.HandleAck(1);
  EXPECT_EQ(session.BacklogSize(), 2u);

  session.Detach(sv[0]);
  close(sv[0]);
  close(sv[1]);

  // Reconnect claiming receipt through sequence 2 — the receipt doubles as
  // a cumulative ack, so only frame 3 is replayed.
  int fresh[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fresh), 0);
  const auto resumed = session.Attach(fresh[0], 2, true);
  EXPECT_EQ(resumed.replayed, 1u);
  EXPECT_EQ(resumed.server_seq, 3u);
  EXPECT_FALSE(resumed.poisoned);
  EXPECT_EQ(session.BacklogSize(), 1u);

  // On the wire: the HelloAck control frame, then frame 3 verbatim.
  auto hello = server::ReadFrame(fresh[1]);
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_EQ(hello.ValueOrDie().header.type,
            static_cast<std::uint8_t>(server::MessageType::kHelloAck));
  auto tail = server::ReadFrame(fresh[1]);
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(tail.ValueOrDie().header.sequence, 3u);
  EXPECT_EQ(tail.ValueOrDie().payload, (std::vector<std::uint8_t>{0x03}));

  // A full ack drains the backlog.
  session.HandleAck(3);
  EXPECT_EQ(session.BacklogSize(), 0u);

  session.Detach(fresh[0]);
  close(fresh[0]);
  close(fresh[1]);
}

}  // namespace
}  // namespace uts::query
