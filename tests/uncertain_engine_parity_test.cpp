// Parity suite for the parallel uncertain-measure engine
// (src/query/uncertain_engine): DUST / PROUD / MUNICH sweep, PRQ and k-NN
// results must be bit-identical — indices AND distances/probabilities — to
// the scalar measure APIs at 1, 2 and 8 threads, including tie-heavy and
// degenerate-σ inputs. The references below call the scalar measures
// directly (the sequential reference path the engine is documented
// against), mirroring tests/engine_parity_test.cpp for the certain engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/experiment.hpp"
#include "core/matchers.hpp"
#include "measures/dust.hpp"
#include "measures/munich.hpp"
#include "measures/proud.hpp"
#include "prob/rng.hpp"
#include "query/uncertain_engine.hpp"
#include "uncertain/error_spec.hpp"
#include "uncertain/perturb.hpp"

namespace uts::query {
namespace {

using prob::ErrorKind;

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

UncertainEngineOptions SmallChunkOptions(std::size_t threads) {
  UncertainEngineOptions options;
  options.threads = threads;
  options.grain = 4;  // force many chunks even on small datasets
  // This suite pins the engine bit-identical to the scalar measure APIs,
  // which is a property of the scalar kernel path; SIMD-vs-scalar agreement
  // (bitwise for DUST, tolerance for PROUD) is simd_parity_test's job.
  options.simd = distance::SimdMode::kForceScalar;
  return options;
}

/// Gaussian observations with a per-point error model from `error_of`.
template <typename ErrorOf>
uncertain::UncertainDataset GaussianUncertain(std::size_t n, std::size_t len,
                                              std::uint64_t seed,
                                              const ErrorOf& error_of) {
  prob::Rng rng(seed);
  uncertain::UncertainDataset d;
  d.name = "gauss-uncertain";
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> obs(len);
    std::vector<prob::ErrorDistributionPtr> errors(len);
    for (std::size_t t = 0; t < len; ++t) {
      obs[t] = rng.Gaussian();
      errors[t] = error_of(s, t);
    }
    d.series.emplace_back(std::move(obs), std::move(errors));
  }
  return d;
}

/// Observations on a {0, 1} grid: distances and probabilities collide
/// constantly, so every tie-break path in selection is exercised.
template <typename ErrorOf>
uncertain::UncertainDataset TieHeavyUncertain(std::size_t n, std::size_t len,
                                              std::uint64_t seed,
                                              const ErrorOf& error_of) {
  prob::Rng rng(seed);
  uncertain::UncertainDataset d;
  d.name = "ties-uncertain";
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> obs(len);
    std::vector<prob::ErrorDistributionPtr> errors(len);
    for (std::size_t t = 0; t < len; ++t) {
      obs[t] = static_cast<double>(rng.Next() % 2);
      errors[t] = error_of(s, t);
    }
    d.series.emplace_back(std::move(obs), std::move(errors));
  }
  return d;
}

// --- Scalar references -------------------------------------------------------

std::vector<double> ReferenceDustDistances(
    const uncertain::UncertainDataset& d, std::size_t query,
    const measures::DustOptions& options) {
  measures::Dust dust(options);
  std::vector<double> out(d.size(), 0.0);
  for (std::size_t i = 0; i < d.size(); ++i) {
    out[i] = dust.Distance(d[query], d[i]).ValueOrDie();
  }
  return out;
}

std::vector<Neighbor> ReferenceKNearestAscending(
    const std::vector<double>& values, std::size_t exclude, std::size_t k) {
  std::vector<Neighbor> all;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i == exclude) continue;
    all.push_back({i, values[i]});
  }
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(take),
                    all.end(), [](const Neighbor& a, const Neighbor& b) {
                      if (a.distance != b.distance) {
                        return a.distance < b.distance;
                      }
                      return a.index < b.index;
                    });
  all.resize(take);
  return all;
}

std::vector<Neighbor> ReferenceKNearestDescending(
    const std::vector<double>& values, std::size_t exclude, std::size_t k) {
  std::vector<Neighbor> all;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i == exclude) continue;
    all.push_back({i, values[i]});
  }
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(take),
                    all.end(), [](const Neighbor& a, const Neighbor& b) {
                      if (a.distance != b.distance) {
                        return a.distance > b.distance;
                      }
                      return a.index < b.index;
                    });
  all.resize(take);
  return all;
}

void ExpectNeighborsIdentical(const std::vector<Neighbor>& got,
                              const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << "rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;  // bitwise
  }
}

// --- DUST --------------------------------------------------------------------

struct DustCase {
  const char* name;
  uncertain::UncertainDataset dataset;
};

std::vector<DustCase> DustCases() {
  // Normal errors: the closed-form fast path, one error class.
  auto normal = prob::MakeNormalError(0.5);
  // Mixed normal σ: two classes, the classed kernel with closed-form luts.
  auto hi = prob::MakeNormalError(1.0);
  auto lo = prob::MakeNormalError(0.4);
  // Uniform errors: the numeric table-lookup path (with saturation).
  auto uniform = prob::MakeUniformError(0.5);

  std::vector<DustCase> cases;
  cases.push_back({"normal-closed-form",
                   TieHeavyUncertain(40, 8, 11, [&](std::size_t, std::size_t) {
                     return normal;
                   })});
  cases.push_back(
      {"mixed-sigma-classed",
       GaussianUncertain(40, 12, 12, [&](std::size_t s, std::size_t t) {
         return (s + t) % 3 == 0 ? hi : lo;
       })});
  cases.push_back({"uniform-table",
                   GaussianUncertain(30, 10, 13,
                                     [&](std::size_t, std::size_t) {
                                       return uniform;
                                     })});
  return cases;
}

TEST(UncertainEngineParityTest, DustSweepMatchesScalarAtEveryThreadCount) {
  for (DustCase& c : DustCases()) {
    const auto reference = ReferenceDustDistances(c.dataset, 0,
                                                  measures::DustOptions{});
    for (std::size_t threads : kThreadCounts) {
      measures::Dust dust;
      auto engine =
          UncertainEngine::Create(c.dataset, SmallChunkOptions(threads));
      ASSERT_TRUE(engine.ok()) << c.name << ": " << engine.status();
      ASSERT_TRUE(engine.ValueOrDie()->BuildDustTables(dust).ok()) << c.name;
      auto distances = engine.ValueOrDie()->DustDistances(0);
      ASSERT_TRUE(distances.ok()) << c.name;
      ASSERT_EQ(distances.ValueOrDie().size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(distances.ValueOrDie()[i], reference[i])  // bitwise
            << c.name << " threads=" << threads << " candidate=" << i;
      }
    }
  }
}

TEST(UncertainEngineParityTest, DustKnnAndRangeMatchScalarWithTies) {
  for (DustCase& c : DustCases()) {
    const auto reference = ReferenceDustDistances(c.dataset, 5,
                                                  measures::DustOptions{});
    const auto want_knn = ReferenceKNearestAscending(reference, 5, 10);
    // ε equal to an exactly attained distance makes the <= boundary
    // decisive; on the tie-heavy grid several candidates sit on it.
    const double epsilon = reference[17];
    std::vector<std::size_t> want_rq;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (i != 5 && reference[i] <= epsilon) want_rq.push_back(i);
    }
    for (std::size_t threads : kThreadCounts) {
      measures::Dust dust;
      auto engine =
          UncertainEngine::Create(c.dataset, SmallChunkOptions(threads));
      ASSERT_TRUE(engine.ok());
      ASSERT_TRUE(engine.ValueOrDie()->BuildDustTables(dust).ok());
      ExpectNeighborsIdentical(
          engine.ValueOrDie()->KNearestDust(5, 10).ValueOrDie(), want_knn);
      EXPECT_EQ(engine.ValueOrDie()->RangeSearchDust(5, epsilon).ValueOrDie(),
                want_rq)
          << c.name << " threads=" << threads;
    }
  }
}

TEST(UncertainEngineParityTest, DustQueriesRequireBuiltTables) {
  auto normal = prob::MakeNormalError(0.5);
  const auto d = GaussianUncertain(6, 4, 14, [&](std::size_t, std::size_t) {
    return normal;
  });
  measures::Dust dust;
  auto engine = UncertainEngine::Create(d, SmallChunkOptions(1));
  ASSERT_TRUE(engine.ok());
  EXPECT_FALSE(engine.ValueOrDie()->dust_ready());
  EXPECT_FALSE(engine.ValueOrDie()->DustDistances(0).ok());
  ASSERT_TRUE(engine.ValueOrDie()->BuildDustTables(dust).ok());
  EXPECT_TRUE(engine.ValueOrDie()->dust_ready());
  EXPECT_TRUE(engine.ValueOrDie()->DustDistances(0).ok());
}

TEST(UncertainEngineParityTest, DustTablesBorrowedFromSharedCacheMatch) {
  // The matcher path hands the engine a persistent measures::Dust cache so
  // rebuilds across datasets reuse tables. Tables borrowed from a shared
  // cache must produce bitwise the same sweeps as ones from a cache of the
  // engine's own, and a second engine over the same cache must not rebuild
  // anything.
  auto uniform = prob::MakeUniformError(0.5);
  const auto d = GaussianUncertain(20, 8, 15, [&](std::size_t, std::size_t) {
    return uniform;
  });
  measures::Dust cache, own_cache;
  auto own = UncertainEngine::Create(d, SmallChunkOptions(2));
  ASSERT_TRUE(own.ok());
  ASSERT_TRUE(own.ValueOrDie()->BuildDustTables(own_cache).ok());
  auto borrowed = UncertainEngine::Create(d, SmallChunkOptions(2));
  ASSERT_TRUE(borrowed.ok());
  ASSERT_TRUE(borrowed.ValueOrDie()->BuildDustTables(cache).ok());
  const std::size_t tables_after_first = cache.CacheSize();
  EXPECT_GT(tables_after_first, 0u);
  const auto want = own.ValueOrDie()->DustDistances(3).ValueOrDie();
  EXPECT_EQ(borrowed.ValueOrDie()->DustDistances(3).ValueOrDie(), want);
  // Re-binding over the same cache: nothing rebuilt, same results.
  auto again = UncertainEngine::Create(d, SmallChunkOptions(1));
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again.ValueOrDie()->BuildDustTables(cache).ok());
  EXPECT_EQ(cache.CacheSize(), tables_after_first);
  EXPECT_EQ(again.ValueOrDie()->DustDistances(3).ValueOrDie(), want);
}

// --- PROUD -------------------------------------------------------------------

TEST(UncertainEngineParityTest, ProudPrqMatchesScalarAtEveryThreadCount) {
  auto err = prob::MakeNormalError(0.6);
  const auto ties = TieHeavyUncertain(50, 8, 21, [&](std::size_t,
                                                     std::size_t) {
    return err;
  });
  const double sigma = 0.6;
  // The τ list repeats a value: every slot is decided independently.
  const std::vector<double> taus = {0.1, 0.5, 0.9, 0.5};
  for (std::size_t q : {std::size_t{0}, std::size_t{49}}) {
    // ε on an attained observation distance → exact decision boundaries.
    double eps_sq = 0.0;
    for (std::size_t t = 0; t < 8; ++t) {
      const double d = ties[q].observation(t) - ties[3].observation(t);
      eps_sq += d * d;
    }
    const double epsilon = std::sqrt(eps_sq);
    std::vector<std::vector<std::size_t>> want(taus.size());
    for (std::size_t k = 0; k < taus.size(); ++k) {
      measures::Proud proud({.tau = taus[k], .sigma = sigma});
      for (std::size_t i = 0; i < ties.size(); ++i) {
        if (i == q) continue;
        if (proud.Matches(ties[q].observations(), ties[i].observations(),
                          epsilon)) {
          want[k].push_back(i);
        }
      }
    }
    for (std::size_t threads : kThreadCounts) {
      UncertainEngineOptions options = SmallChunkOptions(threads);
      options.proud_sigma = sigma;
      auto engine = UncertainEngine::Create(ties, options);
      ASSERT_TRUE(engine.ok());
      const auto each =
          engine.ValueOrDie()->ProbabilisticRangeSearchProud(q, epsilon, taus);
      ASSERT_EQ(each.size(), taus.size());
      for (std::size_t k = 0; k < taus.size(); ++k) {
        EXPECT_EQ(engine.ValueOrDie()->ProbabilisticRangeSearchProud(
                      q, epsilon, taus[k]),
                  want[k])
            << "tau=" << taus[k] << " threads=" << threads << " q=" << q;
        EXPECT_EQ(each[k], want[k])
            << "tau list slot " << k << " threads=" << threads << " q=" << q;
      }
    }
  }
}

TEST(UncertainEngineParityTest, ProudDegenerateSigmaSharpThreshold) {
  // σ = 0 collapses PROUD to a deterministic distance test with exact
  // integer tie boundaries on the {0,1} grid.
  auto err = prob::MakeNoError();
  const auto ties = TieHeavyUncertain(40, 6, 22, [&](std::size_t,
                                                     std::size_t) {
    return err;
  });
  measures::Proud proud({.tau = 0.5, .sigma = 0.0});
  const double epsilon = std::sqrt(2.0);  // attained exactly by many pairs
  std::vector<std::size_t> want;
  for (std::size_t i = 1; i < ties.size(); ++i) {
    if (proud.Matches(ties[0].observations(), ties[i].observations(),
                      epsilon)) {
      want.push_back(i);
    }
  }
  EXPECT_FALSE(want.empty());
  EXPECT_LT(want.size(), ties.size() - 1);  // the boundary is decisive
  for (std::size_t threads : kThreadCounts) {
    UncertainEngineOptions options = SmallChunkOptions(threads);
    options.proud_sigma = 0.0;
    auto engine = UncertainEngine::Create(ties, options);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(
        engine.ValueOrDie()->ProbabilisticRangeSearchProud(0, epsilon, 0.5),
        want)
        << "threads=" << threads;
    // The degenerate decision ignores τ, so every slot of a τ list is the
    // same distance test.
    const std::vector<double> taus = {0.01, 0.5, 0.99};
    for (const auto& slot : engine.ValueOrDie()->ProbabilisticRangeSearchProud(
             0, epsilon, taus)) {
      EXPECT_EQ(slot, want) << "threads=" << threads;
    }
  }
}

TEST(UncertainEngineParityTest, ProudKnnByProbabilityMatchesScalar) {
  auto err = prob::MakeNormalError(0.8);
  const auto ties = TieHeavyUncertain(40, 8, 23, [&](std::size_t,
                                                     std::size_t) {
    return err;
  });
  const double sigma = 0.8;
  const double epsilon = 2.5;
  measures::Proud proud({.tau = 0.5, .sigma = sigma});
  std::vector<double> probs(ties.size(), 0.0);
  for (std::size_t i = 0; i < ties.size(); ++i) {
    probs[i] = proud.MatchProbability(ties[7].observations(),
                                      ties[i].observations(), epsilon);
  }
  const auto want = ReferenceKNearestDescending(probs, 7, 12);
  for (std::size_t threads : kThreadCounts) {
    UncertainEngineOptions options = SmallChunkOptions(threads);
    options.proud_sigma = sigma;
    auto engine = UncertainEngine::Create(ties, options);
    ASSERT_TRUE(engine.ok());
    ExpectNeighborsIdentical(
        engine.ValueOrDie()->KNearestProud(7, epsilon, 12), want);
    // The dense sweep is bitwise the scalar per-pair probability.
    const auto dense =
        engine.ValueOrDie()->ProudMatchProbabilities(7, epsilon);
    for (std::size_t i = 0; i < probs.size(); ++i) {
      EXPECT_EQ(dense[i], probs[i]) << "candidate " << i;
    }
  }
}

// --- MUNICH ------------------------------------------------------------------

struct MunichFixture {
  uncertain::UncertainDataset pdf;
  uncertain::MultiSampleDataset samples;
};

MunichFixture MakeMunichFixture(std::size_t n, std::size_t len,
                                std::size_t s, double sigma,
                                std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset exact("exact");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = rng.Gaussian();
    exact.Add(ts::TimeSeries(std::move(values)));
  }
  const auto spec =
      uncertain::ErrorSpec::Constant(ErrorKind::kNormal, sigma);
  MunichFixture f;
  f.pdf = uncertain::PerturbDataset(exact, spec, seed + 1);
  f.samples = uncertain::PerturbDatasetMultiSample(exact, spec, s, seed + 2);
  return f;
}

std::vector<double> ReferenceMunichProbabilities(
    const MunichFixture& f, const measures::MunichOptions& options,
    std::uint64_t engine_seed, std::size_t query, double epsilon) {
  const measures::Munich munich(options);
  std::vector<double> probs(f.samples.size(), 0.0);
  for (std::size_t i = 0; i < f.samples.size(); ++i) {
    if (i == query) continue;
    // The engine's counter-based pair seed: DeriveSeed(seed, q·n + c + 0x9a1).
    const std::uint64_t seed = prob::DeriveSeed(
        engine_seed, query * f.samples.size() + i + 0x9a1);
    probs[i] = munich
                   .MatchProbability(f.samples[query], f.samples[i], epsilon,
                                     seed)
                   .ValueOrDie();
  }
  return probs;
}

TEST(UncertainEngineParityTest, MunichSweepMatchesScalarCounterSeeds) {
  const MunichFixture f = MakeMunichFixture(20, 6, 3, 0.5, 31);
  measures::MunichOptions estimators[2];
  estimators[0].estimator = measures::MunichOptions::Estimator::kExact;
  estimators[1].estimator = measures::MunichOptions::Estimator::kMonteCarlo;
  estimators[1].mc_samples = 500;
  for (const auto& mopts : estimators) {
    const auto want =
        ReferenceMunichProbabilities(f, mopts, 0xfeed, 4, 2.5);
    for (std::size_t threads : kThreadCounts) {
      UncertainEngineOptions options = SmallChunkOptions(threads);
      options.seed = 0xfeed;
      auto engine = UncertainEngine::Create(f.pdf, options);
      ASSERT_TRUE(engine.ok());
      ASSERT_TRUE(engine.ValueOrDie()->AttachSamples(f.samples).ok());
      auto got = engine.ValueOrDie()->MunichMatchProbabilities(4, 2.5, mopts);
      ASSERT_TRUE(got.ok());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.ValueOrDie()[i], want[i])  // bitwise
            << "estimator=" << int(mopts.estimator) << " threads=" << threads
            << " candidate=" << i;
      }
    }
  }
}

TEST(UncertainEngineParityTest, MunichPrqAndKnnMatchReference) {
  const MunichFixture f = MakeMunichFixture(24, 6, 3, 0.4, 32);
  measures::MunichOptions mopts;  // kAuto: exact on this size
  const double epsilon = 2.0;
  const double tau = 0.5;
  const auto probs = ReferenceMunichProbabilities(f, mopts, 0x5eed, 0,
                                                  epsilon);
  std::vector<std::size_t> want_prq;
  for (std::size_t i = 1; i < probs.size(); ++i) {
    if (probs[i] >= tau) want_prq.push_back(i);
  }
  const auto want_knn = ReferenceKNearestDescending(probs, 0, 8);
  for (std::size_t threads : kThreadCounts) {
    UncertainEngineOptions options = SmallChunkOptions(threads);
    auto engine = UncertainEngine::Create(f.pdf, options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine.ValueOrDie()->AttachSamples(f.samples).ok());
    EXPECT_EQ(engine.ValueOrDie()
                  ->ProbabilisticRangeSearchMunich(0, epsilon, tau, mopts)
                  .ValueOrDie(),
              want_prq)
        << "threads=" << threads;
    ExpectNeighborsIdentical(
        engine.ValueOrDie()->KNearestMunich(0, epsilon, 8, mopts).ValueOrDie(),
        want_knn);
  }
}

TEST(UncertainEngineParityTest, MunichDegenerateSamplesDecideByBounds) {
  // Degenerate σ: every sample equals the exact value, so the bounding
  // intervals are points and the bounds filter decides every candidate
  // with probability exactly 0 or 1.
  const MunichFixture f = MakeMunichFixture(16, 5, 3, 0.0, 33);
  for (std::size_t threads : kThreadCounts) {
    UncertainEngineOptions options = SmallChunkOptions(threads);
    auto engine = UncertainEngine::Create(f.pdf, options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine.ValueOrDie()->AttachSamples(f.samples).ok());
    auto probs = engine.ValueOrDie()->MunichMatchProbabilities(
        1, 1.5, measures::MunichOptions{});
    ASSERT_TRUE(probs.ok());
    const auto want = ReferenceMunichProbabilities(
        f, measures::MunichOptions{}, 0x5eed, 1, 1.5);
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (i == 1) continue;
      EXPECT_TRUE(probs.ValueOrDie()[i] == 0.0 ||
                  probs.ValueOrDie()[i] == 1.0);
      EXPECT_EQ(probs.ValueOrDie()[i], want[i]);
    }
  }
}

// --- End-to-end: the evaluation runner with all three matchers --------------

TEST(UncertainEngineParityTest, SimilarityMatchingThreadCountInvariant) {
  prob::Rng rng(61);
  ts::Dataset exact("e2e");
  for (std::size_t i = 0; i < 24; ++i) {
    std::vector<double> values(8);
    for (double& v : values) v = rng.Gaussian();
    exact.Add(ts::TimeSeries(std::move(values), int(i % 2)));
  }
  const ts::Dataset d = exact.ZNormalizedCopy();
  const auto spec =
      uncertain::ErrorSpec::Constant(ErrorKind::kNormal, 0.5);

  auto run_with = [&](std::size_t threads) {
    core::ProudMatcher proud(0.5);
    core::DustMatcher dust;
    measures::MunichOptions mopts;
    mopts.mc_samples = 400;
    core::MunichMatcher munich(mopts);
    core::Matcher* matchers[] = {&proud, &dust, &munich};
    core::RunOptions options;
    options.ground_truth_k = 4;
    options.max_queries = 8;
    options.seed = 99;
    options.threads = threads;
    options.munich_samples_per_point = 3;
    auto run = core::RunSimilarityMatching(d, spec, matchers, options);
    EXPECT_TRUE(run.ok()) << run.status();
    return std::move(run).ValueOrDie();
  };

  const auto reference = run_with(1);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto got = run_with(threads);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t m = 0; m < got.size(); ++m) {
      EXPECT_EQ(got[m].per_query_f1, reference[m].per_query_f1)
          << reference[m].name;
      EXPECT_EQ(got[m].per_query_precision, reference[m].per_query_precision)
          << reference[m].name;
      EXPECT_EQ(got[m].per_query_recall, reference[m].per_query_recall)
          << reference[m].name;
    }
  }
}

TEST(UncertainEngineParityTest, EngineRejectsUnusableDatasets) {
  uncertain::UncertainDataset empty;
  EXPECT_FALSE(UncertainEngine::Create(empty).ok());

  auto err = prob::MakeNormalError(0.5);
  uncertain::UncertainDataset ragged;
  ragged.series.emplace_back(
      std::vector<double>{1.0, 2.0},
      std::vector<prob::ErrorDistributionPtr>(2, err));
  ragged.series.emplace_back(
      std::vector<double>{1.0},
      std::vector<prob::ErrorDistributionPtr>(1, err));
  EXPECT_FALSE(UncertainEngine::Create(ragged).ok());
}

}  // namespace
}  // namespace uts::query
