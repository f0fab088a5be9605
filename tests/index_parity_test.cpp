// Parity suite for the prune-before-score index cascade (src/index): every
// index-eligible query path — Euclidean k-NN / all-k-NN / range, DUST k-NN
// / range — must return results bit-identical (ranks AND tie order AND
// distances) with the index on and off, at 1, 2 and 8 threads. The suite
// runs under the session's resolved dispatch: CI executes it once natively
// (AVX2 where available) and once under UNCERTTS_FORCE_SCALAR=1, so the
// admissibility slack is exercised against both kernel families.
// Probabilistic range queries (PROUD) are never index-routed; the suite
// still pins their identity across the option flip.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "distance/lp.hpp"
#include "prob/rng.hpp"
#include "query/engine.hpp"
#include "query/search.hpp"
#include "query/uncertain_engine.hpp"
#include "uncertain/uncertain_series.hpp"

namespace uts::query {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

EngineOptions CertainOptions(std::size_t threads, bool indexed) {
  EngineOptions options;
  options.threads = threads;
  options.grain = 16;  // force many chunks even on small datasets
  options.index.enabled = indexed;
  return options;
}

UncertainEngineOptions UncertainOptions(std::size_t threads, bool indexed) {
  UncertainEngineOptions options;
  options.threads = threads;
  options.grain = 4;
  options.index.enabled = indexed;
  return options;
}

ts::Dataset GaussianDataset(std::size_t n, std::size_t len,
                            std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("gauss");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = rng.Gaussian();
    d.Add(ts::TimeSeries(std::move(values), int(i % 3)));
  }
  return d;
}

// Values on a {0, 1} grid: distances collide constantly, so the cascade's
// tie handling (lb == τ candidates still scored, d == τ displacing by
// index) is exercised against the full scan's partial_sort.
ts::Dataset TieHeavyDataset(std::size_t n, std::size_t len,
                            std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("ties");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = static_cast<double>(rng.Next() % 2);
    d.Add(ts::TimeSeries(std::move(values), int(i % 2)));
  }
  return d;
}

// Random walks concentrate their energy in the low-frequency Haar
// coefficients, so the synopsis prefix captures most of each pairwise
// distance — the regime where the cascade actually prunes.
ts::Dataset RandomWalkDataset(std::size_t n, std::size_t len,
                              std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("walk");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    double level = rng.Gaussian();
    for (double& v : values) {
      level += rng.Gaussian();
      v = level;
    }
    d.Add(ts::TimeSeries(std::move(values)));
  }
  return d;
}

void ExpectNeighborsIdentical(const std::vector<Neighbor>& got,
                              const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << "rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;  // bitwise
  }
}

struct CertainCase {
  const char* name;
  ts::Dataset dataset;
};

std::vector<CertainCase> CertainCases() {
  std::vector<CertainCase> cases;
  cases.push_back({"gaussian", GaussianDataset(48, 24, 101)});
  cases.push_back({"tie-heavy", TieHeavyDataset(48, 12, 102)});
  cases.push_back({"random-walk", RandomWalkDataset(48, 32, 103)});
  return cases;
}

/// `engine`'s answer to `query`; a failure fails the test and answers
/// nothing.
QueryAnswer Ask(const UncertainEngine& engine, const Query& query) {
  auto answer = engine.Answer(query);
  EXPECT_TRUE(answer.ok()) << answer.status();
  return answer.ok() ? std::move(answer).ValueOrDie() : QueryAnswer{};
}

// --- Euclidean ---------------------------------------------------------------

TEST(IndexParityTest, KnnIndexOnVsOffBitwiseIdentical) {
  for (const CertainCase& c : CertainCases()) {
    for (std::size_t threads : kThreadCounts) {
      const auto off = DistanceMatrixEngine::Create(
          c.dataset, CertainOptions(threads, false)).ValueOrDie();
      const auto on = DistanceMatrixEngine::Create(
          c.dataset, CertainOptions(threads, true)).ValueOrDie();
      ASSERT_FALSE(off.index_enabled());
      ASSERT_TRUE(on.index_enabled()) << c.name;
      for (std::size_t q = 0; q < c.dataset.size(); ++q) {
        index::SearchCost cost;
        const auto got = on.KNearestEuclidean(q, 10, &cost).ValueOrDie();
        ExpectNeighborsIdentical(got,
                                 off.KNearestEuclidean(q, 10).ValueOrDie());
        EXPECT_EQ(cost.candidates_total, c.dataset.size() - 1)
            << c.name << " q=" << q;
        EXPECT_EQ(cost.candidates_touched + cost.pruned_lower_bound,
                  cost.candidates_total)
            << c.name << " q=" << q;
      }
    }
  }
}

TEST(IndexParityTest, AllKnnIndexOnMatchesPerQueryOff) {
  // The indexed all-k-NN runs the per-query cascade, so it must equal the
  // documented contract out[q] == KNearestEuclidean(q, k) of the unindexed
  // engine bit for bit — and its accumulated cost counters must be
  // identical at every thread count (deterministic accounting).
  for (const CertainCase& c : CertainCases()) {
    const auto off = DistanceMatrixEngine::Create(
        c.dataset, CertainOptions(1, false)).ValueOrDie();
    std::vector<index::SearchCost> costs;
    for (std::size_t threads : kThreadCounts) {
      const auto on = DistanceMatrixEngine::Create(
          c.dataset, CertainOptions(threads, true)).ValueOrDie();
      index::SearchCost cost;
      const auto all = on.AllKNearestEuclidean(7, 0, &cost).ValueOrDie();
      ASSERT_EQ(all.size(), c.dataset.size());
      for (std::size_t q = 0; q < all.size(); ++q) {
        ExpectNeighborsIdentical(all[q],
                                 off.KNearestEuclidean(q, 7).ValueOrDie());
      }
      costs.push_back(cost);
    }
    for (std::size_t i = 1; i < costs.size(); ++i) {
      EXPECT_EQ(costs[i].candidates_touched, costs[0].candidates_touched)
          << c.name;
      EXPECT_EQ(costs[i].pruned_lower_bound, costs[0].pruned_lower_bound)
          << c.name;
      EXPECT_EQ(costs[i].abandoned_early, costs[0].abandoned_early) << c.name;
    }
  }
}

TEST(IndexParityTest, RangeIndexOnVsOffBitwiseIdentical) {
  for (const CertainCase& c : CertainCases()) {
    // ε equal to an exactly attained distance makes the <= boundary
    // decisive; on the tie-heavy grid several candidates sit on it.
    const double epsilon = distance::Euclidean(c.dataset[0].values(),
                                               c.dataset[17].values());
    for (std::size_t threads : kThreadCounts) {
      const auto off = DistanceMatrixEngine::Create(
          c.dataset, CertainOptions(threads, false)).ValueOrDie();
      const auto on = DistanceMatrixEngine::Create(
          c.dataset, CertainOptions(threads, true)).ValueOrDie();
      for (std::size_t q = 0; q < c.dataset.size(); ++q) {
        index::SearchCost cost;
        EXPECT_EQ(on.RangeSearchEuclidean(q, epsilon, &cost).ValueOrDie(),
                  off.RangeSearchEuclidean(q, epsilon).ValueOrDie())
            << c.name << " threads=" << threads << " q=" << q;
        EXPECT_EQ(cost.candidates_touched + cost.pruned_lower_bound,
                  cost.candidates_total);
      }
    }
  }
}

TEST(IndexParityTest, WalkDataActuallyPrunes) {
  // The parity tests above would pass vacuously if the bounds never pruned
  // anything; pin that on structured data the cascade touches a strict
  // subset of the candidates.
  const ts::Dataset walk = RandomWalkDataset(64, 64, 104);
  const auto on =
      DistanceMatrixEngine::Create(walk, CertainOptions(1, true)).ValueOrDie();
  index::SearchCost cost;
  ASSERT_TRUE(on.AllKNearestEuclidean(10, 0, &cost).ok());
  EXPECT_GT(cost.pruned_lower_bound, 0u);
  EXPECT_LT(cost.candidates_touched, cost.candidates_total);
}

// --- DUST --------------------------------------------------------------------

/// Gaussian observations with a per-point error model from `error_of`.
template <typename ErrorOf>
uncertain::UncertainDataset WalkUncertain(std::size_t n, std::size_t len,
                                          std::uint64_t seed,
                                          const ErrorOf& error_of) {
  prob::Rng rng(seed);
  uncertain::UncertainDataset d;
  d.name = "walk-uncertain";
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> obs(len);
    std::vector<prob::ErrorDistributionPtr> errors(len);
    double level = rng.Gaussian();
    for (std::size_t t = 0; t < len; ++t) {
      level += rng.Gaussian();
      obs[t] = level;
      errors[t] = error_of(s, t);
    }
    d.series.emplace_back(std::move(obs), std::move(errors));
  }
  return d;
}

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

struct DustCase {
  const char* name;
  uncertain::UncertainDataset dataset;
};

std::vector<DustCase> DustCases() {
  // Normal errors: one class, the closed-form lut (unbounded minorant).
  auto normal = prob::MakeNormalError(0.5);
  // Mixed normal σ: two classes, the classed kernel.
  auto hi = prob::MakeNormalError(1.0);
  auto lo = prob::MakeNormalError(0.4);
  // Uniform errors: the numeric table path (capped minorant).
  auto uniform = prob::MakeUniformError(0.5);

  std::vector<DustCase> cases;
  cases.push_back(
      {"normal-closed-form",
       TieHeavyUncertain(40, 8, 111,
                         [&](std::size_t, std::size_t) { return normal; })});
  cases.push_back({"mixed-sigma-classed",
                   WalkUncertain(40, 16, 112, [&](std::size_t s,
                                                  std::size_t t) {
                     return (s + t) % 3 == 0 ? hi : lo;
                   })});
  cases.push_back(
      {"uniform-table",
       WalkUncertain(32, 16, 113,
                     [&](std::size_t, std::size_t) { return uniform; })});
  return cases;
}

TEST(IndexParityTest, DustKnnAndRangeIndexOnVsOffBitwiseIdentical) {
  for (DustCase& c : DustCases()) {
    for (std::size_t threads : kThreadCounts) {
      measures::Dust off_dust, on_dust;
      auto off = UncertainEngine::Create(c.dataset,
                                         UncertainOptions(threads, false));
      auto on = UncertainEngine::Create(c.dataset,
                                        UncertainOptions(threads, true));
      ASSERT_TRUE(off.ok() && on.ok()) << c.name;
      ASSERT_TRUE(off.ValueOrDie()->BuildDustTables(off_dust).ok());
      ASSERT_TRUE(on.ValueOrDie()->BuildDustTables(on_dust).ok());
      EXPECT_FALSE(off.ValueOrDie()->dust_index_enabled());
      ASSERT_TRUE(on.ValueOrDie()->dust_index_enabled()) << c.name;
      const double epsilon =
          Ask(*off.ValueOrDie(), {.measure = Measure::kDust,
                                  .kind = QueryKind::kScore,
                                  .candidate = 17})
              .scores.front();
      for (std::size_t q : {std::size_t{0}, std::size_t{5},
                            std::size_t{31}}) {
        Query query{.measure = Measure::kDust,
                    .kind = QueryKind::kKnn,
                    .query = q,
                    .k = 10,
                    .epsilon = epsilon};
        const QueryAnswer knn = Ask(*on.ValueOrDie(), query);
        ExpectNeighborsIdentical(knn.neighbors,
                                 Ask(*off.ValueOrDie(), query).neighbors);
        EXPECT_EQ(knn.cost.candidates_touched + knn.cost.pruned_lower_bound,
                  knn.cost.candidates_total)
            << c.name << " q=" << q;
        query.kind = QueryKind::kRange;
        EXPECT_EQ(Ask(*on.ValueOrDie(), query).matches,
                  Ask(*off.ValueOrDie(), query).matches)
            << c.name << " threads=" << threads << " q=" << q;
      }
    }
  }
}

TEST(IndexParityTest, DustWalkDataPrunes) {
  // DUST pruning end to end: structured observations + a positive table
  // minorant must skip scoring for part of the candidate set.
  auto normal = prob::MakeNormalError(0.3);
  auto d = WalkUncertain(48, 32, 114,
                         [&](std::size_t, std::size_t) { return normal; });
  measures::Dust dust;
  auto on = UncertainEngine::Create(d, UncertainOptions(1, true));
  ASSERT_TRUE(on.ok());
  ASSERT_TRUE(on.ValueOrDie()->BuildDustTables(dust).ok());
  ASSERT_TRUE(on.ValueOrDie()->dust_index_enabled());
  index::SearchCost cost;
  for (std::size_t q = 0; q < d.size(); ++q) {
    cost.Accumulate(Ask(*on.ValueOrDie(), {.measure = Measure::kDust,
                                           .kind = QueryKind::kKnn,
                                           .query = q,
                                           .k = 5})
                        .cost);
  }
  EXPECT_GT(cost.pruned_lower_bound, 0u);
  EXPECT_LT(cost.candidates_touched, cost.candidates_total);
}

// --- One Euclidean measure for both engines ----------------------------------

TEST(IndexParityTest, UncertainEngineEuclideanEqualsCertainEngineBitwise) {
  // The server answers Euclidean requests from the uncertain engine's
  // observation store, so its kNN and range queries must be exactly the
  // certain engine's over the same observations: neighbors, distances and
  // work accounting, at every thread count, with the index on and off, on
  // resident and paged stores. Blocks of 12 rows (a multiple of
  // kQueryBlock, like every store's) are a multiple of neither grain, 16 and
  // 5, so chunks are clipped at block boundaries.
  constexpr std::size_t kBlockRows = 12;
  ts::BufferPool::Options pool_options;
  pool_options.budget_bytes = 0;  // evict every unpinned block
  for (DustCase& c : DustCases()) {
    ts::Dataset observed("observed");
    for (const auto& series : c.dataset.series) {
      observed.Add(series.AsTimeSeries());
    }
    const double epsilon = distance::Euclidean(observed[0].values(),
                                               observed[17].values());
    for (bool paged : {false, true}) {
      for (bool indexed : {false, true}) {
        for (std::size_t threads : kThreadCounts) {
          EngineOptions certain_options = CertainOptions(threads, indexed);
          UncertainEngineOptions uncertain_options =
              UncertainOptions(threads, indexed);
          uncertain_options.grain = 5;
          if (paged) {
            certain_options.buffer_pool = uncertain_options.buffer_pool =
                ts::BufferPool::Create(pool_options).ValueOrDie();
            certain_options.block_rows = uncertain_options.block_rows =
                kBlockRows;
          }
          const auto certain = DistanceMatrixEngine::Create(
              observed, certain_options).ValueOrDie();
          auto created = UncertainEngine::Create(c.dataset, uncertain_options);
          ASSERT_TRUE(created.ok()) << c.name;
          const UncertainEngine& uncertain = *created.ValueOrDie();
          ASSERT_EQ(certain.index_enabled(), indexed);
          for (std::size_t q = 0; q < observed.size(); ++q) {
            index::SearchCost want, got;
            Query query{.kind = QueryKind::kKnn,
                        .query = q,
                        .k = 10,
                        .epsilon = epsilon};
            const QueryAnswer knn = Ask(uncertain, query);
            ExpectNeighborsIdentical(
                knn.neighbors,
                certain.KNearestEuclidean(q, 10, &want).ValueOrDie());
            query.kind = QueryKind::kRange;
            const QueryAnswer range = Ask(uncertain, query);
            EXPECT_EQ(range.matches.front(),
                      certain.RangeSearchEuclidean(q, epsilon, &want)
                          .ValueOrDie())
                << c.name << " q=" << q;
            got.Accumulate(knn.cost);
            got.Accumulate(range.cost);
            EXPECT_EQ(got.candidates_total, want.candidates_total);
            EXPECT_EQ(got.candidates_touched, want.candidates_touched);
            EXPECT_EQ(got.pruned_lower_bound, want.pruned_lower_bound);
            EXPECT_EQ(got.abandoned_early, want.abandoned_early)
                << c.name << " paged=" << paged << " indexed=" << indexed
                << " threads=" << threads << " q=" << q;
          }
        }
      }
    }
  }
}

// --- PRQ ---------------------------------------------------------------------

TEST(IndexParityTest, ProudPrqIdenticalAcrossIndexFlip) {
  // PROUD's probabilistic range query is not index-routed (its match
  // probability is not provably monotone in the observation distance);
  // flipping the option must not change its results in any way.
  auto err = prob::MakeNormalError(0.6);
  auto ties = TieHeavyUncertain(40, 8, 115,
                                [&](std::size_t, std::size_t) { return err; });
  for (std::size_t threads : kThreadCounts) {
    UncertainEngineOptions off_options = UncertainOptions(threads, false);
    UncertainEngineOptions on_options = UncertainOptions(threads, true);
    off_options.proud_sigma = on_options.proud_sigma = 0.6;
    auto off = UncertainEngine::Create(ties, off_options);
    auto on = UncertainEngine::Create(ties, on_options);
    ASSERT_TRUE(off.ok() && on.ok());
    const Query prq{.measure = Measure::kProud,
                    .kind = QueryKind::kPrq,
                    .query = 3,
                    .epsilon = 2.0,
                    .taus = {0.1, 0.5, 0.9}};
    EXPECT_EQ(Ask(*on.ValueOrDie(), prq).matches,
              Ask(*off.ValueOrDie(), prq).matches)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace uts::query
