// Parity suite for the parallel query engine (src/query/engine):
// k-NN / RQ / motif results must be bit-identical — indices AND
// distances — to the sequential reference at 1, 2 and 8 threads, including
// tie-heavy inputs. The references below are verbatim ports of the seed's
// sequential implementations, so the engine is also checked against the
// pre-refactor semantics, not just against itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/matchers.hpp"
#include "distance/dtw.hpp"
#include "distance/lp.hpp"
#include "prob/rng.hpp"
#include "query/engine.hpp"
#include "query/scan.hpp"
#include "query/search.hpp"
#include "uncertain/error_spec.hpp"

namespace uts::query {
namespace {

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

// Values on a tiny integer grid: squared distances collide constantly, so
// every tie-break path in selection and merging is exercised.
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

// --- Verbatim sequential references (the seed's implementations) ------------

std::vector<Neighbor> ReferenceKNearest(const ts::Dataset& d,
                                        std::size_t query, std::size_t k) {
  std::vector<Neighbor> all;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i == query) continue;
    all.push_back(
        {i, distance::Euclidean(d[query].values(), d[i].values())});
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

std::vector<std::size_t> ReferenceRangeSearch(const ts::Dataset& d,
                                              std::size_t query,
                                              double epsilon) {
  std::vector<std::size_t> matches;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i == query) continue;
    if (distance::Euclidean(d[query].values(), d[i].values()) <= epsilon) {
      matches.push_back(i);
    }
  }
  return matches;
}

std::vector<MotifPair> ReferenceTopKMotifs(const ts::Dataset& d,
                                           std::size_t k) {
  std::vector<MotifPair> pairs;
  for (std::size_t a = 0; a < d.size(); ++a) {
    for (std::size_t b = a + 1; b < d.size(); ++b) {
      pairs.push_back(
          {a, b, distance::Euclidean(d[a].values(), d[b].values())});
    }
  }
  const std::size_t take = std::min(k, pairs.size());
  std::partial_sort(pairs.begin(), pairs.begin() + static_cast<long>(take),
                    pairs.end(), [](const MotifPair& x, const MotifPair& y) {
                      if (x.distance != y.distance) {
                        return x.distance < y.distance;
                      }
                      if (x.a != y.a) return x.a < y.a;
                      return x.b < y.b;
                    });
  pairs.resize(take);
  return pairs;
}

void ExpectNeighborsIdentical(const std::vector<Neighbor>& got,
                              const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << "rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;  // bitwise
  }
}

void ExpectMotifsIdentical(const std::vector<MotifPair>& got,
                           const std::vector<MotifPair>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << "rank " << i;
    EXPECT_EQ(got[i].b, want[i].b) << "rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;  // bitwise
  }
}

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

EngineOptions SmallChunkOptions(std::size_t threads) {
  EngineOptions options;
  options.threads = threads;
  options.grain = 16;  // force multiple chunks even on small datasets
  // This suite pins the engine bit-identical to the sequential scalar
  // references, which is a property of the scalar kernel path; SIMD-vs-
  // scalar agreement (tolerance for Euclidean/PROUD, bitwise for DUST) is
  // simd_parity_test's job.
  options.simd = distance::SimdMode::kForceScalar;
  return options;
}

// --- k-NN --------------------------------------------------------------------

TEST(EngineParityTest, KNearestMatchesReferenceAtEveryThreadCount) {
  for (std::uint64_t seed : {11u, 12u}) {
    const ts::Dataset gauss = GaussianDataset(60, 32, seed);
    const ts::Dataset ties = TieHeavyDataset(60, 8, seed);
    for (const ts::Dataset* d : {&gauss, &ties}) {
      for (std::size_t threads : kThreadCounts) {
        auto engine = DistanceMatrixEngine::Create(
            *d, SmallChunkOptions(threads)).ValueOrDie();
        for (std::size_t q : {std::size_t{0}, std::size_t{7},
                              std::size_t{59}}) {
          ExpectNeighborsIdentical(engine.KNearestEuclidean(q, 10).ValueOrDie(),
                                   ReferenceKNearest(*d, q, 10));
        }
      }
    }
  }
}

TEST(EngineParityTest, AllKNearestMatchesPerQueryResults) {
  const ts::Dataset d = TieHeavyDataset(50, 8, 3);
  for (std::size_t threads : kThreadCounts) {
    auto engine = DistanceMatrixEngine::Create(
        d, SmallChunkOptions(threads)).ValueOrDie();
    const auto all = engine.AllKNearestEuclidean(5).ValueOrDie();
    ASSERT_EQ(all.size(), d.size());
    for (std::size_t q = 0; q < d.size(); ++q) {
      ExpectNeighborsIdentical(all[q], ReferenceKNearest(d, q, 5));
    }
  }
}

TEST(EngineParityTest, AllKNearestHonorsQueryPrefixCap) {
  const ts::Dataset d = GaussianDataset(40, 16, 4);
  auto engine =
      DistanceMatrixEngine::Create(d, SmallChunkOptions(8)).ValueOrDie();
  const auto all = engine.AllKNearestEuclidean(3, 12).ValueOrDie();
  ASSERT_EQ(all.size(), 12u);
  for (std::size_t q = 0; q < all.size(); ++q) {
    ExpectNeighborsIdentical(all[q], ReferenceKNearest(d, q, 3));
  }
}

TEST(EngineParityTest, KNearestEdgeCases) {
  const ts::Dataset d = GaussianDataset(10, 8, 5);
  for (std::size_t threads : kThreadCounts) {
    auto engine = DistanceMatrixEngine::Create(
        d, SmallChunkOptions(threads)).ValueOrDie();
    EXPECT_TRUE(engine.KNearestEuclidean(0, 0).ValueOrDie().empty());
    // k exceeding the candidate count clamps, like the reference.
    ExpectNeighborsIdentical(engine.KNearestEuclidean(3, 100).ValueOrDie(),
                             ReferenceKNearest(d, 3, 100));
  }
}

// --- Range queries -----------------------------------------------------------

TEST(EngineParityTest, RangeSearchMatchesReferenceIncludingExactBoundary) {
  const ts::Dataset gauss = GaussianDataset(60, 32, 21);
  const ts::Dataset ties = TieHeavyDataset(60, 8, 22);
  for (const ts::Dataset* d : {&gauss, &ties}) {
    for (std::size_t threads : kThreadCounts) {
      auto engine = DistanceMatrixEngine::Create(
          *d, SmallChunkOptions(threads)).ValueOrDie();
      for (std::size_t q : {std::size_t{0}, std::size_t{31}}) {
        // epsilon equal to an exact attained distance makes the <= boundary
        // decisive; on the tie-heavy grid many candidates sit exactly on it.
        const double epsilon =
            distance::Euclidean((*d)[q].values(), (*d)[(q + 5) % 60].values());
        const auto got = engine.RangeSearchEuclidean(q, epsilon).ValueOrDie();
        const auto want = ReferenceRangeSearch(*d, q, epsilon);
        EXPECT_EQ(got, want);
      }
    }
  }
}

// --- Motifs ------------------------------------------------------------------

TEST(EngineParityTest, TopKMotifsMatchesReferenceAtEveryThreadCount) {
  const ts::Dataset gauss = GaussianDataset(40, 16, 31);
  const ts::Dataset ties = TieHeavyDataset(40, 8, 32);
  for (const ts::Dataset* d : {&gauss, &ties}) {
    const auto want = ReferenceTopKMotifs(*d, 15);
    for (std::size_t threads : kThreadCounts) {
      auto engine = DistanceMatrixEngine::Create(
          *d, SmallChunkOptions(threads)).ValueOrDie();
      ExpectMotifsIdentical(engine.TopKMotifsEuclidean(15).ValueOrDie(),
                            want);
    }
  }
}

TEST(EngineParityTest, TopKMotifsEdgeCases) {
  const ts::Dataset d = GaussianDataset(12, 8, 33);
  for (std::size_t threads : kThreadCounts) {
    auto engine = DistanceMatrixEngine::Create(
        d, SmallChunkOptions(threads)).ValueOrDie();
    EXPECT_TRUE(engine.TopKMotifsEuclidean(0).ValueOrDie().empty());
    // k exceeding the pair count returns all pairs, sorted.
    ExpectMotifsIdentical(engine.TopKMotifsEuclidean(1000).ValueOrDie(),
                          ReferenceTopKMotifs(d, 1000));
  }
  // Degenerate collections: no pairs to rank.
  EXPECT_TRUE(TopKMotifs(0, 5, [](std::size_t, std::size_t) { return 0.0; })
                  .empty());
  EXPECT_TRUE(TopKMotifs(1, 5, [](std::size_t, std::size_t) { return 0.0; })
                  .empty());
}

// --- Generic callback path (exact-DTW ground truth) -------------------------

TEST(EngineParityTest, CallbackKNearestMatchesFreeFunctionUnderDtw) {
  const ts::Dataset d = GaussianDataset(24, 12, 51);
  distance::DtwOptions dtw_options;
  for (std::size_t q : {std::size_t{0}, std::size_t{13}}) {
    const auto distance_to = [&](std::size_t i) {
      return distance::Dtw(d[q].values(), d[i].values(), dtw_options);
    };
    const auto want = KNearest(d.size(), q, 5, distance_to);
    for (std::size_t threads : kThreadCounts) {
      auto engine = DistanceMatrixEngine::Create(
          d, SmallChunkOptions(threads)).ValueOrDie();
      ExpectNeighborsIdentical(engine.KNearest(d.size(), q, 5, distance_to),
                               want);
    }
  }
}

// --- Construction -----------------------------------------------------------

TEST(EngineParityTest, CreateRejectsRaggedAndEmptyData) {
  ts::Dataset ragged("ragged");
  ragged.Add(ts::TimeSeries({1.0, 2.0, 3.0}));
  ragged.Add(ts::TimeSeries({1.0, 2.0}));
  ragged.Add(ts::TimeSeries({0.0, 0.0, 0.0, 0.0}));
  ts::Dataset empty_series("empty-series");
  empty_series.Add(ts::TimeSeries(std::vector<double>{}));
  empty_series.Add(ts::TimeSeries(std::vector<double>{}));
  for (const ts::Dataset& d : {ragged, ts::Dataset("empty"), empty_series}) {
    const auto engine = DistanceMatrixEngine::Create(d, SmallChunkOptions(8));
    ASSERT_FALSE(engine.ok()) << d.name();
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument)
        << d.name();
  }
}

TEST(EngineParityTest, EngineSnapshotSurvivesDatasetMutation) {
  // The engine owns the rows it packed at Create: mutating the dataset
  // afterwards must not change a live engine's answers.
  ts::Dataset d = GaussianDataset(20, 8, 91);
  const auto want = ReferenceKNearest(d, 2, 4);
  auto engine =
      DistanceMatrixEngine::Create(d, SmallChunkOptions(2)).ValueOrDie();
  d[0].mutable_values()[0] += 100.0;
  ExpectNeighborsIdentical(engine.KNearestEuclidean(2, 4).ValueOrDie(), want);
}

// --- End-to-end: the evaluation runner --------------------------------------

TEST(EngineParityTest, SimilarityMatchingIsThreadCountInvariant) {
  const ts::Dataset d = GaussianDataset(40, 24, 61).ZNormalizedCopy();
  const auto spec =
      uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, 0.5);

  auto run_with = [&](std::size_t threads) {
    core::EuclideanMatcher euclid;
    core::Matcher* matchers[] = {&euclid};
    core::RunOptions options;
    options.ground_truth_k = 5;
    options.max_queries = 15;
    options.seed = 77;
    options.threads = threads;
    auto run = core::RunSimilarityMatching(d, spec, matchers, options);
    EXPECT_TRUE(run.ok()) << run.status();
    return std::move(run).ValueOrDie();
  };

  const auto reference = run_with(1);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto got = run_with(threads);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t m = 0; m < got.size(); ++m) {
      EXPECT_EQ(got[m].per_query_f1, reference[m].per_query_f1);
      EXPECT_EQ(got[m].per_query_precision,
                reference[m].per_query_precision);
      EXPECT_EQ(got[m].per_query_recall, reference[m].per_query_recall);
    }
  }
}

TEST(EngineParityTest, DtwGroundTruthIsThreadCountInvariant) {
  const ts::Dataset d = GaussianDataset(20, 12, 71).ZNormalizedCopy();
  const auto spec =
      uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, 0.4);

  auto run_with = [&](std::size_t threads) {
    core::EuclideanMatcher euclid;
    core::Matcher* matchers[] = {&euclid};
    core::RunOptions options;
    options.ground_truth_k = 4;
    options.max_queries = 8;
    options.seed = 78;
    options.threads = threads;
    options.dtw_ground_truth = true;
    options.dtw_ground_truth_band = 3;
    auto run = core::RunSimilarityMatching(d, spec, matchers, options);
    EXPECT_TRUE(run.ok()) << run.status();
    return std::move(run).ValueOrDie();
  };

  const auto reference = run_with(1);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto got = run_with(threads);
    ASSERT_EQ(got.size(), reference.size());
    EXPECT_EQ(got[0].per_query_f1, reference[0].per_query_f1);
  }
}

// --- Store scan (scan.hpp) ---------------------------------------------------

TEST(ScanRowsTest, EveryRowScoredOnceWithinItsBlockAtEveryPoolWidth) {
  // 37 rows in blocks of 8 at a grain of 3: the grain does not divide the
  // block, so every block boundary clips a chunk. Resident stores are one
  // block; the paged twin evicts every unpinned block.
  constexpr std::size_t kRows = 37, kStride = 5, kBlockRows = 8, kGrain = 3;
  std::vector<double> values(kRows * kStride);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i % 11) - 0.25 * static_cast<double>(i);
  }
  std::vector<double> want(kRows, 0.0);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t t = 0; t < kStride; ++t) {
      want[r] += values[r * kStride + t];
    }
  }
  ts::BufferPool::Options pool_options;
  pool_options.budget_bytes = 0;
  for (bool paged : {false, true}) {
    auto store = ts::SoaStore::FromPacked(
        values, kStride,
        paged ? ts::BufferPool::Create(pool_options).ValueOrDie() : nullptr,
        kBlockRows);
    ASSERT_TRUE(store.ok());
    const ts::StoreView view(store.ValueOrDie());
    for (std::size_t threads : {1, 2, 8}) {
      exec::ThreadPool pool(threads);
      const detail::ScanTarget target{
          view, &distance::ResolveDispatch(distance::SimdMode::kAuto), &pool,
          kGrain};
      std::vector<std::atomic<int>> visits(kRows);
      std::atomic<int> bad_chunks{0};
      const std::vector<double> got =
          detail::ScanRows(target, [&](const ts::RowChunk& chunk,
                                       const ts::StoreView::PinnedBlock& pin,
                                       std::span<double> out) {
            const std::size_t block_end =
                pin.first_row() + view.block_row_count(chunk.block);
            if (pin.first_row() != view.block_first_row(chunk.block) ||
                chunk.begin < pin.first_row() || chunk.end > block_end ||
                chunk.end - chunk.begin > kGrain ||
                out.size() != chunk.end - chunk.begin) {
              ++bad_chunks;
              return Status::OK();
            }
            for (std::size_t i = 0; i < out.size(); ++i) {
              ++visits[chunk.begin + i];
              const std::size_t local = chunk.begin + i - pin.first_row();
              out[i] = 0.0;
              for (double v : pin.block().row(local)) out[i] += v;
            }
            return Status::OK();
          }).ValueOrDie();
      EXPECT_EQ(bad_chunks.load(), 0) << "paged=" << paged;
      for (std::size_t r = 0; r < kRows; ++r) {
        EXPECT_EQ(visits[r].load(), 1) << "row " << r << " threads=" << threads;
      }
      EXPECT_EQ(got, want) << "paged=" << paged << " threads=" << threads;
    }
  }
}

TEST(ScanRowsTest, LowestFailingChunkIsReturnedAtEveryPoolWidth) {
  // 40 rows at a grain of 4 are chunks 0..9. Chunks 3, 6 and 9 fail with
  // their own message; every width must report chunk 3's status and no
  // scores, and a scan whose scorer never fails still answers.
  constexpr std::size_t kRows = 40, kGrain = 4;
  auto store = ts::SoaStore::FromPacked(std::vector<double>(kRows, 1.0), 1);
  ASSERT_TRUE(store.ok());
  const detail::ChunkScorer fail_some = [](const ts::RowChunk& chunk,
                                           const ts::StoreView::PinnedBlock&,
                                           std::span<double> out) {
    const std::size_t index = chunk.begin / kGrain;
    if (index % 3 == 0 && index > 0) {
      return Status::IOError("chunk " + std::to_string(index));
    }
    for (double& v : out) v = static_cast<double>(index);
    return Status::OK();
  };
  for (std::size_t threads : {1, 2, 8}) {
    exec::ThreadPool pool(threads);
    const detail::ScanTarget target{
        ts::StoreView(store.ValueOrDie()),
        &distance::ResolveDispatch(distance::SimdMode::kAuto), &pool, kGrain};
    const auto failed = detail::ScanRows(target, fail_some);
    ASSERT_FALSE(failed.ok()) << "threads=" << threads;
    EXPECT_EQ(failed.status(), Status::IOError("chunk 3"))
        << "threads=" << threads;
    const auto scored = detail::ScanRows(
        target, [](const ts::RowChunk&, const ts::StoreView::PinnedBlock&,
                   std::span<double> out) {
          for (double& v : out) v = 2.0;
          return Status::OK();
        });
    ASSERT_TRUE(scored.ok());
    EXPECT_EQ(scored.ValueOrDie(), std::vector<double>(kRows, 2.0));
  }
}

TEST(ScanRowsTest, SelectionsKeepTheReferenceOrder) {
  // Ties on the score break by index in both k-selections; the threshold
  // keeps its boundary and never a NaN; the excluded slot never appears.
  const std::vector<double> finite{0.5, 0.2, 0.5, 0.9, 0.2, 0.1, 0.5};
  const auto smallest = detail::SelectKSmallest(finite, 5, 3);
  ASSERT_EQ(smallest.size(), 3u);
  EXPECT_EQ(smallest[0].index, 1u);
  EXPECT_EQ(smallest[1].index, 4u);
  EXPECT_EQ(smallest[2].index, 0u);
  const auto largest = detail::SelectKLargest(finite, 3, 3);
  ASSERT_EQ(largest.size(), 3u);
  EXPECT_EQ(largest[0].index, 0u);
  EXPECT_EQ(largest[1].index, 2u);
  EXPECT_EQ(largest[2].index, 6u);
  EXPECT_EQ(largest[2].distance, 0.5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> scores{0.5, 0.2, 0.5, 0.9, 0.2, nan, 0.5};
  EXPECT_EQ(detail::SelectThreshold(scores, 2, 0.5, detail::Keep::kAtMost),
            (std::vector<std::size_t>{0, 1, 4, 6}));
  EXPECT_EQ(detail::SelectThreshold(scores, 0, 0.5, detail::Keep::kAtLeast),
            (std::vector<std::size_t>{2, 3, 6}));
  EXPECT_TRUE(detail::SelectKSmallest(finite, 0, 0).empty());
}

}  // namespace
}  // namespace uts::query
