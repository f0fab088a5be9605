// Out-of-core parity suite for the buffer-pool storage tier (src/ts):
// every engine query over a store paged through a ts::BufferPool — with a
// budget far smaller than the dataset, so blocks really spill and fault —
// must return results bitwise identical (values AND tie order) to the
// fully-resident run, at 1, 2 and 8 threads. The suite also pins the
// pool's accounting contract (peak resident bytes stay within budget plus
// the pinned working set) and stresses concurrent pin/evict traffic from
// ParallelFor workers; CI runs it under TSan, UBSan and ASan+LSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <numeric>
#include <vector>

#include "prob/rng.hpp"
#include "query/engine.hpp"
#include "query/engine_context.hpp"
#include "query/search.hpp"
#include "query/uncertain_engine.hpp"
#include "ts/buffer_pool.hpp"
#include "ts/dataset.hpp"
#include "ts/row_block.hpp"
#include "ts/soa_store.hpp"
#include "ts/store_view.hpp"
#include "uncertain/perturb.hpp"
#include "uncertain/uncertain_series.hpp"

namespace uts {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// Small enough for sanitizer runs, large enough for several blocks at the
// tiny block_rows below.
constexpr std::size_t kSeries = 48;
constexpr std::size_t kLength = 32;
constexpr std::size_t kBlockRows = 8;  // multiple of distance::kQueryBlock
constexpr std::size_t kBlockBytes = kBlockRows * kLength * sizeof(double);

std::shared_ptr<ts::BufferPool> MakePool(std::size_t budget_bytes) {
  ts::BufferPool::Options options;
  options.budget_bytes = budget_bytes;
  return ts::BufferPool::Create(options).ValueOrDie();
}

ts::Dataset GaussianDataset(std::size_t n, std::size_t len,
                            std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("ooc");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = rng.Gaussian();
    d.Add(ts::TimeSeries(std::move(values), int(i % 3)));
  }
  return d;
}

uncertain::UncertainDataset GaussianUncertain(std::size_t n, std::size_t len,
                                              std::uint64_t seed,
                                              prob::ErrorKind kind,
                                              double sigma) {
  auto err = prob::MakeError(kind, sigma);
  prob::Rng rng(seed);
  uncertain::UncertainDataset d;
  d.name = "ooc-uncertain";
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = rng.Gaussian();
    d.series.emplace_back(
        std::move(values),
        std::vector<prob::ErrorDistributionPtr>(len, err));
  }
  return d;
}

void ExpectSameNeighbors(const std::vector<query::Neighbor>& resident,
                         const std::vector<query::Neighbor>& paged) {
  ASSERT_EQ(resident.size(), paged.size());
  for (std::size_t i = 0; i < resident.size(); ++i) {
    EXPECT_EQ(resident[i].index, paged[i].index) << i;
    EXPECT_EQ(resident[i].distance, paged[i].distance) << i;  // bitwise
  }
}

using query::Measure;
using query::Query;
using query::QueryKind;

/// `engine`'s answer to `request`; a failure fails the test and answers
/// nothing.
query::QueryAnswer Ask(const query::UncertainEngine& engine,
                       const Query& request) {
  auto answer = engine.Answer(request);
  EXPECT_TRUE(answer.ok()) << answer.status();
  return answer.ok() ? std::move(answer).ValueOrDie() : query::QueryAnswer{};
}

// --- Store + view mechanics --------------------------------------------------

TEST(OutOfCoreStoreTest, ZeroBudgetRoundTripsEveryRow) {
  // Budget 0: every unpinned block is evicted, so each PinRow below faults
  // its block back from the spill log. The bytes must survive unchanged.
  const std::size_t rows = 37, stride = 16;  // ragged tail block
  prob::Rng rng(7);
  std::vector<double> values(rows * stride);
  for (double& v : values) v = rng.Gaussian();
  const std::vector<double> expected = values;

  auto pool = MakePool(0);
  const ts::SoaStore store =
      ts::SoaStore::FromPacked(std::move(values), stride, pool, 4)
          .ValueOrDie();
  EXPECT_TRUE(store.paged());
  EXPECT_EQ(store.block_rows(), 4u);
  EXPECT_EQ(store.num_blocks(), 10u);  // 9 full blocks + 5-row... (37 = 9*4+1)
  const ts::StoreView view(store);
  for (std::size_t pass = 0; pass < 2; ++pass) {
    for (std::size_t r = 0; r < rows; ++r) {
      const auto pin = ts::PinRowOrAbort(view, r);
      for (std::size_t t = 0; t < stride; ++t) {
        EXPECT_EQ(pin.row()[t], expected[r * stride + t]) << r << "," << t;
      }
    }
  }
  const auto stats = pool->stats();
  EXPECT_GT(stats.faults, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.spilled_bytes, rows * stride * sizeof(double));
}

TEST(OutOfCoreStoreTest, PartitionRowsNeverStraddlesBlocks) {
  auto pool = MakePool(0);
  std::vector<double> values(37 * 8, 1.0);
  const ts::SoaStore store =
      ts::SoaStore::FromPacked(std::move(values), 8, pool, 8).ValueOrDie();
  const ts::StoreView view(store);
  for (std::size_t grain : {1u, 3u, 5u, 8u, 64u}) {
    const auto chunks = ts::PartitionRows(view, grain);
    std::size_t covered = 0;
    for (const ts::RowChunk& chunk : chunks) {
      EXPECT_EQ(chunk.begin, covered);  // contiguous, ascending
      EXPECT_LT(chunk.begin, chunk.end);
      // A chunk lives inside exactly one block.
      EXPECT_EQ(chunk.block, view.block_of(chunk.begin));
      EXPECT_EQ(chunk.block, view.block_of(chunk.end - 1));
      covered = chunk.end;
    }
    EXPECT_EQ(covered, store.rows()) << "grain " << grain;
  }
}

TEST(OutOfCoreStoreTest, ConstructionIsCheckedNotAsserted) {
  // Violations must surface as Status in Release builds too (no assert,
  // no silent truncation).
  EXPECT_FALSE(
      ts::SoaStore::FromPacked(std::vector<double>(7, 0.0), 3).ok());
  EXPECT_FALSE(
      ts::SoaStore::FromPacked(std::vector<double>(4, 0.0), 0).ok());
  auto empty = ts::SoaStore::FromPacked({}, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.ValueOrDie().empty());
}

// --- Certain engine parity ---------------------------------------------------

query::EngineOptions PagedOptions(std::size_t threads, bool indexed,
                                  std::shared_ptr<ts::BufferPool> pool) {
  query::EngineOptions options;
  options.threads = threads;
  options.grain = 16;
  options.index.enabled = indexed;
  options.buffer_pool = std::move(pool);
  options.block_rows = kBlockRows;
  return options;
}

TEST(OutOfCoreCertainTest, PagedBitwiseEqualsResidentAtEveryThreadCount) {
  const ts::Dataset d = GaussianDataset(kSeries, kLength, 11);
  // The reference shares the paged engine's `indexed` flag: the unindexed
  // all-kNN symmetric matrix path uses the multi-query SIMD kernel, which
  // is tolerance-level (not bitwise) against the per-row kernel the index
  // cascade scores with. Indexed-vs-unindexed equality is index_parity_test's
  // contract; this suite pins paged-vs-resident only.
  for (bool indexed : {false, true}) {
    const auto resident = query::DistanceMatrixEngine::Create(
        d, PagedOptions(1, indexed, nullptr)).ValueOrDie();
    const auto knn = resident.KNearestEuclidean(3, 10).ValueOrDie();
    const auto all = resident.AllKNearestEuclidean(5).ValueOrDie();
    const double epsilon = knn[6].distance;  // nonempty, nontrivial range
    const auto range = resident.RangeSearchEuclidean(3, epsilon).ValueOrDie();
    const auto motifs = resident.TopKMotifsEuclidean(4).ValueOrDie();

    for (std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " indexed=" << indexed);
      auto pool = MakePool(2 * kBlockBytes);  // << dataset: real paging
      const auto paged = query::DistanceMatrixEngine::Create(
          d, PagedOptions(threads, indexed, pool)).ValueOrDie();
      {
        SCOPED_TRACE("knn");
        ExpectSameNeighbors(knn, paged.KNearestEuclidean(3, 10).ValueOrDie());
      }
      const auto paged_all = paged.AllKNearestEuclidean(5).ValueOrDie();
      ASSERT_EQ(all.size(), paged_all.size());
      for (std::size_t q = 0; q < all.size(); ++q) {
        SCOPED_TRACE(testing::Message() << "all-knn q=" << q);
        ExpectSameNeighbors(all[q], paged_all[q]);
      }
      EXPECT_EQ(range, paged.RangeSearchEuclidean(3, epsilon).ValueOrDie());
      const auto paged_motifs = paged.TopKMotifsEuclidean(4).ValueOrDie();
      ASSERT_EQ(motifs.size(), paged_motifs.size());
      for (std::size_t i = 0; i < motifs.size(); ++i) {
        EXPECT_EQ(motifs[i].a, paged_motifs[i].a);
        EXPECT_EQ(motifs[i].b, paged_motifs[i].b);
        EXPECT_EQ(motifs[i].distance, paged_motifs[i].distance);
      }
      EXPECT_GT(pool->stats().faults, 0u)
          << "budget below dataset size must actually page";
    }
  }
}

TEST(OutOfCoreCertainTest, PeakResidentStaysWithinBudgetPlusPinnedBlock) {
  // The acceptance contract: a full sweep with the budget far below the
  // packed dataset completes with the pool's high-water mark within budget
  // plus the transiently pinned block (the page being admitted or faulted
  // is exempt from eviction while it is the pin target; the query row's
  // block and the scanned block are both pinned, but they count against
  // the budget the eviction loop enforces).
  const ts::Dataset d = GaussianDataset(kSeries, kLength, 12);
  const std::size_t budget = 2 * kBlockBytes;  // dataset is 6 blocks
  auto pool = MakePool(budget);
  const auto paged = query::DistanceMatrixEngine::Create(
      d, PagedOptions(1, false, pool)).ValueOrDie();
  for (std::size_t q = 0; q < d.size(); ++q) {
    ASSERT_TRUE(paged.KNearestEuclidean(q, 10).ok());
  }
  const auto stats = pool->stats();
  EXPECT_GT(stats.faults, 0u);
  EXPECT_LE(stats.peak_resident_bytes, budget + kBlockBytes);
}

TEST(OutOfCoreCertainTest, ZeroBudgetConcurrentStress) {
  // Budget 0 maximizes evict/fault traffic; 8 workers hammer the pool's
  // single mutex from the chunked ParallelFor partitions. TSan/ASan runs
  // of this test are the storage tier's race/leak gate.
  const ts::Dataset d = GaussianDataset(kSeries, kLength, 13);
  const auto resident = query::DistanceMatrixEngine::Create(
      d, PagedOptions(1, false, nullptr)).ValueOrDie();
  const auto expected = resident.AllKNearestEuclidean(5).ValueOrDie();
  auto pool = MakePool(0);
  const auto paged = query::DistanceMatrixEngine::Create(
      d, PagedOptions(8, false, pool)).ValueOrDie();
  const auto got = paged.AllKNearestEuclidean(5).ValueOrDie();
  ASSERT_EQ(expected.size(), got.size());
  for (std::size_t q = 0; q < expected.size(); ++q) {
    ExpectSameNeighbors(expected[q], got[q]);
  }
  EXPECT_GT(pool->stats().faults, 0u);
}

// --- Uncertain engine parity -------------------------------------------------

query::UncertainEngineOptions PagedUncertainOptions(
    std::size_t threads, bool indexed, std::shared_ptr<ts::BufferPool> pool) {
  query::UncertainEngineOptions options;
  options.threads = threads;
  options.grain = 4;
  options.index.enabled = indexed;
  options.proud_sigma = 0.5;
  options.buffer_pool = std::move(pool);
  options.block_rows = kBlockRows;
  return options;
}

TEST(OutOfCoreUncertainTest, DustPagedBitwiseEqualsResident) {
  // Uniform error: numeric DUST tables, the lookup kernel path.
  const auto d = GaussianUncertain(kSeries, kLength, 21,
                                   prob::ErrorKind::kUniform, 0.5);
  measures::Dust resident_dust;
  auto resident = query::UncertainEngine::Create(
                      d, PagedUncertainOptions(1, false, nullptr))
                      .ValueOrDie();
  ASSERT_TRUE(resident->BuildDustTables(resident_dust).ok());
  Query sweep{.measure = Measure::kDust, .kind = QueryKind::kSweep,
              .query = 2};
  Query knn_query = sweep;
  knn_query.kind = QueryKind::kKnn;
  knn_query.k = 7;
  const auto distances = Ask(*resident, sweep).scores;
  const auto knn = Ask(*resident, knn_query).neighbors;
  ASSERT_EQ(knn.size(), 7u);
  Query range_query = sweep;
  range_query.kind = QueryKind::kRange;
  range_query.epsilon = knn[4].distance;
  const auto range = Ask(*resident, range_query).matches;

  for (std::size_t threads : kThreadCounts) {
    for (bool indexed : {false, true}) {
      auto pool = MakePool(2 * kBlockBytes);
      measures::Dust paged_dust;
      auto paged = query::UncertainEngine::Create(
                       d, PagedUncertainOptions(threads, indexed, pool))
                       .ValueOrDie();
      ASSERT_TRUE(paged->BuildDustTables(paged_dust).ok());
      const auto paged_distances = Ask(*paged, sweep).scores;
      ASSERT_EQ(distances.size(), paged_distances.size());
      for (std::size_t i = 0; i < distances.size(); ++i) {
        EXPECT_EQ(distances[i], paged_distances[i]) << i;
      }
      ExpectSameNeighbors(knn, Ask(*paged, knn_query).neighbors);
      EXPECT_EQ(range, Ask(*paged, range_query).matches);
      EXPECT_GT(pool->stats().faults, 0u);
    }
  }
}

TEST(OutOfCoreUncertainTest, ProudPagedBitwiseEqualsResident) {
  const auto d = GaussianUncertain(kSeries, kLength, 22,
                                   prob::ErrorKind::kNormal, 0.5);
  auto resident = query::UncertainEngine::Create(
                      d, PagedUncertainOptions(1, false, nullptr))
                      .ValueOrDie();
  const Query sweep{.measure = Measure::kProud,
                    .kind = QueryKind::kSweep,
                    .query = 1,
                    .epsilon = 6.0};
  Query prq = sweep;
  prq.kind = QueryKind::kPrq;
  prq.taus = {0.05, 0.3, 0.7, 0.95};
  const auto probs = Ask(*resident, sweep).scores;
  const auto prq_each = Ask(*resident, prq).matches;
  ASSERT_EQ(prq_each.size(), prq.taus.size());

  for (std::size_t threads : kThreadCounts) {
    auto pool = MakePool(2 * kBlockBytes);
    auto paged = query::UncertainEngine::Create(
                     d, PagedUncertainOptions(threads, false, pool))
                     .ValueOrDie();
    const auto paged_probs = Ask(*paged, sweep).scores;
    ASSERT_EQ(probs.size(), paged_probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i) {
      EXPECT_EQ(probs[i], paged_probs[i]) << i;
    }
    EXPECT_EQ(prq_each, Ask(*paged, prq).matches);
    EXPECT_GT(pool->stats().faults, 0u);
  }
}

TEST(OutOfCoreUncertainTest, MunichPagedBitwiseEqualsResident) {
  const ts::Dataset exact = GaussianDataset(16, kLength, 24);
  const auto spec =
      uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, 0.5);
  const auto pdf = uncertain::PerturbDataset(exact, spec, 25);
  const auto samples =
      uncertain::PerturbDatasetMultiSample(exact, spec, 5, 26);

  auto resident = query::UncertainEngine::Create(
                      pdf, PagedUncertainOptions(1, false, nullptr))
                      .ValueOrDie();
  ASSERT_TRUE(resident->AttachSamples(samples).ok());
  const Query sweep{.measure = Measure::kMunich,
                    .kind = QueryKind::kSweep,
                    .epsilon = 4.0};
  const auto probs = Ask(*resident, sweep).scores;

  for (std::size_t threads : kThreadCounts) {
    auto pool = MakePool(2 * kBlockBytes);
    auto paged = query::UncertainEngine::Create(
                     pdf, PagedUncertainOptions(threads, false, pool))
                     .ValueOrDie();
    ASSERT_TRUE(paged->AttachSamples(samples).ok());
    const auto paged_probs = Ask(*paged, sweep).scores;
    ASSERT_EQ(probs.size(), paged_probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i) {
      EXPECT_EQ(probs[i], paged_probs[i]) << i;
    }
  }
}

// --- Context plumbing --------------------------------------------------------

TEST(OutOfCoreContextTest, MemoryBudgetCreatesOnePoolAndKeepsResultsExact) {
  const ts::Dataset d = GaussianDataset(kSeries, kLength, 31);
  const auto reference = query::DistanceMatrixEngine::Create(d)
                             .ValueOrDie()
                             .AllKNearestEuclidean(10)
                             .ValueOrDie();
  std::vector<query::Neighbor> expected;
  for (const auto& row : reference) {
    expected.insert(expected.end(), row.begin(), row.end());
  }

  query::EngineContextOptions options;
  options.threads = 2;
  options.memory_budget_bytes = 2 * kBlockBytes;
  options.block_rows = kBlockRows;
  query::EngineContext context(options);
  auto pool = context.buffer_pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(context.buffer_pool(), pool);  // cached, not re-created
  EXPECT_EQ(context.stats().buffer_pools_created, 1u);

  // The ground truth's transient certain engine pages through the
  // context's pool; its rows equal the resident sweep bit for bit.
  ExpectSameNeighbors(expected,
                      context.GroundTruth(d, 10, kSeries).ValueOrDie());
  EXPECT_GT(pool->stats().admits, 0u);
}

TEST(OutOfCoreContextTest, UnusableSpillDirFailsInsteadOfDroppingTheBudget) {
  // A budget whose spill log cannot be created must not quietly turn into
  // fully-resident stores: the ground-truth sweep and the acquisitions fail
  // with the spill log's error, and nothing is packed.
  const ts::Dataset d = GaussianDataset(kSeries, kLength, 32);
  query::EngineContextOptions options;
  options.memory_budget_bytes = 64 * 1024;
  options.spill_dir = "/nonexistent/spill";
  query::EngineContext context(options);
  EXPECT_EQ(context.buffer_pool(), nullptr);
  EXPECT_EQ(context.GroundTruth(d, 10, kSeries).status().code(),
            StatusCode::kIOError);

  const auto spec =
      uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, 0.5);
  ASSERT_TRUE(context
                  .BindData(uncertain::PerturbDataset(d, spec, 33),
                            std::nullopt, 33, 0.5)
                  .ok());
  EXPECT_EQ(context.Acquire(query::Measure::kEuclidean).status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(context.Acquire(query::Measure::kDust).status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(context.stats().buffer_pools_created, 0u);
  EXPECT_EQ(context.stats().certain_packs, 0u);
  EXPECT_EQ(context.stats().pdf_packs, 0u);
  EXPECT_EQ(context.stats().acquires_declined, 2u);
}

}  // namespace
}  // namespace uts
