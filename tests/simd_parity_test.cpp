// SIMD-vs-scalar parity for the runtime-dispatched kernels of
// distance/simd.hpp, per the documented numeric policy:
//
//  * DUST (closed-form, lookup-table, classed) — **bitwise** (EXPECT_EQ):
//    the AVX2 kernels evaluate dust(Δ)² lane-exactly and accumulate in the
//    scalar's ascending-timestamp order. The closed form puts one row per
//    lane, so it is also checked at every row count 1–17 and 64, sub-range
//    start and length modulo 4, on ±0, subnormals, ~1e150 and identical
//    rows, and at engine level against measures::Dust::Distance.
//  * Euclidean and PROUD — pinned relative tolerance kRelTol = 1e-12: the
//    AVX2 kernels reassociate the per-pair sum across lanes and contract
//    into FMAs.
//  * Early abandon — per-tile threshold checks must make the same abandon
//    decisions as the scalar per-element checks, probed with adversarial
//    thresholds placed exactly at kAbandonTile boundaries (exact integer
//    arithmetic, so both paths compute boundary partials exactly).
//
// Kernel shapes cover lengths {7, 8, 63, 64, 1024, 1027} — below one vector,
// exact multiples of the unroll widths, the benchmark length, and a
// non-multiple-of-8 tail — and engine-level kNN / PRQ results (ranks and
// tie order) must agree between SimdMode::kAuto and kForceScalar at 1, 2
// and 8 threads. The engine's one-pair Euclidean distance must be bitwise
// the value its scans compare.
//
// On hardware without AVX2 (or with UNCERTTS_DISABLE_AVX2 builds) the two
// dispatch tables coincide; the SIMD-specific assertions are skipped.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "distance/batch.hpp"
#include "distance/simd.hpp"
#include "measures/dust.hpp"
#include "prob/distribution.hpp"
#include "prob/rng.hpp"
#include "query/engine.hpp"
#include "query/uncertain_engine.hpp"
#include "ts/buffer_pool.hpp"
#include "ts/dataset.hpp"
#include "ts/soa_store.hpp"
#include "ts/store_view.hpp"
#include "uncertain/uncertain_series.hpp"

namespace uts::distance {
namespace {

constexpr double kRelTol = 1e-12;
constexpr std::size_t kLengths[] = {7, 8, 63, 64, 1024, 1027};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// True when kAuto resolves to a genuinely different (SIMD) table; the
/// parity tests compare against it, and skip when it is unavailable.
bool SimdAvailable() {
  return ResolveDispatch(SimdMode::kAuto).level != SimdLevel::kScalar;
}

#define UTS_REQUIRE_SIMD()                                              \
  if (!SimdAvailable()) {                                               \
    GTEST_SKIP() << "AVX2 not compiled in / not supported by this CPU"; \
  }

void ExpectRelNear(double got, double want, const char* what,
                   std::size_t index) {
  EXPECT_NEAR(got, want, kRelTol * std::max(1.0, std::fabs(want)))
      << what << " at index " << index;
}

ts::SoaStore RandomStore(std::size_t rows, std::size_t len,
                         std::uint64_t seed) {
  prob::Rng rng(seed);
  std::vector<double> values(rows * len);
  for (double& v : values) v = rng.Gaussian();
  return ts::SoaStore::FromPacked(std::move(values), len).ValueOrDie();
}

/// The single block of a resident test store, in the shape the kernels
/// accept. Resident pins are pointer copies into the store's own storage,
/// so the returned RowBlock outlives the pin guard.
ts::RowBlock Block(const ts::SoaStore& store) {
  const ts::StoreView view(store);
  return ts::PinOrAbort(view, 0).block();
}

std::vector<double> RandomQuery(std::size_t len, std::uint64_t seed) {
  prob::Rng rng(seed);
  std::vector<double> q(len);
  for (double& v : q) v = rng.Gaussian();
  return q;
}

// --- Euclidean (pinned tolerance) -------------------------------------------

TEST(SimdKernelParityTest, SquaredEuclideanRangeWithinTolerance) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  for (std::size_t len : kLengths) {
    const ts::SoaStore store = RandomStore(37, len, 0xe1 + len);
    const ts::RowBlock block = Block(store);
    const std::vector<double> query = RandomQuery(len, 0x90 + len);
    std::vector<double> want(store.rows()), got(store.rows());
    SquaredEuclideanBatchRange(query, block, 0, store.rows(), want);
    simd.squared_euclidean_range(query, block, 0, store.rows(), got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ExpectRelNear(got[i], want[i], "sq-euclid", i);
    }
    // Sub-range calls must agree with the full sweep (chunk invariance).
    std::vector<double> part(5);
    simd.squared_euclidean_range(query, block, 7, 12, part);
    for (std::size_t i = 0; i < part.size(); ++i) {
      EXPECT_EQ(part[i], got[7 + i]) << "len=" << len;
    }
  }
}

TEST(SimdKernelParityTest, MultiQueryWithinToleranceIncludingRemainder) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  for (std::size_t len : {std::size_t{7}, std::size_t{64}, std::size_t{129}}) {
    // 23 queries: 5 full blocks of kQueryBlock plus a 3-query remainder.
    const std::size_t rows = 23;
    const ts::SoaStore store = RandomStore(rows, len, 0x3c + len);
    const ts::RowBlock block = Block(store);
    std::vector<double> want(rows * rows), got(rows * rows);
    SquaredEuclideanMultiQueryBatch(block, 0, rows, block, 0, rows, want,
                                    rows);
    simd.squared_euclidean_multi_query(block, 0, rows, block, 0, rows, got,
                                       rows);
    for (std::size_t i = 0; i < got.size(); ++i) {
      ExpectRelNear(got[i], want[i], "multi-query", i);
    }
  }
}

// --- Early abandon (per-tile checks, adversarial thresholds) -----------------

TEST(SimdKernelParityTest, EarlyAbandonDecisionsAgreeAtTileBoundaries) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  // Integer-valued differences: every square and partial sum is exact in
  // IEEE arithmetic regardless of association, so scalar and SIMD partials
  // are equal and thresholds can sit exactly on tile-boundary sums without
  // any rounding slack.
  const std::size_t len = 3 * kAbandonTile + 5;
  prob::Rng rng(0xab);
  std::vector<double> values;
  const std::size_t rows = 16;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t t = 0; t < len; ++t) {
      values.push_back(static_cast<double>(rng.Next() % 5));
    }
  }
  const ts::SoaStore store =
      ts::SoaStore::FromPacked(std::move(values), len).ValueOrDie();
  const ts::RowBlock block = Block(store);
  const std::vector<double> query(len, 0.0);

  std::vector<double> full(rows);
  SquaredEuclideanBatchRange(query, block, 0, rows, full);

  // Thresholds: exact partial sums of row 0 at the first and second tile
  // boundaries (the adversarial spots: the scalar path crosses mid-tile,
  // the SIMD path only checks at the boundary), one mid-tile value, plus
  // extremes that abandon nothing / everything.
  double boundary1 = 0.0, boundary2 = 0.0, mid = 0.0;
  {
    const std::span<const double> row = block.row(0);
    for (std::size_t t = 0; t < kAbandonTile; ++t) boundary1 += row[t] * row[t];
    boundary2 = boundary1;
    for (std::size_t t = kAbandonTile; t < 2 * kAbandonTile; ++t) {
      boundary2 += row[t] * row[t];
    }
    mid = boundary1;
    for (std::size_t t = kAbandonTile; t < kAbandonTile + 7; ++t) {
      mid += row[t] * row[t];
    }
  }
  const double thresholds[] = {boundary1, boundary1 - 1.0, boundary1 + 1.0,
                               boundary2, mid, 0.0, 1e18};

  for (double threshold_sq : thresholds) {
    std::vector<double> scalar_out(rows), simd_out(rows);
    SquaredEuclideanEarlyAbandonBatchRange(query, block, threshold_sq, 0,
                                           rows, scalar_out);
    simd.squared_euclidean_early_abandon_range(query, block, threshold_sq, 0,
                                               rows, simd_out);
    for (std::size_t i = 0; i < rows; ++i) {
      // The abandon decision must agree between the paths...
      EXPECT_EQ(scalar_out[i] <= threshold_sq, simd_out[i] <= threshold_sq)
          << "threshold " << threshold_sq << " row " << i;
      if (full[i] <= threshold_sq) {
        // ...surviving candidates report the exact squared distance (exact
        // here: integer arithmetic)...
        EXPECT_EQ(simd_out[i], full[i]) << "row " << i;
        EXPECT_EQ(scalar_out[i], full[i]) << "row " << i;
      } else {
        // ...and abandoned candidates report some partial sum exceeding the
        // threshold.
        EXPECT_GT(simd_out[i], threshold_sq) << "row " << i;
        EXPECT_GT(scalar_out[i], threshold_sq) << "row " << i;
        EXPECT_LE(simd_out[i], full[i]) << "row " << i;
      }
    }
  }
}

// --- DUST (bitwise) ----------------------------------------------------------

/// Values in the shapes that could break a rows-across-lanes sum: ±0,
/// subnormals, values near 1e150 (single rows only, so their sums stay
/// finite) and rows identical to their predecessor, over Gaussian
/// background.
std::vector<double> ClosedFormAdversarialRows(std::size_t rows,
                                              std::size_t len,
                                              std::uint64_t seed) {
  prob::Rng rng(seed);
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> values(rows * len);
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = values.data() + r * len;
    if (r % 5 == 4) {  // a copy of the previous row
      std::copy(row - len, row, row);
      continue;
    }
    for (std::size_t t = 0; t < len; ++t) {
      double v = rng.Gaussian();
      switch ((r + t) % 6) {
        case 0:
          v = 0.0;
          break;
        case 1:
          v = -0.0;
          break;
        case 2:
          v = tiny * static_cast<double>(1 + rng.Next() % 4096);
          break;
        case 3:
          if (r % 5 == 2) v *= 1e150;
          break;
        default:
          break;
      }
      row[t] = v;
    }
  }
  return values;
}

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

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

TEST(SimdKernelParityTest, DustClosedFormBitwise) {
  // The closed-form kernel scores eight rows per pass, one per lane, over
  // whole 4-timestamp tiles, and finishes leftover timestamps and leftover
  // rows in scalar: every row count, sub-range start, and length modulo 4
  // around those splits must reproduce the scalar kernel bit for bit.
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  DustLut lut;
  lut.scale = 1.0 / std::sqrt(2.0 * (0.25 + 0.49));
  std::vector<std::size_t> row_counts;
  for (std::size_t rows = 1; rows <= 17; ++rows) row_counts.push_back(rows);
  row_counts.push_back(64);
  for (std::size_t len : {1, 3, 4, 5, 7, 8, 63, 64, 1024, 1027}) {
    // The query shares the rows' shapes, so Δ is ±0 − ±0, subnormal −
    // subnormal and so on at the same timestamps.
    const std::vector<double> query =
        ClosedFormAdversarialRows(1, len, 0xc1 + len);
    for (std::size_t rows : row_counts) {
      const ts::SoaStore store = ts::SoaStore::FromPacked(
          ClosedFormAdversarialRows(rows, len, 0xc0 + rows * len), len)
                                     .ValueOrDie();
      const ts::RowBlock block = Block(store);
      for (std::size_t begin : {0, 1, 3, 5}) {
        for (std::size_t end = begin + 1; end <= rows; ++end) {
          std::vector<double> want(end - begin), got(end - begin);
          DustBatchRange(query, block, lut, begin, end, want);
          simd.dust_range(query, block, lut, begin, end, got);
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(Bits(got[i]), Bits(want[i]))
                << "len=" << len << " rows=" << rows << " [" << begin << ", "
                << end << ") row " << begin + i;
          }
        }
      }
    }
  }
}

/// A synthetic non-linear table so interpolation errors cannot hide.
struct OwnedLut {
  std::vector<double> cells;
  DustLut view;
};

OwnedLut MakeTableLut(std::size_t size, double delta_max, double bias) {
  OwnedLut lut;
  lut.cells.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(size - 1);
    lut.cells[i] = bias + std::sqrt(x) + 0.25 * std::sin(9.0 * x);
  }
  lut.view.values = lut.cells.data();
  lut.view.size = size;
  lut.view.delta_max = delta_max;
  lut.view.step = delta_max / static_cast<double>(size - 1);
  return lut;
}

TEST(SimdKernelParityTest, DustLookupTableBitwise) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  const OwnedLut lut = MakeTableLut(257, 4.0, 0.1);
  for (std::size_t len : kLengths) {
    // Half Gaussian deltas (interpolated lookups), plus exact grid nodes
    // (frac == 0), values beyond delta_max (clamp) and values in the last
    // cell (the idx + 1 >= size guard).
    prob::Rng rng(0x17 + len);
    std::vector<double> values(11 * len);
    for (std::size_t i = 0; i < values.size(); ++i) {
      switch (i % 4) {
        case 0:
          values[i] = rng.Gaussian();
          break;
        case 1:  // exact grid node
          values[i] = lut.view.step * static_cast<double>(rng.Next() % 257);
          break;
        case 2:  // beyond the clamp
          values[i] = 4.0 + static_cast<double>(rng.Next() % 7);
          break;
        default:  // inside the last cell
          values[i] = 4.0 - 0.5 * lut.view.step;
      }
    }
    const ts::SoaStore store =
        ts::SoaStore::FromPacked(std::move(values), len).ValueOrDie();
    const ts::RowBlock block = Block(store);
    const std::vector<double> query(len, 0.0);
    std::vector<double> want(store.rows()), got(store.rows());
    DustBatchRange(query, block, lut.view, 0, store.rows(), want);
    simd.dust_range(query, block, lut.view, 0, store.rows(), got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "len=" << len << " row " << i;
    }
  }
}

TEST(SimdKernelParityTest, DustClassedBitwiseAcrossRunShapes) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  const OwnedLut t00 = MakeTableLut(129, 3.0, 0.05);
  const OwnedLut t01 = MakeTableLut(193, 5.0, 0.2);
  DustLut closed;  // mixed closed-form / table pairs in one row
  closed.scale = 0.9;
  const DustLut lut_row0[] = {t00.view, t01.view};
  const DustLut lut_row1[] = {closed, t00.view};

  for (std::size_t len : {std::size_t{8}, std::size_t{64}, std::size_t{75}}) {
    const std::size_t rows = 9;
    const ts::SoaStore store = RandomStore(rows, len, 0xc1a + len);
    const ts::RowBlock block = Block(store);
    const std::vector<double> query = RandomQuery(len, 0xc1b + len);

    // Query-side lut rows: constant for the first half of the timestamps,
    // switching in the second half (ends one maximal run and starts
    // another).
    std::vector<const DustLut*> qluts(len);
    for (std::size_t t = 0; t < len; ++t) {
      qluts[t] = t < len / 2 ? lut_row0 : lut_row1;
    }
    // Candidate class ids in every run shape: per-series-constant rows
    // (full vector runs), alternating ids (scalar fallback), and 16-blocks
    // (mixed run lengths crossing the switch of qluts).
    std::vector<std::uint16_t> ids(rows * len);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t t = 0; t < len; ++t) {
        std::uint16_t id = 0;
        if (r % 3 == 0) id = r % 2;
        if (r % 3 == 1) id = t % 2;
        if (r % 3 == 2) id = (t / 16) % 2;
        ids[r * len + t] = id;
      }
    }
    std::vector<double> want(rows), got(rows);
    DustClassedBatchRange(query, block, qluts, ids, 0, rows, want);
    simd.dust_classed_range(query, block, qluts, ids, 0, rows, got);
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(got[i], want[i]) << "len=" << len << " row " << i;
    }
  }
}

// --- PROUD (pinned tolerance) ------------------------------------------------

TEST(SimdKernelParityTest, ProudMomentWithinTolerance) {
  UTS_REQUIRE_SIMD();
  const KernelDispatch& simd = ResolveDispatch(SimdMode::kAuto);
  const double v = 2.0 * 0.5 * 0.5;
  for (std::size_t len : kLengths) {
    const ts::SoaStore store = RandomStore(21, len, 0x9d + len);
    const ts::RowBlock block = Block(store);
    const std::vector<double> query = RandomQuery(len, 0x9e + len);
    std::vector<double> want_mean(store.rows()), want_var(store.rows());
    std::vector<double> got_mean(store.rows()), got_var(store.rows());
    ProudMomentBatchRange(query, block, v, 0, store.rows(), want_mean,
                          want_var);
    simd.proud_moment_range(query, block, v, 0, store.rows(), got_mean,
                            got_var);
    for (std::size_t i = 0; i < store.rows(); ++i) {
      ExpectRelNear(got_mean[i], want_mean[i], "proud-mean", i);
      ExpectRelNear(got_var[i], want_var[i], "proud-var", i);
    }
  }
}

// --- Dispatch resolution -----------------------------------------------------

TEST(SimdDispatchTest, ForceScalarModePinsScalarTable) {
  EXPECT_EQ(ResolveDispatch(SimdMode::kForceScalar).level,
            SimdLevel::kScalar);
  EXPECT_EQ(ScalarDispatch().level, SimdLevel::kScalar);
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(SimdDispatchTest, EnvironmentOverrideForcesScalar) {
  ASSERT_EQ(setenv("UNCERTTS_FORCE_SCALAR", "1", 1), 0);
  EXPECT_TRUE(ForceScalarEnv());
  EXPECT_EQ(ResolveDispatch(SimdMode::kAuto).level, SimdLevel::kScalar);
  ASSERT_EQ(setenv("UNCERTTS_FORCE_SCALAR", "0", 1), 0);
  EXPECT_FALSE(ForceScalarEnv());
  ASSERT_EQ(unsetenv("UNCERTTS_FORCE_SCALAR"), 0);
  EXPECT_FALSE(ForceScalarEnv());
}

TEST(SimdDispatchTest, AutoMatchesCompiledAndProbedCapability) {
  const bool expect_avx2 = Avx2CompiledIn() && CpuSupportsAvx2() &&
                           !ForceScalarEnv();
  EXPECT_EQ(ResolveDispatch(SimdMode::kAuto).level,
            expect_avx2 ? SimdLevel::kAvx2 : SimdLevel::kScalar);
}

// --- Engine-level result-set equality ---------------------------------------

ts::Dataset GaussianDataset(std::size_t n, std::size_t len,
                            std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("simd-gauss");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = rng.Gaussian();
    d.Add(ts::TimeSeries(std::move(values), static_cast<int>(i % 2)));
  }
  return d;
}

/// {0, 1}-valued series: many exactly-tied distances, and every distance is
/// a sum of small integers — exact in both kernel paths — so tie order must
/// match bitwise even under SIMD.
ts::Dataset TieHeavyDataset(std::size_t n, std::size_t len,
                            std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("simd-ties");
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> values(len);
    for (double& v : values) v = static_cast<double>(rng.Next() % 2);
    d.Add(ts::TimeSeries(std::move(values), static_cast<int>(i % 2)));
  }
  return d;
}

query::EngineOptions EngineOpts(std::size_t threads, SimdMode simd) {
  query::EngineOptions options;
  options.threads = threads;
  options.grain = 16;
  options.simd = simd;
  return options;
}

TEST(SimdEngineParityTest, EuclideanQueriesMatchScalarEngine) {
  UTS_REQUIRE_SIMD();
  for (const ts::Dataset& d :
       {GaussianDataset(60, 33, 0x51), TieHeavyDataset(60, 16, 0x52)}) {
    for (std::size_t threads : kThreadCounts) {
      const auto scalar = query::DistanceMatrixEngine::Create(
          d, EngineOpts(threads, SimdMode::kForceScalar)).ValueOrDie();
      const auto simd = query::DistanceMatrixEngine::Create(
          d, EngineOpts(threads, SimdMode::kAuto)).ValueOrDie();
      ASSERT_EQ(simd.simd_level(), SimdLevel::kAvx2);
      ASSERT_EQ(scalar.simd_level(), SimdLevel::kScalar);

      for (std::size_t q : {std::size_t{0}, std::size_t{17}}) {
        const auto want = scalar.KNearestEuclidean(q, 10).ValueOrDie();
        const auto got = simd.KNearestEuclidean(q, 10).ValueOrDie();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          // Ranks and tie order must match exactly.
          EXPECT_EQ(got[i].index, want[i].index)
              << d.name() << " q=" << q << " rank " << i;
          ExpectRelNear(got[i].distance, want[i].distance, "knn-dist", i);
        }
        const double epsilon = want.back().distance;
        EXPECT_EQ(simd.RangeSearchEuclidean(q, epsilon).ValueOrDie(),
                  scalar.RangeSearchEuclidean(q, epsilon).ValueOrDie())
            << d.name() << " q=" << q;
      }

      const auto want_all = scalar.AllKNearestEuclidean(5);
      const auto got_all = simd.AllKNearestEuclidean(5);
      ASSERT_EQ(got_all.size(), want_all.size());
      for (std::size_t q = 0; q < got_all.size(); ++q) {
        ASSERT_EQ(got_all[q].size(), want_all[q].size());
        for (std::size_t i = 0; i < got_all[q].size(); ++i) {
          EXPECT_EQ(got_all[q][i].index, want_all[q][i].index)
              << d.name() << " q=" << q << " rank " << i;
        }
      }
    }
  }
}

uncertain::UncertainDataset MixedClassUncertain(std::size_t n,
                                                std::size_t len,
                                                std::uint64_t seed) {
  prob::Rng rng(seed);
  uncertain::UncertainDataset d;
  d.name = "simd-uncertain";
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> obs(len);
    std::vector<prob::ErrorDistributionPtr> errors(len);
    // Per-series-constant σ from a 3-value grid: 3 error classes, so the
    // classed DUST kernel (maximal-run path) is what the engine executes.
    auto err = prob::MakeNormalError(0.3 + 0.2 * static_cast<double>(s % 3));
    for (std::size_t t = 0; t < len; ++t) {
      obs[t] = rng.Gaussian();
      errors[t] = err;
    }
    d.series.emplace_back(std::move(obs), std::move(errors));
  }
  return d;
}

query::UncertainEngineOptions UncertainOpts(std::size_t threads,
                                            SimdMode simd) {
  query::UncertainEngineOptions options;
  options.threads = threads;
  options.grain = 8;
  options.simd = simd;
  options.proud_sigma = 0.5;
  return options;
}

TEST(SimdEngineParityTest, DustAndProudQueriesMatchScalarEngine) {
  UTS_REQUIRE_SIMD();
  const uncertain::UncertainDataset d = MixedClassUncertain(40, 33, 0x61);
  for (std::size_t threads : kThreadCounts) {
    measures::Dust scalar_dust, simd_dust;
    auto scalar_r =
        query::UncertainEngine::Create(d, UncertainOpts(threads,
                                                        SimdMode::kForceScalar));
    auto simd_r =
        query::UncertainEngine::Create(d, UncertainOpts(threads,
                                                        SimdMode::kAuto));
    ASSERT_TRUE(scalar_r.ok() && simd_r.ok());
    auto& scalar = *scalar_r.ValueOrDie();
    auto& simd = *simd_r.ValueOrDie();
    ASSERT_EQ(simd.simd_level(), SimdLevel::kAvx2);
    ASSERT_TRUE(scalar.BuildDustTables(scalar_dust).ok());
    ASSERT_TRUE(simd.BuildDustTables(simd_dust).ok());

    for (std::size_t q : {std::size_t{0}, std::size_t{13}}) {
      // DUST is bitwise: distances, ranks and tie order all EXPECT_EQ.
      Query dust{.measure = query::Measure::kDust,
                 .kind = QueryKind::kSweep,
                 .query = q,
                 .k = 7};
      EXPECT_EQ(Ask(simd, dust).scores, Ask(scalar, dust).scores)
          << "q=" << q;
      dust.kind = QueryKind::kKnn;
      const auto want_knn = Ask(scalar, dust).neighbors;
      const auto got_knn = Ask(simd, dust).neighbors;
      ASSERT_EQ(got_knn.size(), want_knn.size());
      for (std::size_t i = 0; i < got_knn.size(); ++i) {
        EXPECT_EQ(got_knn[i].index, want_knn[i].index);
        EXPECT_EQ(got_knn[i].distance, want_knn[i].distance);
      }

      // PROUD PRQ: the match set (ranks and membership) must agree; the
      // probabilities behind it are within the pinned tolerance. A τ list:
      // each slot equals the single-τ query, on both levels. Match
      // probabilities at ε = 6 sit far below 0.5, so the list reaches into
      // the lower tail, where the slots differ.
      Query proud{.measure = query::Measure::kProud,
                  .kind = QueryKind::kPrq,
                  .query = q,
                  .epsilon = 6.0,
                  .taus = {1e-8, 1e-4, 0.6}};
      const auto simd_each = Ask(simd, proud).matches;
      EXPECT_EQ(simd_each, Ask(scalar, proud).matches) << "q=" << q;
      ASSERT_EQ(simd_each.size(), 3u);
      EXPECT_GT(simd_each[0].size(), simd_each[1].size()) << "q=" << q;
      const std::vector<double> taus = proud.taus;
      for (std::size_t k = 0; k < taus.size(); ++k) {
        proud.taus = {taus[k]};
        EXPECT_EQ(Ask(simd, proud).matches.front(), simd_each[k])
            << "q=" << q << " tau=" << taus[k];
      }
      proud.kind = QueryKind::kSweep;
      const auto want_p = Ask(scalar, proud).scores;
      const auto got_p = Ask(simd, proud).scores;
      ASSERT_EQ(got_p.size(), want_p.size());
      for (std::size_t i = 0; i < got_p.size(); ++i) {
        ExpectRelNear(got_p[i], want_p[i], "proud-prob", i);
      }
    }
  }
}

/// Engine options for the closed-form and Euclidean engine checks below:
/// `grain` rows per chunk, and, when `paged`, blocks of 12 rows paged
/// through a pool that holds two of them.
query::UncertainEngineOptions ChunkedOpts(std::size_t threads,
                                          std::size_t grain, bool paged,
                                          std::size_t len) {
  query::UncertainEngineOptions options;
  options.threads = threads;
  options.grain = grain;
  options.simd = SimdMode::kAuto;
  if (paged) {
    constexpr std::size_t kBlockRows = 12;
    ts::BufferPool::Options pool_options;
    pool_options.budget_bytes = 2 * kBlockRows * len * sizeof(double);
    options.buffer_pool = ts::BufferPool::Create(pool_options).ValueOrDie();
    options.block_rows = kBlockRows;
  }
  return options;
}

/// Gaussian observations under one constant normal error model (DUST's
/// closed form), with every fifth series a copy of its predecessor.
uncertain::UncertainDataset ConstantNormalUncertain(std::size_t n,
                                                    std::size_t len,
                                                    std::uint64_t seed) {
  prob::Rng rng(seed);
  const auto err = prob::MakeNormalError(0.5);
  uncertain::UncertainDataset d;
  d.name = "simd-closed-form";
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> obs(len);
    for (double& v : obs) v = rng.Gaussian();
    if (s % 5 == 4) obs = d.series.back().observations();
    d.series.emplace_back(std::move(obs),
                          std::vector<prob::ErrorDistributionPtr>(len, err));
  }
  return d;
}

TEST(SimdEngineParityTest, DustClosedFormSweepMatchesScalarMeasureBitwise) {
  // Grains 3 and 5 hand the kernel chunks shorter than one 8-row pass;
  // grain 64 hands it whole passes plus leftovers (clipped at 12-row blocks
  // when paged).
  const std::size_t len = 37;
  const uncertain::UncertainDataset d = ConstantNormalUncertain(41, len, 0x71);
  measures::Dust reference;
  for (std::size_t q : {std::size_t{0}, std::size_t{13}}) {
    std::vector<std::uint64_t> want;
    for (std::size_t i = 0; i < d.size(); ++i) {
      want.push_back(Bits(reference.Distance(d[q], d[i]).ValueOrDie()));
    }
    for (std::size_t grain : {3, 5, 64}) {
      for (bool paged : {false, true}) {
        for (std::size_t threads : kThreadCounts) {
          SCOPED_TRACE(testing::Message() << "q=" << q << " grain=" << grain
                                          << " paged=" << paged
                                          << " threads=" << threads);
          auto engine = query::UncertainEngine::Create(
                            d, ChunkedOpts(threads, grain, paged, len))
                            .ValueOrDie();
          if (SimdAvailable()) {
            ASSERT_EQ(engine->simd_level(), SimdLevel::kAvx2);
          }
          measures::Dust cache;
          ASSERT_TRUE(engine->BuildDustTables(cache).ok());
          const std::vector<double> got =
              Ask(*engine, {.measure = query::Measure::kDust,
                            .kind = QueryKind::kSweep,
                            .query = q})
                  .scores;
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(Bits(got[i]), want[i]) << "candidate " << i;
          }
        }
      }
    }
  }
}

TEST(SimdEngineParityTest, EuclideanDistanceIsTheScanValueBitwise) {
  // The Euclidean matcher calibrates ε with a one-pair score and retrieves
  // with the range scan; the two must be one kernel's values, at any chunk
  // shape and paged, so the calibration candidate is always in range.
  const std::size_t len = 37;
  const uncertain::UncertainDataset d = ConstantNormalUncertain(41, len, 0x72);
  for (std::size_t grain : {3, 5}) {
    for (bool paged : {false, true}) {
      SCOPED_TRACE(testing::Message() << "grain=" << grain
                                      << " paged=" << paged);
      auto engine = query::UncertainEngine::Create(
                        d, ChunkedOpts(2, grain, paged, len))
                        .ValueOrDie();
      for (std::size_t q : {std::size_t{0}, std::size_t{13}, std::size_t{40}}) {
        // Every other row, with the scan's distance.
        Query request{.kind = QueryKind::kKnn, .query = q, .k = d.size()};
        for (const query::Neighbor& nb : Ask(*engine, request).neighbors) {
          request.kind = QueryKind::kScore;
          request.candidate = nb.index;
          const double got = Ask(*engine, request).scores.front();
          EXPECT_EQ(Bits(got), Bits(nb.distance))
              << "q=" << q << " c=" << nb.index;
          request.kind = QueryKind::kRange;
          request.epsilon = got;
          const auto in_range = Ask(*engine, request).matches.front();
          EXPECT_TRUE(std::binary_search(in_range.begin(), in_range.end(),
                                         nb.index))
              << "q=" << q << " c=" << nb.index;
        }
      }
    }
  }
}

}  // namespace
}  // namespace uts::distance
