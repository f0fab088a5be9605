/// \file scan.hpp
/// \brief The one store scan of both query engines, the selections
/// that reduce its output, and the Euclidean measure both engines share.
///
/// Every 1-vs-all store query is one scan (or one index cascade) plus one
/// selection. `ScanRows` cuts the store into grain-sized chunks clipped at
/// block boundaries, pins each chunk's block and hands it, with the chunk's
/// own output slots, to a measure's `ChunkScorer` on the pool; `ScoreRow`
/// runs a scorer on one row for the cascade's exact stage. The selections
/// run after the scan's barrier in ascending index order. This is where
/// rules 1–3 of the determinism contract (docs/ARCHITECTURE.md §3) are
/// enforced for store scans, so a measure supplies only its kernel call.

#ifndef UTS_QUERY_SCAN_HPP_
#define UTS_QUERY_SCAN_HPP_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "distance/simd.hpp"
#include "exec/thread_pool.hpp"
#include "index/cascade.hpp"
#include "index/synopsis_index.hpp"
#include "query/search.hpp"
#include "ts/store_view.hpp"

namespace uts::query::detail {

/// \brief What a store scan runs over.
struct ScanTarget {
  ts::StoreView view;  ///< The scanned rows; the store outlives the target.
  const distance::KernelDispatch* dispatch;  ///< Resolved kernels.
  exec::ThreadPool* pool;  ///< Executor; null = run inline.
  std::size_t grain;       ///< Candidate rows per chunk (>= 1).
  /// Index over the same rows; null = the Euclidean queries scan unindexed.
  const index::SynopsisIndex* synopsis = nullptr;
};

/// \brief A measure's kernel call: score rows [chunk.begin, chunk.end) of
/// the pinned block into `out` (out[i] is row chunk.begin + i; block-local
/// rows start at chunk.begin - pin.first_row()). Runs concurrently for
/// distinct chunks, so it writes only `out` and caller-owned per-row state.
using ChunkScorer =
    std::function<void(const ts::RowChunk& chunk,
                       const ts::StoreView::PinnedBlock& pin,
                       std::span<double> out)>;

/// One score per row of the target's store, chunk by chunk on the pool:
/// each row is scored once, no chunk crosses a block, and the output is the
/// same at every pool width.
std::vector<double> ScanRows(const ScanTarget& target,
                             const ChunkScorer& score);

/// Score row `row` with a ChunkScorer-shaped callable as a one-row chunk,
/// pinning its block once; bitwise the value ScanRows gives the row (the
/// kernels are per-row deterministic).
template <typename Scorer>
double ScoreRow(const ts::StoreView& view, std::size_t row,
                const Scorer& score) {
  const std::size_t block = view.block_of(row);
  const auto pin = ts::PinOrAbort(view, block);
  double value = 0.0;
  score(ts::RowChunk{block, row, row + 1}, pin, std::span<double>(&value, 1));
  return value;
}

/// Work accounting of a query that scores all `eligible` candidates.
void ChargeFullScan(index::SearchCost* cost, std::size_t eligible);

/// The k smallest scores, ascending, ties by index (query::KNearest's
/// order), skipping slot `exclude`. Scores must be final metric values, not
/// squares, or sqrt-rounding collisions would order differently.
std::vector<Neighbor> SelectKSmallest(std::span<const double> scores,
                                      std::size_t exclude, std::size_t k);

/// The k largest scores, descending, ties by ascending index, skipping slot
/// `exclude`: the order of the probabilistic k-NN queries.
std::vector<Neighbor> SelectKLargest(std::span<const double> scores,
                                     std::size_t exclude, std::size_t k);

/// \brief The side of the threshold SelectThreshold keeps.
enum class Keep {
  kAtMost,   ///< score <= threshold: a range query.
  kAtLeast,  ///< score >= threshold: a probabilistic range query.
};

/// Indices on the kept side of `threshold`, boundary included, ascending,
/// skipping slot `exclude`. A NaN never matches.
std::vector<std::size_t> SelectThreshold(std::span<const double> scores,
                                         std::size_t exclude,
                                         double threshold, Keep keep);

/// k nearest rows of row `query` by Euclidean distance, self excluded,
/// ascending, ties by index: the index cascade when `target.synopsis` is
/// set, else a full scan, bitwise equal either way. A non-null `cost` is
/// incremented with the query's work accounting.
std::vector<Neighbor> KNearestEuclidean(const ScanTarget& target,
                                        std::size_t query, std::size_t k,
                                        index::SearchCost* cost);

/// RQ(Q, C, ε) by Euclidean distance, self excluded, ascending; indexed and
/// accounted like KNearestEuclidean.
std::vector<std::size_t> RangeSearchEuclidean(const ScanTarget& target,
                                              std::size_t query,
                                              double epsilon,
                                              index::SearchCost* cost);

/// Euclidean distance between rows `query` and `row`: the scan's scorer on
/// one row, so bitwise the value KNearestEuclidean and RangeSearchEuclidean
/// compare for `row`.
double EuclideanDistance(const ScanTarget& target, std::size_t query,
                         std::size_t row);

}  // namespace uts::query::detail

#endif  // UTS_QUERY_SCAN_HPP_
