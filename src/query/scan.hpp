/// \file scan.hpp
/// \brief The one store scan of both query engines, the drivers and
/// selections that reduce its output, and the Euclidean measure both
/// engines share.
///
/// Every 1-vs-all store query is one scan (or one index cascade) plus one
/// selection. A measure describes its query as a `MeasureScan`: a
/// `ChunkScorer` over a `ScanTarget`, its order, and the cascade's lower
/// bounds when it has them. `ScanRows` cuts the store into grain-sized
/// chunks clipped at block boundaries, pins each chunk's block and hands
/// it, with the chunk's own output slots, to the scorer on the pool;
/// `ScoreRow` runs a scorer on one row for the cascade's exact stage and
/// for one-pair scores. `KBest` and `WithinRange` pick the cascade or the
/// scan. The selections run after the scan's barrier in ascending index
/// order. This is where rules 1–3 of the determinism contract
/// (docs/ARCHITECTURE.md §3) are enforced for store scans, so a measure
/// supplies only its kernel call.
///
/// Failure channel: a failed pin or a failed scorer comes back as a
/// `Status`, never as a partial answer. `ScanRows` returns the failure of
/// the lowest-indexed failing chunk, so the error is the same at every
/// pool width.

#ifndef UTS_QUERY_SCAN_HPP_
#define UTS_QUERY_SCAN_HPP_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/result.hpp"
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
/// A non-OK return fails the whole scan.
using ChunkScorer =
    std::function<Status(const ts::RowChunk& chunk,
                         const ts::StoreView::PinnedBlock& pin,
                         std::span<double> out)>;

/// \brief One measure's query as the scan drivers run it.
struct MeasureScan {
  ScanTarget target;         ///< The rows the scorer reads.
  ChunkScorer score{};       ///< Scores candidates against the query.
  /// Scores are match probabilities, best first when largest; false for
  /// distances, best first when smallest.
  bool descending = false;
  /// Stage 1 of the index cascade: one admissible lower bound per row.
  /// Null = no cascade, the drivers scan every row.
  std::function<std::vector<double>()> lower_bounds{};
  /// The cascade's exact stage; null = ScoreRow with `score`.
  index::ExactScorer exact{};
  /// The query rows the scorers read, pinned for the scan's lifetime.
  std::vector<ts::StoreView::PinnedRow> pins{};
};

/// One score per row of the target's store, chunk by chunk on the pool:
/// each row is scored once, no chunk crosses a block, and the output is the
/// same at every pool width. A failed pin or scorer returns the status of
/// the lowest-indexed failing chunk and no scores.
Result<std::vector<double>> ScanRows(const ScanTarget& target,
                                     const ChunkScorer& score);

/// Score row `row` with a ChunkScorer-shaped callable as a one-row chunk,
/// pinning its block once; bitwise the value ScanRows gives the row (the
/// kernels are per-row deterministic). Fails as the pin or scorer does.
template <typename Scorer>
Result<double> ScoreRow(const ts::StoreView& view, std::size_t row,
                        const Scorer& score) {
  const std::size_t block = view.block_of(row);
  UTS_ASSIGN_OR_RETURN(const ts::StoreView::PinnedBlock pin, view.Pin(block));
  double value = 0.0;
  UTS_RETURN_NOT_OK(score(ts::RowChunk{block, row, row + 1}, pin,
                          std::span<double>(&value, 1)));
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

/// The k best rows for row `query`, self excluded, in the scan's order with
/// ties by index: the index cascade when the scan has lower bounds, else a
/// full scan, bitwise equal either way. A non-null `cost` is incremented
/// with the query's work accounting.
Result<std::vector<Neighbor>> KBest(const MeasureScan& scan,
                                    std::size_t query, std::size_t k,
                                    index::SearchCost* cost);

/// RQ(Q, C, ε) of a distance scan: rows with score <= ε, self excluded,
/// ascending; cascaded and accounted like KBest.
Result<std::vector<std::size_t>> WithinRange(const MeasureScan& scan,
                                             std::size_t query,
                                             double epsilon,
                                             index::SearchCost* cost);

/// The Euclidean measure of row `query`: the scan's kernel plus, when
/// `target.synopsis` is set, the synopsis lower bounds and an early-abandon
/// exact stage (which counts its abandons in a non-null `cost`). Fails when
/// the query row cannot be pinned.
Result<MeasureScan> EuclideanScan(const ScanTarget& target, std::size_t query,
                                  index::SearchCost* cost);

}  // namespace uts::query::detail

#endif  // UTS_QUERY_SCAN_HPP_
