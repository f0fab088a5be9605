/// \file batch.hpp
/// \brief Blocked batch distance kernels over pinned SoA row blocks.
///
/// One query is compared against a contiguous run of candidate rows in a
/// single streaming pass. The kernels never see a store: they take a
/// `ts::RowBlock` — one pinned block handed out by `ts::StoreView` — with
/// *block-local* row ranges, so the same code serves fully-resident stores
/// (one block covering every row) and pool-paged larger-than-RAM stores.
/// Per pair, values are accumulated in exactly the same order as the scalar
/// kernels in lp.hpp (one accumulator, ascending timestamp), so each batch
/// result is bit-identical to calling the corresponding scalar kernel row
/// by row (see the per-kernel docs) — that identity is what the parallel
/// query engine's determinism guarantee rests on. The speedup comes purely
/// from the layout (no per-series pointer chasing, no per-candidate
/// `std::function` dispatch) and from deferring the `sqrt` until a caller
/// actually needs a metric value.
///
/// The whole-store convenience wrappers at the bottom keep the historical
/// `ts::SoaStore` signatures for tests and benchmarks; they pin each block
/// through a StoreView and require a resident store.

#ifndef UTS_DISTANCE_BATCH_HPP_
#define UTS_DISTANCE_BATCH_HPP_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "ts/row_block.hpp"
#include "ts/soa_store.hpp"

namespace uts::distance {

/// \brief Queries per block of the multi-query kernel; re-exported from the
/// storage tier's geometry (ts/row_block.hpp), which blocks stores so query
/// blocks never straddle a storage block.
inline constexpr std::size_t kQueryBlock = ts::kQueryBlock;

/// \brief Cache-block size of the multi-query kernels' candidate tiling, in
/// bytes; re-exported from ts/row_block.hpp (see there for the sizing
/// rationale and the bitwise-invariance argument).
inline constexpr std::size_t kCandidateTileBytes = ts::kCandidateTileBytes;

/// \brief Candidate rows per tile for a given row stride; re-exported from
/// ts/row_block.hpp.
inline constexpr std::size_t CandidateTileRows(std::size_t stride) {
  return ts::CandidateTileRows(stride);
}

/// \brief out[i - row_begin] = squared Euclidean distance from `query` to
/// block row i, for block-local rows [row_begin, row_end). This is the unit
/// the parallel engine hands to one worker chunk. Preconditions:
/// query.size() == block.stride(), out.size() == row_end - row_begin.
void SquaredEuclideanBatchRange(std::span<const double> query,
                                const ts::RowBlock& block,
                                std::size_t row_begin, std::size_t row_end,
                                std::span<double> out);

/// \brief Row-range Euclidean variant (sqrt applied).
void EuclideanBatchRange(std::span<const double> query,
                         const ts::RowBlock& block, std::size_t row_begin,
                         std::size_t row_end, std::span<double> out);

/// \brief All-pairs building block: squared Euclidean distances from query
/// rows [query_begin, query_end) of the pinned block `queries` to candidate
/// rows [row_begin, row_end) of the pinned block `candidates` (both ranges
/// block-local; the blocks may be the same pin or pins of different blocks
/// of one store).
/// out[(q - query_begin) * out_stride + (r - row_begin)] is the distance of
/// pair (q, r); `out_stride` is the pitch between consecutive query rows of
/// `out` (pass row_end - row_begin for a dense block, or a full matrix
/// pitch to scatter a triangle into it). Each candidate row is loaded once
/// per kQueryBlock queries, and every pair's sum still accumulates in
/// ascending timestamp order with one accumulator — bit-identical to
/// SquaredEuclidean(row(q), row(r)). The AVX2 form also runs one chain per
/// pair whether or not its query fills a block of kQueryBlock, so a pair's
/// value never depends on the query range it is swept with.
void SquaredEuclideanMultiQueryBatch(const ts::RowBlock& queries,
                                     std::size_t query_begin,
                                     std::size_t query_end,
                                     const ts::RowBlock& candidates,
                                     std::size_t row_begin,
                                     std::size_t row_end,
                                     std::span<double> out,
                                     std::size_t out_stride);

/// \brief Immutable view of one DUST per-point dissimilarity table: either a
/// piecewise-linear lookup over |Δ| (the numeric-integration path) or the
/// normal-error closed form dust(Δ) = |Δ| · scale with
/// scale = 1 / sqrt(2 (σx² + σy²)).
///
/// `Eval` is the single evaluation routine shared by the scalar measure
/// (measures::DustTable::Dust delegates here) and the batch kernels below,
/// so the two paths are bit-identical by construction. Views borrow the
/// table storage; the owner must outlive them. A view is trivially shareable
/// across threads once built.
struct DustLut {
  const double* values = nullptr;  ///< Table cells; nullptr => closed form.
  std::size_t size = 0;            ///< Number of cells.
  double step = 0.0;               ///< Δ between consecutive cells.
  double delta_max = 0.0;          ///< Δ of the last cell (clamp beyond).
  double scale = 0.0;              ///< Closed-form Gaussian scale.

  /// dust(Δ); linear interpolation between cells, clamped at delta_max.
  double Eval(double delta) const {
    delta = std::fabs(delta);
    if (values == nullptr) return delta * scale;
    if (delta >= delta_max) return values[size - 1];
    const double pos = delta / step;
    const auto idx = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(idx);
    if (idx + 1 >= size) return values[size - 1];
    return values[idx] * (1.0 - frac) + values[idx + 1] * frac;
  }
};

/// \brief DUST 1-vs-all sweep, single shared error pair: out[r - row_begin] =
/// sqrt( Σ_t dust(q[t] - row[t])² ) with every point evaluated through `lut`.
/// The accumulation order (one sum, ascending timestamp) matches
/// measures::Dust::Distance exactly, so results are bit-identical to the
/// scalar path. The closed-form case needs no table loads at all — this is
/// the hot path for the paper's constant-σ normal-error experiments.
void DustBatchRange(std::span<const double> query, const ts::RowBlock& block,
                    const DustLut& lut, std::size_t row_begin,
                    std::size_t row_end, std::span<double> out);

/// \brief DUST 1-vs-all sweep with per-point error classes. `class_ids` is
/// the block-local slice of the class matrix: candidate r's error class at
/// timestamp t is `class_ids[r * block.stride() + t]` with r block-local
/// (the caller subspans the full matrix at the block's first row).
/// `query_luts[t]` points at the K-entry row of the pair-table matrix
/// selected by the query's own class at t, so the table of the point pair is
/// `query_luts[t][class_ids[...]]`. Same accumulation order as the scalar
/// measure (bit-identical results).
void DustClassedBatchRange(std::span<const double> query,
                           const ts::RowBlock& block,
                           std::span<const DustLut* const> query_luts,
                           std::span<const std::uint16_t> class_ids,
                           std::size_t row_begin, std::size_t row_end,
                           std::span<double> out);

/// \brief PROUD constant-σ moment sweep (v = 2σ²): for each candidate row,
/// one contiguous pass accumulating — in exactly the order of
/// measures::Proud::DistanceStats —
///   mean_out[r - row_begin] = Σ_t ((q[t] - row[t])² + v)
///   var_out[r - row_begin]  = Σ_t (2v² + 4 (q[t] - row[t])² v)
/// Results are bit-identical to calling the scalar DistanceStats per pair.
void ProudMomentBatchRange(std::span<const double> query,
                           const ts::RowBlock& block, double v,
                           std::size_t row_begin, std::size_t row_end,
                           std::span<double> mean_out,
                           std::span<double> var_out);

/// \brief Early-abandoning range kernel: out[r - row_begin] is the exact
/// squared distance when it is <= threshold_sq, otherwise the first running
/// sum that exceeded threshold_sq (a value > threshold_sq). Because partial
/// sums of squares are nondecreasing, any decision of the form
/// `out[i] <= t` with t <= threshold_sq is exact. This is the cascade's
/// stage-2 filter and the unit the dispatch layer hands to one worker chunk.
void SquaredEuclideanEarlyAbandonBatchRange(std::span<const double> query,
                                            const ts::RowBlock& block,
                                            double threshold_sq,
                                            std::size_t row_begin,
                                            std::size_t row_end,
                                            std::span<double> out);

// ---------------------------------------------------------------------------
// Whole-store convenience wrappers (tests, benchmarks, scalar fallbacks).
// They pin blocks through a ts::StoreView internally and require a
// *resident* store — engine code paths use the RowBlock kernels above with
// pins they manage themselves.
// ---------------------------------------------------------------------------

/// \brief out[i] = squared Euclidean distance from `query` to row i.
/// Preconditions: resident store, query.size() == store.stride(),
/// out.size() == store.rows().
void SquaredEuclideanBatch(std::span<const double> query,
                           const ts::SoaStore& store, std::span<double> out);

/// \brief out[i] = Euclidean distance from `query` to row i (sqrt applied).
/// Precondition: resident store.
void EuclideanBatch(std::span<const double> query, const ts::SoaStore& store,
                    std::span<double> out);

/// \brief out[i] = Minkowski distance with exponent p >= 1 from `query` to
/// row i. p = 1 and p = 2 take the Manhattan / Euclidean fast paths and
/// are bit-identical to those scalar kernels (not to `Minkowski(a, b, p)`,
/// whose pow-based accumulation may differ in the last ulp); other p match
/// `Minkowski` exactly. Precondition: resident store.
void LpBatch(std::span<const double> query, const ts::SoaStore& store,
             double p, std::span<double> out);

/// \brief Whole-store early-abandoning sweep (see the range kernel for the
/// output contract). Precondition: resident store.
void SquaredEuclideanEarlyAbandonBatch(std::span<const double> query,
                                       const ts::SoaStore& store,
                                       double threshold_sq,
                                       std::span<double> out);

}  // namespace uts::distance

#endif  // UTS_DISTANCE_BATCH_HPP_
