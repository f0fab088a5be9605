/// \file engine.hpp
/// \brief The batched, multi-threaded query-execution engine.
///
/// `DistanceMatrixEngine` answers the certain query shapes the paper's
/// evaluation is built from — k-NN lists (10-NN ground truth, Section
/// 4.1.2), range queries RQ(Q,C,ε) (Eq. 1) and top-k motif pairs (Section
/// 3.3) — over parallel blocks of candidates scheduled on an
/// `exec::ThreadPool`. Probabilistic range queries PRQ(Q,C,ε,τ) (Eq. 2) run
/// on UncertainEngine.
///
/// Determinism guarantee: results are bit-identical to the sequential
/// reference path at every thread count. Candidate ranges are a pure
/// blocked partition of the index space, each worker writes only the output
/// slots its range owns, and reductions (k-NN selection, motif top-k merge,
/// match collection) run after the barrier in ascending index order with
/// the legacy (distance, index) tie-break.
///
/// The engine owns its rows: `Create` rejects empty and ragged data and
/// packs the series once into a ts::SoaStore (resident, or paged through
/// `EngineOptions::buffer_pool`), and every Euclidean query streams that
/// store through the shared store scan of scan.hpp. UncertainEngine shares
/// that Euclidean measure and the server answers Euclidean requests from
/// it, so a served dataset needs no engine of this kind; the evaluation
/// builds one over exact data, through `EngineContext::GroundTruth`, only
/// for the ground-truth rows its memo lacks. The callback overload
/// parallelizes an arbitrary thread-safe distance (the exact-DTW ground
/// truth).
///
/// Failure channel: every store query returns a failed pin as a `Status`
/// (the lowest failing chunk's, as in `detail::ScanRows`), never a partial
/// answer and never an abort.

#ifndef UTS_QUERY_ENGINE_HPP_
#define UTS_QUERY_ENGINE_HPP_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "distance/simd.hpp"
#include "exec/thread_pool.hpp"
#include "index/cascade.hpp"
#include "query/exec_options.hpp"
#include "query/scan.hpp"
#include "query/search.hpp"
#include "ts/dataset.hpp"
#include "ts/soa_store.hpp"
#include "ts/store_view.hpp"

namespace uts::query {

/// \brief Execution configuration of a DistanceMatrixEngine. The shared
/// execution fields (`threads`, `simd`, `shared_pool`, `index`,
/// `buffer_pool`, `block_rows`) live in the inherited query::ExecOptions —
/// their names and meanings are unchanged.
struct EngineOptions : ExecOptions {
  /// Candidate rows per parallel chunk of a single query's scan.
  std::size_t grain = 256;
};

/// \brief Batched parallel k-NN / RQ / motif execution over one
/// dataset's rows, which the engine packs at `Create` and owns: the source
/// dataset may be mutated or destroyed afterwards.
class DistanceMatrixEngine {
 public:
  /// Build the engine over `dataset`: packs its rows once (paged through
  /// `options.buffer_pool` when set), resolves the kernel dispatch and,
  /// when enabled, the synopsis index. Rejects what CheckShape rejects; a
  /// paged store's failed spill is returned as well.
  static Result<DistanceMatrixEngine> Create(const ts::Dataset& dataset,
                                             EngineOptions options = {});

  /// InvalidArgument for data the engine cannot pack: an empty dataset,
  /// empty series or series of unequal length.
  static Status CheckShape(const ts::Dataset& dataset);

  /// Joins the owned pool, if any.
  ~DistanceMatrixEngine();

  /// Takes over the packed rows, index and pool of `other`.
  DistanceMatrixEngine(DistanceMatrixEngine&& other) noexcept = default;

  DistanceMatrixEngine(const DistanceMatrixEngine&) = delete;  ///< Not copyable.
  DistanceMatrixEngine& operator=(const DistanceMatrixEngine&) =
      delete;  ///< Not copyable.

  /// Number of series.
  std::size_t size() const { return store_.rows(); }

  /// Resolved worker-thread count (>= 1).
  std::size_t threads() const;

  /// Kernel level the batched paths execute at (resolved once from
  /// EngineOptions::simd at construction).
  distance::SimdLevel simd_level() const { return dispatch_->level; }

  /// True iff the prune-before-score index was built (EngineOptions::index
  /// enabled).
  bool index_enabled() const { return synopsis_index_ != nullptr; }

  /// \name Euclidean queries (batched SoA kernels)
  /// When `cost` is non-null it is *incremented* with the query's work
  /// accounting (candidates touched vs pruned); an unindexed scan reports
  /// every eligible candidate as touched. The single-query calls fail with
  /// InvalidArgument for a query index past the rows, and with the error
  /// of a block that cannot be pinned.
  /// \{

  /// k nearest neighbors of series `query_index`, self-match excluded;
  /// sorted ascending by distance, ties by index.
  Result<std::vector<Neighbor>> KNearestEuclidean(
      std::size_t query_index, std::size_t k,
      index::SearchCost* cost = nullptr) const;

  /// k-NN lists of the first `num_queries` series (0 = every series):
  /// KNearestEuclideanRows over [0, num_queries) with k clamped to the
  /// candidate count, one list per query.
  Result<std::vector<std::vector<Neighbor>>> AllKNearestEuclidean(
      std::size_t k, std::size_t num_queries = 0,
      index::SearchCost* cost = nullptr) const;

  /// The paper's ground-truth build, parallelized over queries: the k
  /// nearest neighbors of every query in [first, last) into `out`, query q
  /// at out[(q - first) * k, (q - first + 1) * k); candidates always span
  /// the whole dataset. A row does not depend on the range it is swept in:
  /// each (query, candidate) pair is one accumulation chain on each path,
  /// so rows swept in pieces equal one sweep's bit for bit. The paths are
  /// not bitwise one another, though: an unindexed engine sweeps the
  /// multi-query kernel (the symmetric all-rows matrix or the streaming
  /// sweep, one chain per pair), while an indexed one runs a per-query
  /// cascade, where a row is KNearestEuclidean(q, k) on the single-query
  /// kernel, whose AVX2 form accumulates over four chains and can differ
  /// in the last bits (EngineContext::GroundTruth therefore never indexes).
  /// InvalidArgument unless
  /// first <= last <= size(), k < size() and out holds (last - first) * k
  /// neighbors; a failed pin returns the lowest failing chunk's status, and
  /// `out` is then unspecified.
  Status KNearestEuclideanRows(std::size_t first, std::size_t last,
                               std::size_t k, std::span<Neighbor> out,
                               index::SearchCost* cost = nullptr) const;

  /// RQ(Q, C, ε): indices with distance <= epsilon, self-match excluded,
  /// ascending.
  Result<std::vector<std::size_t>> RangeSearchEuclidean(
      std::size_t query_index, double epsilon,
      index::SearchCost* cost = nullptr) const;

  /// Top-k closest pairs under Euclidean distance; bounded-memory (k-sized
  /// heap per worker chunk), sorted ascending with (a, b) tie-breaks. A
  /// failed pin returns the lowest failing chunk's status.
  Result<std::vector<MotifPair>> TopKMotifsEuclidean(std::size_t k) const;
  /// \}

  /// k nearest under an arbitrary distance callback (the exact-DTW ground
  /// truth); same ordering contract as query::KNearest. The callback must
  /// be thread-safe when threads() > 1; it is never invoked for the
  /// excluded index.
  std::vector<Neighbor> KNearest(std::size_t n, std::size_t exclude,
                                 std::size_t k,
                                 const DistanceToFn& distance_to) const;

 private:
  /// Chunk size of the triangular motif loops: contiguous a-chunks are
  /// front-heavy (~grain·n pairs in the first, ~grain²/2 in the last), so
  /// parallel runs shrink the grain until the largest chunk is a small
  /// fraction of the total and the pool's FIFO queue can balance the tail.
  std::size_t MotifGrain(std::size_t n) const;

  DistanceMatrixEngine(EngineOptions options, ts::SoaStore store);

  /// The scan target over the packed rows.
  detail::ScanTarget Target() const;

  /// The Euclidean measure of row `query_index`; InvalidArgument past the
  /// rows.
  Result<detail::MeasureScan> Scan(std::size_t query_index,
                                   index::SearchCost* cost) const;

  EngineOptions options_;
  /// Kernel table resolved from options_.simd at construction; never null.
  const distance::KernelDispatch* dispatch_;
  ts::SoaStore store_;  ///< The packed rows.
  /// Prune-before-score synopsis pack over the rows; null unless
  /// EngineOptions::index.enabled. It copies what it needs from the rows,
  /// so it holds no view that a move could invalidate.
  std::unique_ptr<const index::SynopsisIndex> synopsis_index_;
  std::unique_ptr<exec::ThreadPool> owned_pool_;  ///< Null when borrowed/inline.
  exec::ThreadPool* pool_ = nullptr;  ///< Executor view; null = run inline.
};

/// \namespace uts::query::detail
/// \brief Engine internals exposed for the parity tests.
namespace detail {

/// \brief Bounded selector of the k smallest MotifPairs under the total
/// order (distance, a, b). Replaces the old materialize-all-pairs +
/// partial_sort motif search with O(k) memory.
class BoundedMotifHeap {
 public:
  /// Selector retaining the `k` smallest pairs pushed.
  explicit BoundedMotifHeap(std::size_t k) : k_(k) {}

  /// The total order (distance, a, b) — the sequential reference
  /// comparator, so parallel merges cannot reorder ties.
  static bool Less(const MotifPair& x, const MotifPair& y) {
    if (x.distance != y.distance) return x.distance < y.distance;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  }

  /// Offer one pair; kept only while among the k smallest seen so far.
  void Push(const MotifPair& pair);

  /// The retained pairs, sorted ascending; the heap is left empty.
  std::vector<MotifPair> TakeSorted();

 private:
  std::size_t k_;
  std::vector<MotifPair> heap_;  ///< Max-heap under Less.
};

}  // namespace detail

}  // namespace uts::query

#endif  // UTS_QUERY_ENGINE_HPP_
