/// \file search.hpp
/// \brief k-NN and range-query primitives over arbitrary distance callbacks.
///
/// Implements the two query flavors of Section 2: the range query RQ(Q,C,ε)
/// (Eq. 1) over exact distances, and the generic machinery that the
/// evaluation methodology builds on — the 10-NN ground-truth sets and the
/// 10th-nearest-neighbor threshold calibration of Section 4.1.2.
///
/// These free functions are the sequential reference API, and nothing
/// else: each one calls its distance callback in ascending index order on
/// the caller's thread and runs no engine. They share the engines' selection
/// internals, so engine results are bit-identical to them at any thread
/// count. Dataset-level queries build an engine with
/// query::DistanceMatrixEngine::Create (engine.hpp).

#ifndef UTS_QUERY_SEARCH_HPP_
#define UTS_QUERY_SEARCH_HPP_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>


/// \namespace uts
/// \brief Root namespace of the uncertain time-series library.

/// \namespace uts::query
/// \brief Sequential search API, the parallel query engines and the shared
/// run-wide EngineContext.

namespace uts::query {

/// \brief Distance from an implicit query to collection item `i`.
using DistanceToFn = std::function<double(std::size_t)>;

/// \brief One nearest-neighbor hit.
struct Neighbor {
  std::size_t index = 0;    ///< Candidate series index.
  double distance = 0.0;    ///< Distance (or match probability) to the query.
};

/// \brief The k nearest items to the query among indices [0, n), excluding
/// `exclude` (pass n or larger to exclude nothing). Result is sorted by
/// ascending distance; ties break by index for determinism.
std::vector<Neighbor> KNearest(std::size_t n, std::size_t exclude,
                               std::size_t k, const DistanceToFn& distance_to);

/// \brief All items within distance ≤ epsilon of the query, excluding
/// `exclude`. Sorted by index.
std::vector<std::size_t> RangeSearch(std::size_t n, std::size_t exclude,
                                     double epsilon,
                                     const DistanceToFn& distance_to);

/// \brief Match probability of collection item `i` against an implicit
/// query (e.g. MUNICH's or PROUD's Pr(distance ≤ ε)).
using MatchProbabilityFn = std::function<double(std::size_t)>;

/// \brief Probabilistic range query PRQ(Q, C, ε, τ) (Eq. 2):
/// `{ T ∈ C | Pr(distance(Q, T) ≤ ε) ≥ τ }`, with ε folded into the
/// probability callback. Items are indices [0, n) except `exclude`.
std::vector<std::size_t> ProbabilisticRangeSearch(
    std::size_t n, std::size_t exclude, double tau,
    const MatchProbabilityFn& probability_of);

/// \brief One motif: the a-th and b-th series and their distance.
struct MotifPair {
  std::size_t a = 0;        ///< Lower series index of the pair.
  std::size_t b = 0;        ///< Higher series index of the pair.
  double distance = 0.0;    ///< Pairwise distance.
};

/// \brief Symmetric distance between collection items (a, b).
using PairwiseDistanceFn =
    std::function<double(std::size_t, std::size_t)>;

/// \brief Top-k motif search — "DUST ... can be used to answer top-k
/// nearest neighbor queries, or perform top-k motif search" (Section 3.3):
/// the k closest pairs in a collection under an arbitrary pairwise
/// distance. O(n²) distance evaluations but only O(k) memory (bounded
/// max-heap); result sorted by ascending distance, ties broken by (a, b)
/// for determinism.
std::vector<MotifPair> TopKMotifs(std::size_t n, std::size_t k,
                                  const PairwiseDistanceFn& distance);

}  // namespace uts::query

#endif  // UTS_QUERY_SEARCH_HPP_
