/// \file cascade.hpp
/// \brief The prune-before-score candidate cascade: exact-result k-NN and
/// range search over an admissible lower-bound array plus an exact scorer.
///
/// Exactness argument (k-NN): candidates are visited in ascending
/// (lower bound, index) order while a bounded heap tracks the best k exact
/// (distance, index) pairs seen so far, ordered by the engines' legacy
/// comparator. Let τ be the heap's current k-th distance. When a visited
/// candidate's bound exceeds τ, every remaining candidate c satisfies
/// d(c) >= lb(c) > τ >= τ_final, so none can enter the final top-k under
/// the (distance, index) order — the traversal stops, and the heap equals
/// the top-k of a full scan. Ties are preserved: candidates with
/// lb == τ are still scored, and a scored candidate with d == τ displaces
/// the incumbent exactly when its index is smaller, as in the full scan's
/// partial_sort. Range search is the same argument with a fixed τ = ε and
/// the `<= ε` boundary kept on the scored side.
///
/// The scorer returns distances bitwise identical to the full scan's (the
/// engines score single rows through the same per-row-deterministic
/// dispatch kernels), so the selected set *and* the reported distances
/// match the unindexed path bit for bit.

#ifndef UTS_INDEX_CASCADE_HPP_
#define UTS_INDEX_CASCADE_HPP_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "index/synopsis_index.hpp"
#include "query/search.hpp"

namespace uts::index {

/// \brief Exact scorer of one candidate row against the implicit query.
///
/// Contract: returns either the exact metric distance of `row` — bitwise
/// identical to the value the unindexed full scan would compute for the
/// same row — or +infinity after *proving* the distance exceeds `tau`
/// (e.g. via the early-abandon kernel with a rounding-inflated threshold).
/// `tau` is the caller's current pruning threshold and may be +infinity,
/// in which case the scorer must return the exact distance. A failure (a
/// row that cannot be pinned) ends the cascade with that status.
using ExactScorer = std::function<Result<double>(std::size_t row, double tau)>;

/// \brief k nearest candidates by exact distance, ascending (distance,
/// index) — bitwise identical to selecting over a full scan.
///
/// `lower_bounds` has one admissible bound per row (slot `exclude` is
/// ignored; pass exclude >= lower_bounds.size() to exclude nothing).
/// `cost`, when non-null, is incremented (not reset) with this query's
/// accounting. Fails with the scorer's first failure.
Result<std::vector<query::Neighbor>> CascadeKNearest(
    std::span<const double> lower_bounds, std::size_t exclude, std::size_t k,
    const ExactScorer& score, SearchCost* cost);

/// \brief Indices with exact distance <= epsilon, ascending — bitwise
/// identical to filtering a full scan. Fails like CascadeKNearest.
Result<std::vector<std::size_t>> CascadeRangeSearch(
    std::span<const double> lower_bounds, std::size_t exclude, double epsilon,
    const ExactScorer& score, SearchCost* cost);

}  // namespace uts::index

#endif  // UTS_INDEX_CASCADE_HPP_
