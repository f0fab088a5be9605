#include "query/search.hpp"

#include <vector>

#include "query/engine.hpp"

namespace uts::query {

// The callback overloads are the sequential reference path. They share the
// engine's selection internals (detail::SelectKSmallest, BoundedMotifHeap),
// so the parallel engine is bit-identical to them by construction; the
// callbacks themselves are invoked in ascending index order and need not be
// thread-safe here.

std::vector<Neighbor> KNearest(std::size_t n, std::size_t exclude,
                               std::size_t k,
                               const DistanceToFn& distance_to) {
  std::vector<double> distances(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == exclude) continue;
    distances[i] = distance_to(i);
  }
  return detail::SelectKSmallest(distances, exclude, k);
}

std::vector<std::size_t> RangeSearch(std::size_t n, std::size_t exclude,
                                     double epsilon,
                                     const DistanceToFn& distance_to) {
  std::vector<std::size_t> matches;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == exclude) continue;
    if (distance_to(i) <= epsilon) matches.push_back(i);
  }
  return matches;
}

std::vector<std::size_t> ProbabilisticRangeSearch(
    std::size_t n, std::size_t exclude, double tau,
    const MatchProbabilityFn& probability_of) {
  std::vector<std::size_t> matches;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == exclude) continue;
    if (probability_of(i) >= tau) matches.push_back(i);
  }
  return matches;
}

std::vector<MotifPair> TopKMotifs(std::size_t n, std::size_t k,
                                  const PairwiseDistanceFn& distance) {
  // Bounded k-sized max-heap: O(k) memory instead of materializing all
  // n(n-1)/2 pairs before a partial_sort.
  detail::BoundedMotifHeap heap(k);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      heap.Push({a, b, distance(a, b)});
    }
  }
  return heap.TakeSorted();
}

}  // namespace uts::query
