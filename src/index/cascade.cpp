#include "index/cascade.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace uts::index {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The engines' legacy (distance, index) total order.
bool NeighborLess(const query::Neighbor& a, const query::Neighbor& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  return a.index < b.index;
}

}  // namespace

Result<std::vector<query::Neighbor>> CascadeKNearest(
    std::span<const double> lower_bounds, std::size_t exclude, std::size_t k,
    const ExactScorer& score, SearchCost* cost) {
  const std::size_t n = lower_bounds.size();
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == exclude) continue;
    order.emplace_back(lower_bounds[i], i);
  }
  const std::size_t total = order.size();
  if (cost != nullptr) cost->candidates_total += total;
  const std::size_t take = std::min(k, total);
  if (take == 0) {
    if (cost != nullptr) cost->pruned_lower_bound += total;
    return std::vector<query::Neighbor>{};
  }
  // Lazy ascending traversal: a min-heap over (bound, index) popped until
  // the stop condition, instead of fully sorting all n bounds — the sort
  // would dominate exactly when pruning works (few pops needed). The pairs
  // are distinct under the strict (bound, index) order, so each pop yields
  // the unique minimum: the pop sequence IS the sorted order.
  std::make_heap(order.begin(), order.end(), std::greater<>{});

  // Max-heap of the best `take` (distance, index) pairs under NeighborLess;
  // the root carries the current k-th distance τ.
  std::vector<query::Neighbor> heap;
  heap.reserve(take);
  std::size_t touched = 0;
  while (!order.empty()) {
    std::pop_heap(order.begin(), order.end(), std::greater<>{});
    const auto [bound, row] = order.back();
    order.pop_back();
    if (heap.size() == take && bound > heap.front().distance) {
      // Bounds ascend: this and every remaining candidate has
      // d >= bound > τ >= τ_final — none can enter the top-k.
      break;
    }
    const double tau = heap.size() == take ? heap.front().distance : kInf;
    ++touched;
    UTS_ASSIGN_OR_RETURN(const double distance, score(row, tau));
    const query::Neighbor candidate{row, distance};
    if (heap.size() < take) {
      heap.push_back(candidate);
      std::push_heap(heap.begin(), heap.end(), NeighborLess);
    } else if (NeighborLess(candidate, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), NeighborLess);
      heap.back() = candidate;
      std::push_heap(heap.begin(), heap.end(), NeighborLess);
    }
  }
  if (cost != nullptr) {
    cost->candidates_touched += touched;
    cost->pruned_lower_bound += total - touched;
  }
  std::sort(heap.begin(), heap.end(), NeighborLess);
  return heap;
}

Result<std::vector<std::size_t>> CascadeRangeSearch(
    std::span<const double> lower_bounds, std::size_t exclude, double epsilon,
    const ExactScorer& score, SearchCost* cost) {
  const std::size_t n = lower_bounds.size();
  std::vector<std::size_t> matches;
  std::size_t total = 0;
  std::size_t touched = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == exclude) continue;
    ++total;
    // Keep the boundary on the scored side: a pruned row has
    // d >= lb > ε, so the full scan's `d <= ε` excludes it too.
    if (lower_bounds[i] > epsilon) continue;
    ++touched;
    UTS_ASSIGN_OR_RETURN(const double distance, score(i, epsilon));
    if (distance <= epsilon) matches.push_back(i);
  }
  if (cost != nullptr) {
    cost->candidates_total += total;
    cost->candidates_touched += touched;
    cost->pruned_lower_bound += total - touched;
  }
  return matches;
}

}  // namespace uts::index
