#include "query/scan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/parallel_for.hpp"

namespace uts::query::detail {

std::vector<double> ScanRows(const ScanTarget& target,
                             const ChunkScorer& score) {
  std::vector<double> out(target.view.rows(), 0.0);
  const auto chunks = ts::PartitionRows(target.view, target.grain);
  exec::ParallelFor(target.pool, chunks.size(), /*grain=*/1,
                    [&](std::size_t first, std::size_t last) {
                      for (const ts::RowChunk& chunk :
                           std::span(chunks).subspan(first, last - first)) {
                        score(chunk, ts::PinOrAbort(target.view, chunk.block),
                              std::span<double>(out).subspan(
                                  chunk.begin, chunk.end - chunk.begin));
                      }
                    });
  return out;
}

void ChargeFullScan(index::SearchCost* cost, std::size_t eligible) {
  if (cost == nullptr) return;
  cost->candidates_total += eligible;
  cost->candidates_touched += eligible;
}

namespace {

/// The k best scores under `better`, ties by ascending index.
template <typename Better>
std::vector<Neighbor> SelectK(std::span<const double> scores,
                              std::size_t exclude, std::size_t k,
                              const Better& better) {
  std::vector<Neighbor> all;
  all.reserve(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (i == exclude) continue;
    all.push_back({i, scores[i]});
  }
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(take),
                    all.end(), [&better](const Neighbor& a, const Neighbor& b) {
                      if (a.distance != b.distance) {
                        return better(a.distance, b.distance);
                      }
                      return a.index < b.index;
                    });
  all.resize(take);
  return all;
}

}  // namespace

std::vector<Neighbor> SelectKSmallest(std::span<const double> scores,
                                      std::size_t exclude, std::size_t k) {
  return SelectK(scores, exclude, k, std::less<double>{});
}

std::vector<Neighbor> SelectKLargest(std::span<const double> scores,
                                     std::size_t exclude, std::size_t k) {
  return SelectK(scores, exclude, k, std::greater<double>{});
}

std::vector<std::size_t> SelectThreshold(std::span<const double> scores,
                                         std::size_t exclude,
                                         double threshold, Keep keep) {
  std::vector<std::size_t> matches;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (i == exclude) continue;
    if (keep == Keep::kAtMost ? scores[i] <= threshold
                              : scores[i] >= threshold) {
      matches.push_back(i);
    }
  }
  return matches;
}

// --- Euclidean ---------------------------------------------------------------

namespace {

/// Relative inflation of τ² handed to the early-abandon filter. The exact
/// scan's τ is a rounded sqrt (τ² can understate the stored square by
/// ~3·eps relative) and the abandon kernel accumulates in a different order
/// than the exact per-row kernel (divergence ≲ 2n·eps relative, n up to
/// ~1e7). A partial sum above the inflated threshold therefore proves the
/// exact kernel's distance exceeds τ — abandoning can never drop a row the
/// full scan would keep.
constexpr double kAbandonSlack = 4e-9;

/// The Euclidean chunk scorer of `query` (pinned by the caller).
auto EuclideanScorer(const distance::KernelDispatch* dispatch,
                     std::span<const double> query) {
  return [dispatch, query](const ts::RowChunk& chunk,
                           const ts::StoreView::PinnedBlock& pin,
                           std::span<double> out) {
    const std::size_t begin = chunk.begin - pin.first_row();
    dispatch->squared_euclidean_range(query, pin.block(), begin,
                                      begin + out.size(), out);
    for (double& v : out) v = std::sqrt(v);
  };
}

/// The cascade's exact stage: the early-abandon filter, then the full
/// scan's scorer, from one pin of the row's block. `query` must stay pinned
/// for the scorer's lifetime.
index::ExactScorer EuclideanCascadeScorer(const ScanTarget& target,
                                          std::span<const double> query,
                                          index::SearchCost* cost) {
  return [view = target.view, dispatch = target.dispatch, query, cost](
             std::size_t row, double tau) {
    return ScoreRow(view, row, [&](const ts::RowChunk& chunk,
                                   const ts::StoreView::PinnedBlock& pin,
                                   std::span<double> out) {
      if (std::isfinite(tau)) {
        const std::size_t local = chunk.begin - pin.first_row();
        const double threshold_sq = tau * tau * (1.0 + kAbandonSlack);
        dispatch->squared_euclidean_early_abandon_range(
            query, pin.block(), threshold_sq, local, local + 1, out);
        if (out[0] > threshold_sq) {
          if (cost != nullptr) ++cost->abandoned_early;
          out[0] = std::numeric_limits<double>::infinity();
          return;
        }
      }
      // The reported value always comes from the full scan's kernel (the
      // abandon kernel's completed sums accumulate in a different order
      // under AVX2 and are *not* bitwise comparable).
      EuclideanScorer(dispatch, query)(chunk, pin, out);
    });
  };
}

/// Stage-1 bounds of the Euclidean cascade for `query`.
std::vector<double> EuclideanLowerBounds(const ScanTarget& target,
                                         std::span<const double> query) {
  std::vector<double> bounds(target.view.rows(), 0.0);
  target.synopsis->EuclideanLowerBounds(target.synopsis->Synopsize(query),
                                        bounds);
  return bounds;
}

}  // namespace

std::vector<Neighbor> KNearestEuclidean(const ScanTarget& target,
                                        std::size_t query, std::size_t k,
                                        index::SearchCost* cost) {
  const auto query_pin = ts::PinRowOrAbort(target.view, query);
  const std::span<const double> row = query_pin.row();
  if (target.synopsis != nullptr) {
    return index::CascadeKNearest(EuclideanLowerBounds(target, row), query, k,
                                  EuclideanCascadeScorer(target, row, cost),
                                  cost);
  }
  ChargeFullScan(cost, target.view.rows() - 1);
  return SelectKSmallest(
      ScanRows(target, EuclideanScorer(target.dispatch, row)), query, k);
}

std::vector<std::size_t> RangeSearchEuclidean(const ScanTarget& target,
                                              std::size_t query,
                                              double epsilon,
                                              index::SearchCost* cost) {
  const auto query_pin = ts::PinRowOrAbort(target.view, query);
  const std::span<const double> row = query_pin.row();
  if (target.synopsis != nullptr) {
    return index::CascadeRangeSearch(
        EuclideanLowerBounds(target, row), query, epsilon,
        EuclideanCascadeScorer(target, row, cost), cost);
  }
  ChargeFullScan(cost, target.view.rows() - 1);
  return SelectThreshold(
      ScanRows(target, EuclideanScorer(target.dispatch, row)), query, epsilon,
      Keep::kAtMost);
}

double EuclideanDistance(const ScanTarget& target, std::size_t query,
                         std::size_t row) {
  const auto query_pin = ts::PinRowOrAbort(target.view, query);
  return ScoreRow(target.view, row,
                  EuclideanScorer(target.dispatch, query_pin.row()));
}

}  // namespace uts::query::detail
