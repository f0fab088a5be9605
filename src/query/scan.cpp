#include "query/scan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/parallel_for.hpp"

namespace uts::query::detail {

Result<std::vector<double>> ScanRows(const ScanTarget& target,
                                     const ChunkScorer& score) {
  std::vector<double> out(target.view.rows(), 0.0);
  const auto chunks = ts::PartitionRows(target.view, target.grain);
  std::vector<Status> failures(chunks.size());
  exec::ParallelFor(
      target.pool, chunks.size(), /*grain=*/1,
      [&](std::size_t first, std::size_t last) {
        for (std::size_t c = first; c < last; ++c) {
          const ts::RowChunk& chunk = chunks[c];
          auto pin = target.view.Pin(chunk.block);
          failures[c] =
              pin.ok() ? score(chunk, pin.ValueOrDie(),
                               std::span<double>(out).subspan(
                                   chunk.begin, chunk.end - chunk.begin))
                       : pin.status();
        }
      });
  for (const Status& failure : failures) UTS_RETURN_NOT_OK(failure);
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

/// The cascade's exact stage of `scan`.
index::ExactScorer ExactStage(const MeasureScan& scan) {
  if (scan.exact) return scan.exact;
  return [&scan](std::size_t row, double) {
    return ScoreRow(scan.target.view, row, scan.score);
  };
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

Result<std::vector<Neighbor>> KBest(const MeasureScan& scan,
                                    std::size_t query, std::size_t k,
                                    index::SearchCost* cost) {
  if (scan.lower_bounds) {
    return index::CascadeKNearest(scan.lower_bounds(), query, k,
                                  ExactStage(scan), cost);
  }
  ChargeFullScan(cost, scan.target.view.rows() - 1);
  UTS_ASSIGN_OR_RETURN(const std::vector<double> scores,
                       ScanRows(scan.target, scan.score));
  return scan.descending ? SelectKLargest(scores, query, k)
                         : SelectKSmallest(scores, query, k);
}

Result<std::vector<std::size_t>> WithinRange(const MeasureScan& scan,
                                             std::size_t query,
                                             double epsilon,
                                             index::SearchCost* cost) {
  if (scan.lower_bounds) {
    return index::CascadeRangeSearch(scan.lower_bounds(), query, epsilon,
                                     ExactStage(scan), cost);
  }
  ChargeFullScan(cost, scan.target.view.rows() - 1);
  UTS_ASSIGN_OR_RETURN(const std::vector<double> scores,
                       ScanRows(scan.target, scan.score));
  return SelectThreshold(scores, query, epsilon, Keep::kAtMost);
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
    return Status::OK();
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
          return Status::OK();
        }
      }
      // The reported value always comes from the full scan's kernel (the
      // abandon kernel's completed sums accumulate in a different order
      // under AVX2 and are *not* bitwise comparable).
      return EuclideanScorer(dispatch, query)(chunk, pin, out);
    });
  };
}

}  // namespace

Result<MeasureScan> EuclideanScan(const ScanTarget& target, std::size_t query,
                                  index::SearchCost* cost) {
  MeasureScan scan{target};
  UTS_ASSIGN_OR_RETURN(ts::StoreView::PinnedRow pin,
                       target.view.PinRow(query));
  const std::span<const double> row = pin.row();
  scan.pins.push_back(std::move(pin));
  scan.score = EuclideanScorer(target.dispatch, row);
  if (target.synopsis != nullptr) {
    scan.lower_bounds = [synopsis = target.synopsis, row] {
      std::vector<double> bounds(synopsis->rows(), 0.0);
      synopsis->EuclideanLowerBounds(synopsis->Synopsize(row), bounds);
      return bounds;
    };
    scan.exact = EuclideanCascadeScorer(target, row, cost);
  }
  return scan;
}

}  // namespace uts::query::detail
