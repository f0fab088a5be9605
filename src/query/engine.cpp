#include "query/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "distance/batch.hpp"
#include "distance/lp.hpp"
#include "exec/parallel_for.hpp"

namespace uts::query {

namespace detail {

void BoundedMotifHeap::Push(const MotifPair& pair) {
  if (k_ == 0) return;
  if (heap_.size() < k_) {
    heap_.push_back(pair);
    std::push_heap(heap_.begin(), heap_.end(), Less);
    return;
  }
  if (Less(pair, heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Less);
    heap_.back() = pair;
    std::push_heap(heap_.begin(), heap_.end(), Less);
  }
}

std::vector<MotifPair> BoundedMotifHeap::TakeSorted() {
  std::sort(heap_.begin(), heap_.end(), Less);
  return std::move(heap_);
}

}  // namespace detail

Result<DistanceMatrixEngine> DistanceMatrixEngine::Create(
    const ts::Dataset& dataset, EngineOptions options) {
  if (dataset.empty()) {
    return Status::InvalidArgument("certain engine needs a non-empty dataset");
  }
  const std::size_t stride = dataset[0].size();
  if (stride == 0) {
    return Status::InvalidArgument("certain engine needs non-empty series");
  }
  if (!dataset.HasUniformLength()) {
    return Status::InvalidArgument(
        "certain engine needs series of uniform length");
  }
  // With a buffer pool, one block buffer is live at a time while packing.
  UTS_ASSIGN_OR_RETURN(
      ts::SoaStore store,
      ts::SoaStore::FromRows(
          dataset.size(), stride,
          [&dataset](std::size_t r, std::span<double> out) {
            const auto& values = dataset[r].values();
            std::copy(values.begin(), values.end(), out.begin());
          },
          options.buffer_pool, options.block_rows));
  return DistanceMatrixEngine(std::move(options), std::move(store));
}

DistanceMatrixEngine::DistanceMatrixEngine(EngineOptions options,
                                           ts::SoaStore store)
    : options_(std::move(options)),
      dispatch_(&distance::ResolveDispatch(options_.simd)),
      store_(std::move(store)) {
  if (options_.grain == 0) options_.grain = 1;
  if (options_.index.enabled) {
    synopsis_index_ = std::make_unique<index::SynopsisIndex>(
        store_, options_.index.synopsis_coefficients);
  }
  if (options_.shared_pool != nullptr) {
    pool_ = options_.shared_pool;
    return;
  }
  std::size_t threads = options_.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads > 1) {
    owned_pool_ = std::make_unique<exec::ThreadPool>(threads);
    pool_ = owned_pool_.get();
  }
}

DistanceMatrixEngine::~DistanceMatrixEngine() = default;

std::size_t DistanceMatrixEngine::threads() const {
  return pool_ ? pool_->size() : 1;
}

detail::ScanTarget DistanceMatrixEngine::Target() const {
  return {ts::StoreView(store_), dispatch_, pool_, options_.grain,
          synopsis_index_.get()};
}

std::size_t DistanceMatrixEngine::MotifGrain(std::size_t n) const {
  const std::size_t t = threads();
  if (t <= 1) return options_.grain;
  return std::clamp<std::size_t>(n / (16 * t), 1, options_.grain);
}

// --- Generic callback paths --------------------------------------------------

std::vector<Neighbor> DistanceMatrixEngine::KNearest(
    std::size_t n, std::size_t exclude, std::size_t k,
    const DistanceToFn& distance_to) const {
  std::vector<double> distances(n, 0.0);
  exec::ParallelFor(pool_, n, options_.grain,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        if (i != exclude) distances[i] = distance_to(i);
                      }
                    });
  return detail::SelectKSmallest(distances, exclude, k);
}

std::vector<MotifPair> DistanceMatrixEngine::TopKMotifs(
    std::size_t n, std::size_t k, const PairwiseDistanceFn& distance) const {
  const std::size_t grain = MotifGrain(n);
  std::vector<std::vector<MotifPair>> locals(exec::NumChunks(n, grain));
  exec::ParallelFor(pool_, n, grain,
                    [&](std::size_t begin, std::size_t end) {
                      detail::BoundedMotifHeap heap(k);
                      for (std::size_t a = begin; a < end; ++a) {
                        for (std::size_t b = a + 1; b < n; ++b) {
                          heap.Push({a, b, distance(a, b)});
                        }
                      }
                      locals[begin / grain] = heap.TakeSorted();
                    });
  detail::BoundedMotifHeap merged(k);
  for (const auto& local : locals) {
    for (const MotifPair& pair : local) merged.Push(pair);
  }
  return merged.TakeSorted();
}

// --- Euclidean batched paths -------------------------------------------------

std::vector<Neighbor> DistanceMatrixEngine::KNearestEuclidean(
    std::size_t query_index, std::size_t k, index::SearchCost* cost) const {
  assert(query_index < size());
  return detail::KNearestEuclidean(Target(), query_index, k, cost);
}

std::vector<std::vector<Neighbor>> DistanceMatrixEngine::AllKNearestEuclidean(
    std::size_t k, std::size_t num_queries, index::SearchCost* cost) const {
  const std::size_t n = size();
  const std::size_t queries =
      num_queries == 0 ? n : std::min(num_queries, n);
  std::vector<std::vector<Neighbor>> out(queries);
  if (synopsis_index_ != nullptr) {
    // Per-query cascades parallelized over queries (grain 1: pruning makes
    // per-query work uneven; a cascade itself never forks). Each query's
    // cost lands in its own record; the fold below is index-ordered, so the
    // counters are deterministic at every thread count.
    const detail::ScanTarget target = Target();
    std::vector<index::SearchCost> per_query(queries);
    exec::ParallelFor(pool_, queries, /*grain=*/1,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t q = begin; q < end; ++q) {
                          out[q] = detail::KNearestEuclidean(target, q, k,
                                                             &per_query[q]);
                        }
                      });
    if (cost != nullptr) {
      for (const index::SearchCost& record : per_query) {
        cost->Accumulate(record);
      }
    }
    return out;
  }
  detail::ChargeFullScan(cost, queries * (n - 1));
  // When every series is a query and the full matrix fits in memory,
  // exploit symmetry: (a-b) is exactly -(b-a) in IEEE arithmetic, so
  // d(q,c)² is bitwise d(c,q)² — compute the upper triangle only and
  // mirror the lower. Halves the distance work of the ground-truth build.
  constexpr std::size_t kMaxMatrixEntries = std::size_t{1} << 24;  // 128 MiB
  const ts::StoreView view(store_);
  if (queries == n && n * n <= kMaxMatrixEntries) {
    std::vector<double> matrix(n * n, 0.0);
    // Phase 1: rows of the upper trapezoid, per query chunk. Block rows are
    // a multiple of kQueryBlock, so each query chunk sits inside one block;
    // the candidate span [chunk.begin, n) is walked block by block. Each
    // (q,c) pair is still one ordered accumulation chain, so the block cuts
    // never change a result bit.
    const auto query_chunks = ts::PartitionRows(view, distance::kQueryBlock);
    exec::ParallelFor(
        pool_, query_chunks.size(), /*grain=*/1,
        [&](std::size_t chunk_begin, std::size_t chunk_end) {
          for (std::size_t qc = chunk_begin; qc < chunk_end; ++qc) {
            const ts::RowChunk& chunk = query_chunks[qc];
            const auto query_pin = ts::PinOrAbort(view, chunk.block);
            const std::size_t query_first = query_pin.first_row();
            for (std::size_t cb = chunk.block; cb < view.num_blocks(); ++cb) {
              const auto cand_pin = ts::PinOrAbort(view, cb);
              const std::size_t cand_first = cand_pin.first_row();
              const std::size_t cand_begin =
                  std::max(chunk.begin, cand_first);
              const std::size_t cand_end =
                  cand_first + view.block_row_count(cb);
              dispatch_->squared_euclidean_multi_query(
                  query_pin.block(), chunk.begin - query_first,
                  chunk.end - query_first, cand_pin.block(),
                  cand_begin - cand_first, cand_end - cand_first,
                  std::span<double>(matrix).subspan(chunk.begin * n +
                                                    cand_begin),
                  n);
            }
          }
        });
    // Phase 2: mirror the lower triangle (ParallelFor is a barrier, so the
    // sources are complete).
    exec::ParallelFor(pool_, n, /*grain=*/64,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t q = begin; q < end; ++q) {
                          double* row = matrix.data() + q * n;
                          for (std::size_t c = 0; c < q; ++c) {
                            row[c] = matrix[c * n + q];
                          }
                        }
                      });
    // Phase 3: sqrt each owned row in place (selection must order final
    // metric values, like the sequential reference), then select.
    exec::ParallelFor(
        pool_, n, /*grain=*/distance::kQueryBlock,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t q = begin; q < end; ++q) {
            double* row = matrix.data() + q * n;
            for (std::size_t c = 0; c < n; ++c) row[c] = std::sqrt(row[c]);
            out[q] = detail::SelectKSmallest(
                std::span<const double>(row, n), q, k);
          }
        });
    return out;
  }

  // Streaming fallback (query prefix, or matrix too large): parallelize
  // over query chunks; the multi-query kernel loads each candidate row once
  // per kQueryBlock queries, and each chunk writes only its own out[q]
  // slots. Candidates are swept block by block into the chunk's buffer.
  const auto query_chunks =
      ts::PartitionRowRange(view, 0, queries, distance::kQueryBlock);
  exec::ParallelFor(
      pool_, query_chunks.size(), /*grain=*/1,
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t qc = chunk_begin; qc < chunk_end; ++qc) {
          const ts::RowChunk& chunk = query_chunks[qc];
          const auto query_pin = ts::PinOrAbort(view, chunk.block);
          const std::size_t query_first = query_pin.first_row();
          std::vector<double> block((chunk.end - chunk.begin) * n, 0.0);
          for (std::size_t cb = 0; cb < view.num_blocks(); ++cb) {
            const auto cand_pin = ts::PinOrAbort(view, cb);
            const std::size_t cand_first = cand_pin.first_row();
            dispatch_->squared_euclidean_multi_query(
                query_pin.block(), chunk.begin - query_first,
                chunk.end - query_first, cand_pin.block(), 0,
                view.block_row_count(cb),
                std::span<double>(block).subspan(cand_first), n);
          }
          for (double& v : block) v = std::sqrt(v);
          for (std::size_t q = chunk.begin; q < chunk.end; ++q) {
            out[q] = detail::SelectKSmallest(
                std::span<const double>(block).subspan((q - chunk.begin) * n,
                                                       n),
                q, k);
          }
        }
      });
  return out;
}

std::vector<std::size_t> DistanceMatrixEngine::RangeSearchEuclidean(
    std::size_t query_index, double epsilon, index::SearchCost* cost) const {
  assert(query_index < size());
  return detail::RangeSearchEuclidean(Target(), query_index, epsilon, cost);
}

std::vector<MotifPair> DistanceMatrixEngine::TopKMotifsEuclidean(
    std::size_t k) const {
  // Streams rows of the SoA store through the generic chunked heap/merge;
  // each pair is ranked by its final metric value, exactly like the
  // sequential reference. Row pins are taken per pair (free when resident).
  const ts::StoreView view(store_);
  return TopKMotifs(size(), k, [view](std::size_t a, std::size_t b) {
    const auto pin_a = ts::PinRowOrAbort(view, a);
    const auto pin_b = ts::PinRowOrAbort(view, b);
    return std::sqrt(distance::SquaredEuclidean(pin_a.row(), pin_b.row()));
  });
}

}  // namespace uts::query
