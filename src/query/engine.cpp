#include "query/engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>
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

Status DistanceMatrixEngine::CheckShape(const ts::Dataset& dataset) {
  if (dataset.empty()) {
    return Status::InvalidArgument("certain engine needs a non-empty dataset");
  }
  if (dataset[0].size() == 0) {
    return Status::InvalidArgument("certain engine needs non-empty series");
  }
  if (!dataset.HasUniformLength()) {
    return Status::InvalidArgument(
        "certain engine needs series of uniform length");
  }
  return Status::OK();
}

Result<DistanceMatrixEngine> DistanceMatrixEngine::Create(
    const ts::Dataset& dataset, EngineOptions options) {
  UTS_RETURN_NOT_OK(CheckShape(dataset));
  // With a buffer pool, one block buffer is live at a time while packing.
  UTS_ASSIGN_OR_RETURN(
      ts::SoaStore store,
      ts::SoaStore::FromRows(
          dataset.size(), dataset[0].size(),
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

Result<detail::MeasureScan> DistanceMatrixEngine::Scan(
    std::size_t query_index, index::SearchCost* cost) const {
  if (query_index >= size()) {
    return Status::InvalidArgument(
        "query index " + std::to_string(query_index) + " out of range (" +
        std::to_string(size()) + " series)");
  }
  return detail::EuclideanScan(Target(), query_index, cost);
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

// --- Euclidean batched paths -------------------------------------------------

Result<std::vector<Neighbor>> DistanceMatrixEngine::KNearestEuclidean(
    std::size_t query_index, std::size_t k, index::SearchCost* cost) const {
  UTS_ASSIGN_OR_RETURN(const detail::MeasureScan scan,
                       Scan(query_index, cost));
  return detail::KBest(scan, query_index, k, cost);
}

Result<std::vector<std::vector<Neighbor>>>
DistanceMatrixEngine::AllKNearestEuclidean(std::size_t k,
                                           std::size_t num_queries,
                                           index::SearchCost* cost) const {
  const std::size_t queries =
      num_queries == 0 ? size() : std::min(num_queries, size());
  const std::size_t width = std::min(k, size() - 1);
  std::vector<Neighbor> rows(queries * width);
  UTS_RETURN_NOT_OK(KNearestEuclideanRows(0, queries, width, rows, cost));
  std::vector<std::vector<Neighbor>> out(queries);
  for (std::size_t q = 0; q < queries; ++q) {
    out[q].assign(rows.begin() + static_cast<long>(q * width),
                  rows.begin() + static_cast<long>((q + 1) * width));
  }
  return out;
}

Status DistanceMatrixEngine::KNearestEuclideanRows(
    std::size_t first, std::size_t last, std::size_t k,
    std::span<Neighbor> out, index::SearchCost* cost) const {
  const std::size_t n = size();
  if (first > last || last > n || k >= n || out.size() != (last - first) * k) {
    return Status::InvalidArgument(
        "k-NN rows [" + std::to_string(first) + ", " + std::to_string(last) +
        ") at k = " + std::to_string(k) + " do not fit " + std::to_string(n) +
        " series and " + std::to_string(out.size()) + " output slots");
  }
  // Row q's k neighbors, selected from its n final distances.
  const auto select = [&](std::size_t q, std::span<const double> row) {
    const std::vector<Neighbor> nearest = detail::SelectKSmallest(row, q, k);
    std::copy(nearest.begin(), nearest.end(),
              out.begin() + static_cast<long>((q - first) * k));
  };
  if (synopsis_index_ != nullptr) {
    // Per-query cascades parallelized over queries (grain 1: pruning makes
    // per-query work uneven; a cascade itself never forks). Each query's
    // cost lands in its own record; the fold below is index-ordered, so the
    // counters are deterministic at every thread count.
    std::vector<index::SearchCost> per_query(last - first);
    std::vector<Status> failures(last - first);
    exec::ParallelFor(
        pool_, last - first, /*grain=*/1,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t q = first + i;
            auto nearest = KNearestEuclidean(q, k, &per_query[i]);
            if (!nearest.ok()) {
              failures[i] = nearest.status();
              continue;
            }
            std::copy(nearest.ValueOrDie().begin(),
                      nearest.ValueOrDie().end(),
                      out.begin() + static_cast<long>(i * k));
          }
        });
    for (const Status& failure : failures) UTS_RETURN_NOT_OK(failure);
    if (cost != nullptr) {
      for (const index::SearchCost& record : per_query) {
        cost->Accumulate(record);
      }
    }
    return Status::OK();
  }
  detail::ChargeFullScan(cost, (last - first) * (n - 1));
  // When every series is a query and the full matrix fits in memory,
  // exploit symmetry: (a-b) is exactly -(b-a) in IEEE arithmetic and every
  // pair is one accumulation chain whichever rows it is swept with, so
  // d(q,c)² is bitwise d(c,q)² — compute the upper triangle only and mirror
  // the lower. Halves the distance work of the ground-truth build.
  constexpr std::size_t kMaxMatrixEntries = std::size_t{1} << 24;  // 128 MiB
  const ts::StoreView view(store_);
  if (first == 0 && last == n && n * n <= kMaxMatrixEntries) {
    std::vector<double> matrix(n * n, 0.0);
    // Phase 1: rows of the upper trapezoid, per query chunk. Block rows are
    // a multiple of kQueryBlock, so each query chunk sits inside one block;
    // the candidate span [chunk.begin, n) is walked block by block. Each
    // (q,c) pair is still one ordered accumulation chain, so the block cuts
    // never change a result bit.
    const auto query_chunks = ts::PartitionRows(view, distance::kQueryBlock);
    std::vector<Status> failures(query_chunks.size());
    exec::ParallelFor(
        pool_, query_chunks.size(), /*grain=*/1,
        [&](std::size_t chunk_begin, std::size_t chunk_end) {
          for (std::size_t qc = chunk_begin; qc < chunk_end; ++qc) {
            failures[qc] = [&]() -> Status {
              const ts::RowChunk& chunk = query_chunks[qc];
              UTS_ASSIGN_OR_RETURN(const auto query_pin,
                                   view.Pin(chunk.block));
              const std::size_t query_first = query_pin.first_row();
              for (std::size_t cb = chunk.block; cb < view.num_blocks();
                   ++cb) {
                UTS_ASSIGN_OR_RETURN(const auto cand_pin, view.Pin(cb));
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
              return Status::OK();
            }();
          }
        });
    for (const Status& failure : failures) UTS_RETURN_NOT_OK(failure);
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
            select(q, std::span<const double>(row, n));
          }
        });
    return Status::OK();
  }

  // Streaming sweep (a query range, or a matrix too large): parallelize
  // over query chunks; the multi-query kernel loads each candidate row once
  // per kQueryBlock queries, and each chunk writes only its own rows of
  // `out`. Candidates are swept block by block into the chunk's buffer.
  const auto query_chunks =
      ts::PartitionRowRange(view, first, last, distance::kQueryBlock);
  std::vector<Status> failures(query_chunks.size());
  exec::ParallelFor(
      pool_, query_chunks.size(), /*grain=*/1,
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t qc = chunk_begin; qc < chunk_end; ++qc) {
          failures[qc] = [&]() -> Status {
            const ts::RowChunk& chunk = query_chunks[qc];
            UTS_ASSIGN_OR_RETURN(const auto query_pin, view.Pin(chunk.block));
            const std::size_t query_first = query_pin.first_row();
            std::vector<double> block((chunk.end - chunk.begin) * n, 0.0);
            for (std::size_t cb = 0; cb < view.num_blocks(); ++cb) {
              UTS_ASSIGN_OR_RETURN(const auto cand_pin, view.Pin(cb));
              const std::size_t cand_first = cand_pin.first_row();
              dispatch_->squared_euclidean_multi_query(
                  query_pin.block(), chunk.begin - query_first,
                  chunk.end - query_first, cand_pin.block(), 0,
                  view.block_row_count(cb),
                  std::span<double>(block).subspan(cand_first), n);
            }
            for (double& v : block) v = std::sqrt(v);
            for (std::size_t q = chunk.begin; q < chunk.end; ++q) {
              select(q, std::span<const double>(block).subspan(
                            (q - chunk.begin) * n, n));
            }
            return Status::OK();
          }();
        }
      });
  for (const Status& failure : failures) UTS_RETURN_NOT_OK(failure);
  return Status::OK();
}

Result<std::vector<std::size_t>> DistanceMatrixEngine::RangeSearchEuclidean(
    std::size_t query_index, double epsilon, index::SearchCost* cost) const {
  UTS_ASSIGN_OR_RETURN(const detail::MeasureScan scan,
                       Scan(query_index, cost));
  return detail::WithinRange(scan, query_index, epsilon, cost);
}

Result<std::vector<MotifPair>> DistanceMatrixEngine::TopKMotifsEuclidean(
    std::size_t k) const {
  // Each a-chunk keeps its own k-sized heap; the heaps merge in chunk
  // order, and each pair is ranked by its final metric value, exactly like
  // the sequential reference. Row pins are free when resident.
  const std::size_t n = size();
  const ts::StoreView view(store_);
  const std::size_t grain = MotifGrain(n);
  const std::size_t chunks = exec::NumChunks(n, grain);
  std::vector<std::vector<MotifPair>> locals(chunks);
  std::vector<Status> failures(chunks);
  exec::ParallelFor(
      pool_, n, grain, [&](std::size_t begin, std::size_t end) {
        failures[begin / grain] = [&]() -> Status {
          detail::BoundedMotifHeap heap(k);
          for (std::size_t a = begin; a < end; ++a) {
            UTS_ASSIGN_OR_RETURN(const auto pin_a, view.PinRow(a));
            for (std::size_t b = a + 1; b < n; ++b) {
              UTS_ASSIGN_OR_RETURN(const auto pin_b, view.PinRow(b));
              heap.Push({a, b,
                         std::sqrt(distance::SquaredEuclidean(
                             pin_a.row(), pin_b.row()))});
            }
          }
          locals[begin / grain] = heap.TakeSorted();
          return Status::OK();
        }();
      });
  for (const Status& failure : failures) UTS_RETURN_NOT_OK(failure);
  detail::BoundedMotifHeap merged(k);
  for (const auto& local : locals) {
    for (const MotifPair& pair : local) merged.Push(pair);
  }
  return merged.TakeSorted();
}

}  // namespace uts::query
