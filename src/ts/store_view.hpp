/// \file store_view.hpp
/// \brief Pinned access to a `ts::SoaStore` — the only way row bytes reach a
/// consumer.
///
/// A `StoreView` exposes the store's block geometry and hands out pinned
/// blocks: `Pin(b)` returns a `PinnedBlock` whose `RowBlock` stays resident
/// until the guard dies, `PinRow(r)` pins the block containing one row. For
/// resident (unpaged) stores a pin is a pointer copy — no pool traffic, no
/// atomic, nothing — so the hot resident path pays nothing for the API.
///
/// `PartitionRows` is the paging-aware sibling of the engines' old
/// `ParallelFor(n, grain)` partition: it emits the exact same grain-sized
/// chunks in the same order and merely clips them at block boundaries, so a
/// worker never needs two candidate blocks pinned for one chunk. For a
/// resident store (one block) the output is bit-for-bit the old partition;
/// for a paged store the extra cuts only change which worker computes a
/// pair, never the per-pair accumulation order — the determinism contract
/// (docs/ARCHITECTURE.md §3, §7) makes both irrelevant to the result.

#ifndef UTS_TS_STORE_VIEW_HPP_
#define UTS_TS_STORE_VIEW_HPP_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "ts/row_block.hpp"
#include "ts/soa_store.hpp"

namespace uts::ts {

/// \brief Borrowed, copyable handle over a store's blocks; the store must
/// outlive the view and every pin taken from it.
class StoreView {
 public:
  /// \brief RAII pin over one block: the wrapped RowBlock is valid until
  /// this guard is destroyed. Movable, not copyable.
  class PinnedBlock {
   public:
    PinnedBlock() = default;
    ~PinnedBlock() { Release(); }
    PinnedBlock(PinnedBlock&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          page_(std::exchange(other.page_, nullptr)),
          block_(other.block_),
          first_row_(other.first_row_) {}
    PinnedBlock& operator=(PinnedBlock&& other) noexcept {
      if (this != &other) {
        Release();
        pool_ = std::exchange(other.pool_, nullptr);
        page_ = std::exchange(other.page_, nullptr);
        block_ = other.block_;
        first_row_ = other.first_row_;
      }
      return *this;
    }
    PinnedBlock(const PinnedBlock&) = delete;
    PinnedBlock& operator=(const PinnedBlock&) = delete;

    /// The pinned rows; indices into it are block-local.
    const RowBlock& block() const { return block_; }

    /// Global index of the block's first row (local row 0).
    std::size_t first_row() const { return first_row_; }

   private:
    friend class StoreView;
    PinnedBlock(BufferPool* pool, BufferPool::Page* page, RowBlock block,
                std::size_t first_row)
        : pool_(pool), page_(page), block_(block), first_row_(first_row) {}

    void Release() {
      if (pool_ != nullptr && page_ != nullptr) pool_->Unpin(page_);
      pool_ = nullptr;
      page_ = nullptr;
    }

    BufferPool* pool_ = nullptr;  ///< Null for resident stores: nothing to unpin.
    BufferPool::Page* page_ = nullptr;
    RowBlock block_;
    std::size_t first_row_ = 0;
  };

  /// \brief RAII pin of the block containing a single row.
  class PinnedRow {
   public:
    PinnedRow() = default;

    /// The pinned row values.
    std::span<const double> row() const { return row_; }

   private:
    friend class StoreView;
    PinnedRow(PinnedBlock pin, std::span<const double> row)
        : pin_(std::move(pin)), row_(row) {}

    PinnedBlock pin_;
    std::span<const double> row_;
  };

  /// View over `store`; the store must outlive the view.
  explicit StoreView(const SoaStore& store) : store_(&store) {}

  /// Number of series.
  std::size_t rows() const { return store_->rows(); }

  /// Length of every series.
  std::size_t stride() const { return store_->stride(); }

  /// True iff the store holds no series.
  bool empty() const { return store_->empty(); }

  /// Number of blocks.
  std::size_t num_blocks() const { return store_->num_blocks(); }

  /// Block containing global row `row`.
  std::size_t block_of(std::size_t row) const {
    assert(row < store_->rows());
    return row / store_->block_rows();
  }

  /// Global index of block `b`'s first row.
  std::size_t block_first_row(std::size_t b) const {
    return store_->block_first_row(b);
  }

  /// Row count of block `b`.
  std::size_t block_row_count(std::size_t b) const {
    return store_->block_row_count(b);
  }

  /// Pin block `b` resident; fails only when a paged store's spill log is
  /// unreadable.
  Result<PinnedBlock> Pin(std::size_t b) const {
    assert(b < store_->num_blocks());
    const std::size_t first = store_->block_first_row(b);
    const std::size_t count = store_->block_row_count(b);
    if (!store_->paged()) {
      return PinnedBlock(nullptr, nullptr,
                         RowBlock(store_->values_.data() +
                                      first * store_->stride(),
                                  store_->stride(), count),
                         first);
    }
    BufferPool* pool = store_->pool_.get();
    BufferPool::Page* page = store_->pages_[b].get();
    UTS_ASSIGN_OR_RETURN(const double* data, pool->Pin(page));
    return PinnedBlock(pool, page, RowBlock(data, store_->stride(), count),
                       first);
  }

  /// Pin the block containing global row `row` and return that row.
  Result<PinnedRow> PinRow(std::size_t row) const {
    UTS_ASSIGN_OR_RETURN(PinnedBlock pin, Pin(block_of(row)));
    const std::span<const double> values =
        pin.block().row(row - pin.first_row());
    return PinnedRow(std::move(pin), values);
  }

 private:
  const SoaStore* store_;
};

/// \brief One scan chunk: global candidate rows [begin, end) all inside
/// block `block`.
struct RowChunk {
  std::size_t block;  ///< Block the rows live in.
  std::size_t begin;  ///< First global row.
  std::size_t end;    ///< One past the last global row.
};

/// Grain-sized scan chunks over rows [row_begin, row_end), clipped at block
/// boundaries. Identical to the classic `ParallelFor(n, grain)` chunking
/// for single-block stores; see the file comment for the determinism
/// argument. `grain == 0` is treated as 1.
inline std::vector<RowChunk> PartitionRowRange(const StoreView& view,
                                               std::size_t row_begin,
                                               std::size_t row_end,
                                               std::size_t grain) {
  if (grain == 0) grain = 1;
  std::vector<RowChunk> chunks;
  if (row_begin >= row_end) return chunks;
  chunks.reserve((row_end - row_begin + grain - 1) / grain + 1);
  std::size_t at = row_begin;
  while (at < row_end) {
    const std::size_t grain_end =
        row_begin + ((at - row_begin) / grain + 1) * grain;
    const std::size_t block = view.block_of(at);
    const std::size_t block_end =
        view.block_first_row(block) + view.block_row_count(block);
    const std::size_t end = std::min({grain_end, block_end, row_end});
    chunks.push_back(RowChunk{block, at, end});
    at = end;
  }
  return chunks;
}

/// PartitionRowRange over the whole store.
inline std::vector<RowChunk> PartitionRows(const StoreView& view,
                                           std::size_t grain) {
  return PartitionRowRange(view, 0, view.rows(), grain);
}

/// Pin that treats failure as fatal. A pin can only fail when a paged
/// store's spill log has become unreadable. Queries do not use this: their
/// scans pin through `StoreView::Pin` and return the failure as a
/// `Status` (query/scan.hpp). It is left for the callers that still
/// return plain values — the synopsis index build and the certain
/// engine's ground-truth and motif loops — which fail stop rather than
/// hand back wrong rows (docs/ARCHITECTURE.md §6).
inline StoreView::PinnedBlock PinOrAbort(const StoreView& view,
                                         std::size_t block) {
  auto pinned = view.Pin(block);
  if (!pinned.ok()) {
    std::fprintf(stderr, "uncertts: block pin failed: %s\n",
                 pinned.status().ToString().c_str());
    std::abort();
  }
  return std::move(pinned).ValueOrDie();
}

/// Row variant of PinOrAbort.
inline StoreView::PinnedRow PinRowOrAbort(const StoreView& view,
                                          std::size_t row) {
  auto pinned = view.PinRow(row);
  if (!pinned.ok()) {
    std::fprintf(stderr, "uncertts: row pin failed: %s\n",
                 pinned.status().ToString().c_str());
    std::abort();
  }
  return std::move(pinned).ValueOrDie();
}

}  // namespace uts::ts

#endif  // UTS_TS_STORE_VIEW_HPP_
