#include "distance/batch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ts/store_view.hpp"

namespace uts::distance {

namespace {

/// Apply `row_kernel(row_pointer)` to block-local rows [row_begin, row_end),
/// streaming the block in row order. out[0] corresponds to row_begin.
template <typename RowKernel>
void ForEachRow(const ts::RowBlock& block, std::size_t row_begin,
                std::size_t row_end, std::span<double> out,
                const RowKernel& row_kernel) {
  assert(row_begin <= row_end && row_end <= block.rows());
  assert(out.size() == row_end - row_begin);
  const std::size_t stride = block.stride();
  const double* base = block.data();
  for (std::size_t r = row_begin; r < row_end; ++r) {
    out[r - row_begin] = row_kernel(base + r * stride);
  }
}

/// Run `body(block, local_begin, local_end, out_slice)` over every block of
/// a resident store (exactly one non-empty block, pinned for free).
template <typename Body>
void ForEachResidentBlock(const ts::SoaStore& store, std::span<double> out,
                          const Body& body) {
  assert(!store.paged());
  const ts::StoreView view(store);
  for (std::size_t b = 0; b < view.num_blocks(); ++b) {
    auto pinned = view.Pin(b);
    assert(pinned.ok());  // resident pins cannot fail
    const ts::StoreView::PinnedBlock& pin = pinned.ValueOrDie();
    const std::size_t first = pin.first_row();
    const std::size_t count = pin.block().rows();
    body(pin.block(), 0, count, out.subspan(first, count));
  }
}

}  // namespace

void SquaredEuclideanBatchRange(std::span<const double> query,
                                const ts::RowBlock& block,
                                std::size_t row_begin, std::size_t row_end,
                                std::span<double> out) {
  assert(query.size() == block.stride());
  const std::size_t n = query.size();
  const double* q = query.data();
  ForEachRow(block, row_begin, row_end, out, [q, n](const double* row) {
    double sum = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double d = q[t] - row[t];
      sum += d * d;
    }
    return sum;
  });
}

void EuclideanBatchRange(std::span<const double> query,
                         const ts::RowBlock& block, std::size_t row_begin,
                         std::size_t row_end, std::span<double> out) {
  SquaredEuclideanBatchRange(query, block, row_begin, row_end, out);
  for (double& v : out) v = std::sqrt(v);
}

void SquaredEuclideanMultiQueryBatch(const ts::RowBlock& queries,
                                     std::size_t query_begin,
                                     std::size_t query_end,
                                     const ts::RowBlock& candidates,
                                     std::size_t row_begin,
                                     std::size_t row_end,
                                     std::span<double> out,
                                     std::size_t out_stride) {
  assert(query_begin <= query_end && query_end <= queries.rows());
  assert(row_begin <= row_end && row_end <= candidates.rows());
  assert(queries.stride() == candidates.stride());
  const std::size_t rows = row_end - row_begin;
  assert(out_stride >= rows);
  assert(query_begin == query_end ||
         out.size() >= (query_end - query_begin - 1) * out_stride + rows);
  (void)rows;
  const std::size_t stride = candidates.stride();
  const double* qbase = queries.data();
  const double* base = candidates.data();

  // Candidate tiles outer, query blocks inner: one tile of rows is fetched
  // from memory once and replayed against every query block while it is
  // still cache-resident (see kCandidateTileBytes). Per (query, candidate)
  // pair nothing changes — one accumulator, ascending timestamp — so the
  // tiling is invisible in the results.
  const std::size_t tile_rows = CandidateTileRows(stride);
  for (std::size_t tile = row_begin; tile < row_end; tile += tile_rows) {
    const std::size_t tile_end = std::min(tile + tile_rows, row_end);
    std::size_t q = query_begin;
    for (; q + kQueryBlock <= query_end; q += kQueryBlock) {
      const double* q0 = qbase + q * stride;
      const double* q1 = q0 + stride;
      const double* q2 = q1 + stride;
      const double* q3 = q2 + stride;
      double* o0 = out.data() + (q - query_begin) * out_stride;
      double* o1 = o0 + out_stride;
      double* o2 = o1 + out_stride;
      double* o3 = o2 + out_stride;
      for (std::size_t r = tile; r < tile_end; ++r) {
        const double* row = base + r * stride;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::size_t t = 0; t < stride; ++t) {
          const double v = row[t];
          const double d0 = q0[t] - v;
          s0 += d0 * d0;
          const double d1 = q1[t] - v;
          s1 += d1 * d1;
          const double d2 = q2[t] - v;
          s2 += d2 * d2;
          const double d3 = q3[t] - v;
          s3 += d3 * d3;
        }
        o0[r - row_begin] = s0;
        o1[r - row_begin] = s1;
        o2[r - row_begin] = s2;
        o3[r - row_begin] = s3;
      }
    }
    for (; q < query_end; ++q) {
      SquaredEuclideanBatchRange(
          queries.row(q), candidates, tile, tile_end,
          out.subspan((q - query_begin) * out_stride + (tile - row_begin),
                      tile_end - tile));
    }
  }
}

void DustBatchRange(std::span<const double> query, const ts::RowBlock& block,
                    const DustLut& lut, std::size_t row_begin,
                    std::size_t row_end, std::span<double> out) {
  assert(query.size() == block.stride());
  const std::size_t n = query.size();
  const double* q = query.data();
  if (lut.values == nullptr) {
    // Normal-error closed form: dust(Δ) = |Δ| · scale, no table loads.
    const double scale = lut.scale;
    ForEachRow(block, row_begin, row_end, out, [q, n, scale](const double* row) {
      double sum = 0.0;
      for (std::size_t t = 0; t < n; ++t) {
        const double d = std::fabs(q[t] - row[t]) * scale;
        sum += d * d;
      }
      return std::sqrt(sum);
    });
    return;
  }
  ForEachRow(block, row_begin, row_end, out, [q, n, &lut](const double* row) {
    double sum = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double d = lut.Eval(q[t] - row[t]);
      sum += d * d;
    }
    return std::sqrt(sum);
  });
}

void DustClassedBatchRange(std::span<const double> query,
                           const ts::RowBlock& block,
                           std::span<const DustLut* const> query_luts,
                           std::span<const std::uint16_t> class_ids,
                           std::size_t row_begin, std::size_t row_end,
                           std::span<double> out) {
  assert(query.size() == block.stride());
  assert(query_luts.size() == block.stride());
  assert(class_ids.size() == block.rows() * block.stride());
  assert(row_begin <= row_end && row_end <= block.rows());
  assert(out.size() == row_end - row_begin);
  const std::size_t n = query.size();
  const double* q = query.data();
  const DustLut* const* luts = query_luts.data();
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const double* row = block.data() + r * n;
    const std::uint16_t* ids = class_ids.data() + r * n;
    double sum = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double d = luts[t][ids[t]].Eval(q[t] - row[t]);
      sum += d * d;
    }
    out[r - row_begin] = std::sqrt(sum);
  }
}

void ProudMomentBatchRange(std::span<const double> query,
                           const ts::RowBlock& block, double v,
                           std::size_t row_begin, std::size_t row_end,
                           std::span<double> mean_out,
                           std::span<double> var_out) {
  assert(query.size() == block.stride());
  assert(row_begin <= row_end && row_end <= block.rows());
  assert(mean_out.size() == row_end - row_begin);
  assert(var_out.size() == row_end - row_begin);
  const std::size_t n = query.size();
  const double* q = query.data();
  const std::size_t stride = block.stride();
  const double* base = block.data();
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const double* row = base + r * stride;
    double mean_sq = 0.0;
    double var_sq = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double mu = q[t] - row[t];
      const double mu2 = mu * mu;
      mean_sq += mu2 + v;
      var_sq += 2.0 * v * v + 4.0 * mu2 * v;
    }
    mean_out[r - row_begin] = mean_sq;
    var_out[r - row_begin] = var_sq;
  }
}

void SquaredEuclideanEarlyAbandonBatchRange(std::span<const double> query,
                                            const ts::RowBlock& block,
                                            double threshold_sq,
                                            std::size_t row_begin,
                                            std::size_t row_end,
                                            std::span<double> out) {
  assert(query.size() == block.stride());
  const std::size_t n = query.size();
  const double* q = query.data();
  ForEachRow(block, row_begin, row_end, out,
             [q, n, threshold_sq](const double* row) {
               double sum = 0.0;
               for (std::size_t t = 0; t < n; ++t) {
                 const double d = q[t] - row[t];
                 sum += d * d;
                 if (sum > threshold_sq) return sum;
               }
               return sum;
             });
}

void SquaredEuclideanBatch(std::span<const double> query,
                           const ts::SoaStore& store, std::span<double> out) {
  assert(out.size() == store.rows());
  ForEachResidentBlock(
      store, out,
      [&query](const ts::RowBlock& block, std::size_t begin, std::size_t end,
               std::span<double> slice) {
        SquaredEuclideanBatchRange(query, block, begin, end, slice);
      });
}

void EuclideanBatch(std::span<const double> query, const ts::SoaStore& store,
                    std::span<double> out) {
  assert(out.size() == store.rows());
  ForEachResidentBlock(
      store, out,
      [&query](const ts::RowBlock& block, std::size_t begin, std::size_t end,
               std::span<double> slice) {
        EuclideanBatchRange(query, block, begin, end, slice);
      });
}

void LpBatch(std::span<const double> query, const ts::SoaStore& store,
             double p, std::span<double> out) {
  assert(query.size() == store.stride());
  assert(out.size() == store.rows());
  assert(p >= 1.0);
  const std::size_t n = query.size();
  const double* q = query.data();
  if (p == 2.0) {
    EuclideanBatch(query, store, out);
    return;
  }
  if (p == 1.0) {
    ForEachResidentBlock(
        store, out,
        [q, n](const ts::RowBlock& block, std::size_t begin, std::size_t end,
               std::span<double> slice) {
          ForEachRow(block, begin, end, slice, [q, n](const double* row) {
            double sum = 0.0;
            for (std::size_t t = 0; t < n; ++t) sum += std::fabs(q[t] - row[t]);
            return sum;
          });
        });
    return;
  }
  ForEachResidentBlock(
      store, out,
      [q, n, p](const ts::RowBlock& block, std::size_t begin, std::size_t end,
                std::span<double> slice) {
        ForEachRow(block, begin, end, slice, [q, n, p](const double* row) {
          double sum = 0.0;
          for (std::size_t t = 0; t < n; ++t) {
            sum += std::pow(std::fabs(q[t] - row[t]), p);
          }
          return std::pow(sum, 1.0 / p);
        });
      });
}

void SquaredEuclideanEarlyAbandonBatch(std::span<const double> query,
                                       const ts::SoaStore& store,
                                       double threshold_sq,
                                       std::span<double> out) {
  assert(out.size() == store.rows());
  ForEachResidentBlock(
      store, out,
      [&query, threshold_sq](const ts::RowBlock& block, std::size_t begin,
                             std::size_t end, std::span<double> slice) {
        SquaredEuclideanEarlyAbandonBatchRange(query, block, threshold_sq,
                                               begin, end, slice);
      });
}

}  // namespace uts::distance
