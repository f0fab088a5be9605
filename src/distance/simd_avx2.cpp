/// \file simd_avx2.cpp
/// \brief AVX2+FMA implementations of the hot kernel families, compiled with
/// -mavx2 -mfma for this translation unit only (the rest of the library
/// stays at the baseline ISA; ResolveDispatch gates execution on a runtime
/// cpuid probe). With UNCERTTS_DISABLE_AVX2=ON the file degrades to a stub
/// that aliases the scalar table, so scalar-only builds need no intrinsics
/// headers at all.
///
/// Numeric policy (documented in simd.hpp): the Euclidean and PROUD kernels
/// split per-pair sums across lanes and contract into FMAs — pinned
/// tolerance vs the scalar reference. The DUST kernels are bitwise: the
/// lookup-table and classed kernels evaluate dust(Δ)² elementwise in lanes
/// with exactly DustLut::Eval's operations and then accumulate in the
/// scalar's ascending-timestamp order; the closed-form kernel puts one row
/// per lane, so each lane runs the scalar's own add chain for its row.

#include "distance/simd.hpp"

#if defined(UNCERTTS_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace uts::distance {

namespace {

/// Fixed-order horizontal sum: (lane0 + lane2) + (lane1 + lane3). The order
/// is arbitrary but constant, so SIMD results are a pure function of the
/// inputs (thread count and chunking can never change them).
inline double HSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // {l0+l2, l1+l3}
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

inline __m256d Abs(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

// --- Squared Euclidean -------------------------------------------------------

/// One row's squared distance: 4 independent accumulator chains over 16
/// elements per step, contracted into FMAs.
inline double SquaredRowAvx2(const double* q, const double* row,
                             std::size_t n) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  std::size_t t = 0;
  for (; t + 16 <= n; t += 16) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(row + t));
    a0 = _mm256_fmadd_pd(d0, d0, a0);
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(q + t + 4), _mm256_loadu_pd(row + t + 4));
    a1 = _mm256_fmadd_pd(d1, d1, a1);
    const __m256d d2 =
        _mm256_sub_pd(_mm256_loadu_pd(q + t + 8), _mm256_loadu_pd(row + t + 8));
    a2 = _mm256_fmadd_pd(d2, d2, a2);
    const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(q + t + 12),
                                     _mm256_loadu_pd(row + t + 12));
    a3 = _mm256_fmadd_pd(d3, d3, a3);
  }
  for (; t + 4 <= n; t += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(row + t));
    a0 = _mm256_fmadd_pd(d, d, a0);
  }
  double sum = HSum(_mm256_add_pd(_mm256_add_pd(a0, a1),
                                  _mm256_add_pd(a2, a3)));
  for (; t < n; ++t) {
    const double d = q[t] - row[t];
    sum += d * d;
  }
  return sum;
}

/// One pair's squared distance in the multi-query kernel's chain: one
/// 4-lane FMA accumulator, the fixed HSum, then a scalar tail — exactly the
/// operations a lane of a 4-query block performs.
inline double SquaredRowOneChainAvx2(const double* q, const double* row,
                                     std::size_t n) {
  __m256d s = _mm256_setzero_pd();
  std::size_t t = 0;
  for (; t + 4 <= n; t += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(row + t));
    s = _mm256_fmadd_pd(d, d, s);
  }
  double sum = HSum(s);
  for (; t < n; ++t) {
    const double d = q[t] - row[t];
    sum += d * d;
  }
  return sum;
}

void SquaredEuclideanRangeAvx2(std::span<const double> query,
                               const ts::RowBlock& block,
                               std::size_t row_begin, std::size_t row_end,
                               std::span<double> out) {
  assert(query.size() == block.stride());
  assert(row_begin <= row_end && row_end <= block.rows());
  assert(out.size() == row_end - row_begin);
  const std::size_t n = query.size();
  const std::size_t stride = block.stride();
  const double* q = query.data();
  const double* base = block.data();
  for (std::size_t r = row_begin; r < row_end; ++r) {
    out[r - row_begin] = SquaredRowAvx2(q, base + r * stride, n);
  }
}

void SquaredEuclideanMultiQueryAvx2(const ts::RowBlock& queries,
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

  // Same cache-blocked tiling as the scalar kernel: candidate tiles outer,
  // query blocks inner, each tile streamed from memory once per tile pass.
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
        // One shared candidate load feeds four FMA chains (one per query).
        __m256d s0 = _mm256_setzero_pd();
        __m256d s1 = _mm256_setzero_pd();
        __m256d s2 = _mm256_setzero_pd();
        __m256d s3 = _mm256_setzero_pd();
        std::size_t t = 0;
        for (; t + 4 <= stride; t += 4) {
          const __m256d v = _mm256_loadu_pd(row + t);
          const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(q0 + t), v);
          s0 = _mm256_fmadd_pd(d0, d0, s0);
          const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(q1 + t), v);
          s1 = _mm256_fmadd_pd(d1, d1, s1);
          const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(q2 + t), v);
          s2 = _mm256_fmadd_pd(d2, d2, s2);
          const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(q3 + t), v);
          s3 = _mm256_fmadd_pd(d3, d3, s3);
        }
        double r0 = HSum(s0), r1 = HSum(s1), r2 = HSum(s2), r3 = HSum(s3);
        for (; t < stride; ++t) {
          const double v = row[t];
          const double d0 = q0[t] - v;
          r0 += d0 * d0;
          const double d1 = q1[t] - v;
          r1 += d1 * d1;
          const double d2 = q2[t] - v;
          r2 += d2 * d2;
          const double d3 = q3[t] - v;
          r3 += d3 * d3;
        }
        o0[r - row_begin] = r0;
        o1[r - row_begin] = r1;
        o2[r - row_begin] = r2;
        o3[r - row_begin] = r3;
      }
    }
    // Leftover queries run the blocks' one-accumulator chain, not
    // SquaredRowAvx2's four: a pair's value must not depend on whether its
    // query filled a block, or a ground-truth row would change with the
    // number of queries swept alongside it.
    for (; q < query_end; ++q) {
      const double* q0 = qbase + q * stride;
      double* o0 = out.data() + (q - query_begin) * out_stride;
      for (std::size_t r = tile; r < tile_end; ++r) {
        o0[r - row_begin] = SquaredRowOneChainAvx2(q0, base + r * stride,
                                                   stride);
      }
    }
  }
}

void SquaredEuclideanEarlyAbandonRangeAvx2(std::span<const double> query,
                                           const ts::RowBlock& block,
                                           double threshold_sq,
                                           std::size_t row_begin,
                                           std::size_t row_end,
                                           std::span<double> out) {
  assert(query.size() == block.stride());
  assert(row_begin <= row_end && row_end <= block.rows());
  assert(out.size() == row_end - row_begin);
  const std::size_t n = query.size();
  const std::size_t stride = block.stride();
  const double* q = query.data();
  const double* base = block.data();
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const double* row = base + r * stride;
    // The running sum is checked once per kAbandonTile elements: partial
    // sums of squares are nondecreasing, so a per-tile check abandons
    // exactly the candidates a per-element check would (only the reported
    // overshoot value differs) without serializing the vector lanes.
    double total = 0.0;
    std::size_t t = 0;
    while (t < n) {
      const std::size_t chunk_end = std::min(t + kAbandonTile, n);
      __m256d a0 = _mm256_setzero_pd();
      __m256d a1 = _mm256_setzero_pd();
      for (; t + 8 <= chunk_end; t += 8) {
        const __m256d d0 =
            _mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(row + t));
        a0 = _mm256_fmadd_pd(d0, d0, a0);
        const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(q + t + 4),
                                         _mm256_loadu_pd(row + t + 4));
        a1 = _mm256_fmadd_pd(d1, d1, a1);
      }
      double partial = HSum(_mm256_add_pd(a0, a1));
      for (; t < chunk_end; ++t) {
        const double d = q[t] - row[t];
        partial += d * d;
      }
      total += partial;
      if (total > threshold_sq) break;
    }
    out[r - row_begin] = total;
  }
}

// --- DUST (bitwise) ----------------------------------------------------------

/// Elements per evaluation chunk of the bitwise DUST kernels: lane results
/// are staged into a stack buffer of this size, then accumulated in scalar
/// ascending-timestamp order.
constexpr std::size_t kDustChunk = 256;

/// One closed-form point's dust(Δ)², in DustBatchRange's exact operations:
/// |q − x|, times the scale, squared.
inline double ClosedFormPoint(double q, double x, double scale) {
  const double d = std::fabs(q - x) * scale;
  return d * d;
}

/// dust(Δ)² for `count` (<= kDustChunk) closed-form points into `d2`,
/// lane-exact with DustLut::Eval: |Δ| via sign mask, then two IEEE
/// multiplies — elementwise operations round identically in SIMD and
/// scalar.
inline void ClosedFormChunk(const double* q, const double* row,
                            std::size_t count, double scale, double* d2) {
  const __m256d vscale = _mm256_set1_pd(scale);
  std::size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    const __m256d delta =
        Abs(_mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(row + t)));
    const __m256d d = _mm256_mul_pd(delta, vscale);
    _mm256_storeu_pd(d2 + t, _mm256_mul_pd(d, d));
  }
  for (; t < count; ++t) d2[t] = ClosedFormPoint(q[t], row[t], scale);
}

/// Rows per pass of the closed-form kernel: two vectors of four rows, two
/// independent add chains. Sixteen rows measured slower (register
/// pressure).
constexpr std::size_t kClosedFormRows = 8;

/// Adds dust(Δ)² of timestamps [t, t + 4) of the four rows starting at
/// `row0` (`stride` apart) to `acc`, one row per lane. The 4×4 tile is
/// transposed so that each vector holds one timestamp of the four rows;
/// each lane then adds its row's four terms in ascending timestamp order,
/// with DustBatchRange's operations (`qt[k]` broadcasts q[t + k]).
inline __m256d ClosedFormRowsStep(const double* row0, std::size_t stride,
                                  std::size_t t, const __m256d qt[4],
                                  __m256d vscale, __m256d acc) {
  const __m256d a0 = _mm256_loadu_pd(row0 + t);
  const __m256d a1 = _mm256_loadu_pd(row0 + stride + t);
  const __m256d a2 = _mm256_loadu_pd(row0 + 2 * stride + t);
  const __m256d a3 = _mm256_loadu_pd(row0 + 3 * stride + t);
  const __m256d lo01 = _mm256_unpacklo_pd(a0, a1);  // r0[0] r1[0] r0[2] r1[2]
  const __m256d hi01 = _mm256_unpackhi_pd(a0, a1);  // r0[1] r1[1] r0[3] r1[3]
  const __m256d lo23 = _mm256_unpacklo_pd(a2, a3);  // r2[0] r3[0] r2[2] r3[2]
  const __m256d hi23 = _mm256_unpackhi_pd(a2, a3);  // r2[1] r3[1] r2[3] r3[3]
  const __m256d at[4] = {
      _mm256_permute2f128_pd(lo01, lo23, 0x20),  // timestamp t
      _mm256_permute2f128_pd(hi01, hi23, 0x20),  // t + 1
      _mm256_permute2f128_pd(lo01, lo23, 0x31),  // t + 2
      _mm256_permute2f128_pd(hi01, hi23, 0x31),  // t + 3
  };
  for (std::size_t k = 0; k < 4; ++k) {
    const __m256d d = _mm256_mul_pd(Abs(_mm256_sub_pd(qt[k], at[k])), vscale);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  return acc;
}

/// Closed-form DUST of rows [row_begin, row_end) in passes of eight rows
/// across lanes: whole 4-timestamp tiles in lanes, then each row's
/// timestamps past the last multiple of 4 in scalar. Every row's sum runs
/// from 0 in ascending timestamp order with the scalar kernel's operations,
/// so out is bitwise DustBatchRange's. Returns the first row not scored;
/// fewer than eight rows are left.
std::size_t DustClosedFormPassesAvx2(const double* q, std::size_t n,
                                     const double* base, std::size_t stride,
                                     double scale, std::size_t row_begin,
                                     std::size_t row_end, double* out) {
  const __m256d vscale = _mm256_set1_pd(scale);
  const std::size_t tiled = n - n % 4;
  std::size_t r = row_begin;
  for (; r + kClosedFormRows <= row_end; r += kClosedFormRows) {
    const double* rows = base + r * stride;
    __m256d acc_lo = _mm256_setzero_pd();  // rows r .. r + 3
    __m256d acc_hi = _mm256_setzero_pd();  // rows r + 4 .. r + 7
    for (std::size_t t = 0; t < tiled; t += 4) {
      const __m256d qt[4] = {_mm256_set1_pd(q[t]), _mm256_set1_pd(q[t + 1]),
                             _mm256_set1_pd(q[t + 2]),
                             _mm256_set1_pd(q[t + 3])};
      acc_lo = ClosedFormRowsStep(rows, stride, t, qt, vscale, acc_lo);
      acc_hi = ClosedFormRowsStep(rows + 4 * stride, stride, t, qt, vscale,
                                  acc_hi);
    }
    double sums[kClosedFormRows];
    _mm256_storeu_pd(sums, acc_lo);
    _mm256_storeu_pd(sums + 4, acc_hi);
    for (std::size_t i = 0; i < kClosedFormRows; ++i) {
      const double* row = rows + i * stride;
      for (std::size_t t = tiled; t < n; ++t) {
        sums[i] += ClosedFormPoint(q[t], row[t], scale);
      }
      out[r - row_begin + i] = std::sqrt(sums[i]);
    }
  }
  return r;
}

/// dust(Δ)² for `count` (<= kDustChunk) table-lookup points into `d2`.
/// Every lane operation mirrors DustLut::Eval exactly: |Δ|, the clamp at
/// delta_max, pos = Δ/step (IEEE division), idx = floor(pos) (== the
/// scalar's truncation for the non-negative pos), frac = pos − idx, two
/// gathered cells and the lerp v0·(1−frac) + v1·frac with plain mul/add
/// (no FMA — contraction would change the rounding) — so each lane result
/// is bitwise the scalar Eval.
inline void LutChunk(const double* q, const double* row, std::size_t count,
                     const DustLut& lut, double* d2) {
  const __m256d vstep = _mm256_set1_pd(lut.step);
  const __m256d vmax = _mm256_set1_pd(lut.delta_max);
  const __m256d vone = _mm256_set1_pd(1.0);
  const __m256d vlast = _mm256_set1_pd(lut.values[lut.size - 1]);
  const __m256d vlast_idx =
      _mm256_set1_pd(static_cast<double>(lut.size - 1));
  const __m128i imax = _mm_set1_epi32(static_cast<int>(lut.size - 1));
  const __m128i izero = _mm_setzero_si128();
  const __m128i ione = _mm_set1_epi32(1);
  std::size_t t = 0;
  for (; t + 4 <= count; t += 4) {
    const __m256d delta =
        Abs(_mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(row + t)));
    const __m256d clamp = _mm256_cmp_pd(delta, vmax, _CMP_GE_OQ);
    const __m256d pos = _mm256_div_pd(delta, vstep);
    const __m256d idxd = _mm256_floor_pd(pos);
    const __m256d frac = _mm256_sub_pd(pos, idxd);
    // idx + 1 >= size ⟺ idx >= size − 1 (the scalar's second clamp).
    const __m256d last = _mm256_cmp_pd(idxd, vlast_idx, _CMP_GE_OQ);
    const __m256d clamped = _mm256_or_pd(clamp, last);
    // Gather indices for clamped lanes are irrelevant (blended away) but
    // must stay in bounds.
    __m128i idx = _mm256_cvttpd_epi32(idxd);
    idx = _mm_min_epi32(_mm_max_epi32(idx, izero), imax);
    const __m128i idx1 = _mm_min_epi32(_mm_add_epi32(idx, ione), imax);
    // Masked gather with an all-ones mask and a zeroed source: same loads as
    // the plain gather, but avoids _mm256_undefined_pd inside the intrinsic
    // (GCC flags it -Wmaybe-uninitialized).
    const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    const __m256d v0 = _mm256_mask_i32gather_pd(_mm256_setzero_pd(),
                                                lut.values, idx, all, 8);
    const __m256d v1 = _mm256_mask_i32gather_pd(_mm256_setzero_pd(),
                                                lut.values, idx1, all, 8);
    const __m256d lerp = _mm256_add_pd(
        _mm256_mul_pd(v0, _mm256_sub_pd(vone, frac)), _mm256_mul_pd(v1, frac));
    const __m256d cell = _mm256_blendv_pd(lerp, vlast, clamped);
    _mm256_storeu_pd(d2 + t, _mm256_mul_pd(cell, cell));
  }
  for (; t < count; ++t) {
    const double d = lut.Eval(q[t] - row[t]);
    d2[t] = d * d;
  }
}

/// Accumulate one row's dust(Δ)² values through the table `lut` into `sum`,
/// chunked through the lane evaluator; the accumulation order is the
/// scalar's.
inline double LutRowAvx2(const double* q, const double* row, std::size_t n,
                         const DustLut& lut) {
  double d2[kDustChunk];
  double sum = 0.0;
  for (std::size_t t = 0; t < n; t += kDustChunk) {
    const std::size_t count = std::min(kDustChunk, n - t);
    LutChunk(q + t, row + t, count, lut, d2);
    for (std::size_t i = 0; i < count; ++i) sum += d2[i];
  }
  return sum;
}

void DustRangeAvx2(std::span<const double> query, const ts::RowBlock& block,
                   const DustLut& lut, std::size_t row_begin,
                   std::size_t row_end, std::span<double> out) {
  assert(query.size() == block.stride());
  assert(row_begin <= row_end && row_end <= block.rows());
  assert(out.size() == row_end - row_begin);
  const std::size_t n = query.size();
  const std::size_t stride = block.stride();
  const double* q = query.data();
  const double* base = block.data();
  // Closed form: dust(Δ) = |Δ|·scale is two cheap ops per element, so a
  // row's cost is its ordered Σ d² add chain. Splitting that chain would
  // break bitwise identity; running eight rows' chains side by side in
  // lanes does not. The rows left over go to the scalar kernel. Table
  // lookups instead vectorize the gather and lerp within one row.
  if (lut.values == nullptr) {
    const std::size_t rest = DustClosedFormPassesAvx2(
        q, n, base, stride, lut.scale, row_begin, row_end, out.data());
    DustBatchRange(query, block, lut, rest, row_end,
                   out.subspan(rest - row_begin));
    return;
  }
  for (std::size_t r = row_begin; r < row_end; ++r) {
    out[r - row_begin] = std::sqrt(LutRowAvx2(q, base + r * stride, n, lut));
  }
}

void DustClassedRangeAvx2(std::span<const double> query,
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
  // Minimum run length worth the lane evaluators' setup; shorter runs (and
  // per-point-varying error models in general) evaluate scalar — bitwise
  // either way, since the accumulation order never changes.
  constexpr std::size_t kMinVectorRun = 8;
  double d2[kDustChunk];
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const double* row = block.data() + r * n;
    const std::uint16_t* ids = class_ids.data() + r * n;
    double sum = 0.0;
    std::size_t t = 0;
    while (t < n) {
      // Maximal run sharing one (query class row, candidate class) pair —
      // the whole row, for the paper's per-series-constant error models.
      std::size_t run_end = t + 1;
      while (run_end < n && luts[run_end] == luts[t] &&
             ids[run_end] == ids[t]) {
        ++run_end;
      }
      const DustLut& lut = luts[t][ids[t]];
      if (run_end - t >= kMinVectorRun) {
        for (std::size_t c = t; c < run_end; c += kDustChunk) {
          const std::size_t count = std::min(kDustChunk, run_end - c);
          if (lut.values == nullptr) {
            ClosedFormChunk(q + c, row + c, count, lut.scale, d2);
          } else {
            LutChunk(q + c, row + c, count, lut, d2);
          }
          for (std::size_t i = 0; i < count; ++i) sum += d2[i];
        }
      } else {
        for (std::size_t c = t; c < run_end; ++c) {
          const double d = lut.Eval(q[c] - row[c]);
          sum += d * d;
        }
      }
      t = run_end;
    }
    out[r - row_begin] = std::sqrt(sum);
  }
}

// --- PROUD -------------------------------------------------------------------

void ProudMomentRangeAvx2(std::span<const double> query,
                          const ts::RowBlock& block, double v,
                          std::size_t row_begin, std::size_t row_end,
                          std::span<double> mean_out,
                          std::span<double> var_out) {
  assert(query.size() == block.stride());
  assert(row_begin <= row_end && row_end <= block.rows());
  assert(mean_out.size() == row_end - row_begin);
  assert(var_out.size() == row_end - row_begin);
  const std::size_t n = query.size();
  const std::size_t stride = block.stride();
  const double* q = query.data();
  const double* base = block.data();
  const __m256d vv = _mm256_set1_pd(v);
  const __m256d v4 = _mm256_set1_pd(4.0 * v);
  const __m256d v2sq = _mm256_set1_pd(2.0 * v * v);
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const double* row = base + r * stride;
    __m256d mean0 = _mm256_setzero_pd();
    __m256d mean1 = _mm256_setzero_pd();
    __m256d var0 = _mm256_setzero_pd();
    __m256d var1 = _mm256_setzero_pd();
    std::size_t t = 0;
    for (; t + 8 <= n; t += 8) {
      const __m256d mu_a =
          _mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(row + t));
      const __m256d mu2_a = _mm256_mul_pd(mu_a, mu_a);
      mean0 = _mm256_add_pd(mean0, _mm256_add_pd(mu2_a, vv));
      var0 = _mm256_add_pd(var0, _mm256_fmadd_pd(mu2_a, v4, v2sq));
      const __m256d mu_b = _mm256_sub_pd(_mm256_loadu_pd(q + t + 4),
                                         _mm256_loadu_pd(row + t + 4));
      const __m256d mu2_b = _mm256_mul_pd(mu_b, mu_b);
      mean1 = _mm256_add_pd(mean1, _mm256_add_pd(mu2_b, vv));
      var1 = _mm256_add_pd(var1, _mm256_fmadd_pd(mu2_b, v4, v2sq));
    }
    for (; t + 4 <= n; t += 4) {
      const __m256d mu =
          _mm256_sub_pd(_mm256_loadu_pd(q + t), _mm256_loadu_pd(row + t));
      const __m256d mu2 = _mm256_mul_pd(mu, mu);
      mean0 = _mm256_add_pd(mean0, _mm256_add_pd(mu2, vv));
      var0 = _mm256_add_pd(var0, _mm256_fmadd_pd(mu2, v4, v2sq));
    }
    double mean_sq = HSum(_mm256_add_pd(mean0, mean1));
    double var_sq = HSum(_mm256_add_pd(var0, var1));
    for (; t < n; ++t) {
      const double mu = q[t] - row[t];
      const double mu2 = mu * mu;
      mean_sq += mu2 + v;
      var_sq += 2.0 * v * v + 4.0 * mu2 * v;
    }
    mean_out[r - row_begin] = mean_sq;
    var_out[r - row_begin] = var_sq;
  }
}

}  // namespace

bool Avx2CompiledIn() { return true; }

const KernelDispatch& Avx2Dispatch() {
  static const KernelDispatch table = {
      .level = SimdLevel::kAvx2,
      .squared_euclidean_range = &SquaredEuclideanRangeAvx2,
      .squared_euclidean_multi_query = &SquaredEuclideanMultiQueryAvx2,
      .squared_euclidean_early_abandon_range =
          &SquaredEuclideanEarlyAbandonRangeAvx2,
      .dust_range = &DustRangeAvx2,
      .dust_classed_range = &DustClassedRangeAvx2,
      .proud_moment_range = &ProudMomentRangeAvx2,
  };
  return table;
}

}  // namespace uts::distance

#else  // !defined(UNCERTTS_HAVE_AVX2)

namespace uts::distance {

bool Avx2CompiledIn() { return false; }

// Scalar-only build (UNCERTTS_DISABLE_AVX2=ON or non-x86 target): the AVX2
// table aliases the scalar reference so ResolveDispatch never needs a
// special case.
const KernelDispatch& Avx2Dispatch() { return ScalarDispatch(); }

}  // namespace uts::distance

#endif  // UNCERTTS_HAVE_AVX2
