/// \file dust.hpp
/// \brief DUST — a Dissimilarity measure for Uncertain time Series.
///
/// Reimplementation of Sarangi & Murthy (KDD 2010) as described in Section
/// 2.3 of the paper. For two uncertain values whose observations differ by
/// Δ = |x − y|, DUST defines the similarity
///
///     φ(Δ) = Pr( r(x) − r(y) = 0 | observed difference Δ )     (Eq. 12)
///
/// i.e. the likelihood density that the true values coincide. With the error
/// posteriors f_x(v | x) ∝ p_err(x − v)·p_value(v), this is the overlap
/// integral of the two posteriors:
///
///     φ(Δ) = ∫ f_x(v | 0) · f_y(v | Δ) dv
///
/// The per-point dissimilarity is
///
///     dust(x, y) = sqrt( −log φ(|x−y|) − k ),   k = −log φ(0)
///                = sqrt( log φ(0) − log φ(Δ) )
///
/// and the sequence distance is DUST(X,Y) = sqrt( Σ_i dust(x_i, y_i)² )
/// (Eq. 13). DUST is a plain (non-probabilistic) distance, so it plugs into
/// any certain-series mining algorithm, including DTW (Section 3.2).
///
/// Properties reproduced here and checked in tests:
///  * normal error (both points, std σx, σy) has the closed form
///    dust(Δ) = Δ / sqrt(2 (σx² + σy²)) — proportional to Euclidean, exactly
///    as the paper observes ("DUST is equivalent to the Euclidean distance,
///    in the case where the error ... follows the normal distribution");
///  * pure uniform error makes φ(Δ) = 0 for Δ beyond the support overlap, so
///    dust degenerates (logarithm of zero). This pathology is *preserved*
///    (saturating at a large finite value controlled by `phi_floor`) because
///    the paper measures its accuracy impact (Figure 5(b)); the documented
///    workaround is to report a `TailedUniform` error instead
///    (`ErrorSpec::WithTailedUniformReporting`).
///
/// Evaluation of φ is numeric (adaptive Simpson over the posterior overlap)
/// with results cached in per-error-pair lookup tables, mirroring "how the
/// DUST lookup tables are determined" in the original code (Section 4.2.1).

#ifndef UTS_MEASURES_DUST_HPP_
#define UTS_MEASURES_DUST_HPP_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "distance/batch.hpp"
#include "distance/dtw.hpp"
#include "prob/distribution.hpp"
#include "uncertain/uncertain_series.hpp"

namespace uts::measures {

/// \brief Configuration of the DUST distance.
struct DustOptions {
  /// Maximum observed difference Δ covered by the lookup table. Differences
  /// beyond it clamp to the last table cell. Z-normalized series perturbed
  /// with σ ≤ 2 rarely exceed |Δ| ≈ 12.
  double table_delta_max = 16.0;

  /// Number of table cells; linear interpolation between them.
  std::size_t table_size = 2048;

  /// Floor applied to φ before taking logarithms. Pure uniform error makes
  /// φ exactly zero beyond the support overlap; the floor converts the
  /// resulting +∞ into a large, constant "saturated" dissimilarity so that
  /// sequence distances stay finite and comparable (see file comment).
  double phi_floor = 1e-30;

  /// Use the closed-form Gaussian expression when both error models are
  /// normal (bypasses integration; bit-exact proportionality to Euclidean).
  bool use_closed_form_normal = true;

  /// Half-range of the numeric integration domain for unbounded error
  /// supports, in units of the combined standard deviation.
  double integration_sigmas = 10.0;

  /// Uniform value prior half-range R: the DUST paper "makes the assumption
  /// that this [value] distribution is uniform" (Section 4.1.1). A flat
  /// (improper) prior — the R → ∞ limit — makes φ depend on Δ only, which
  /// is what the lookup table requires; this is the default (R = 0 means
  /// flat). A finite R is accepted for sensitivity analysis; the table is
  /// then built for points centered in the range (documented approximation).
  double value_prior_half_range = 0.0;
};

/// \brief Precomputed dust(Δ) for one ordered pair of error distributions.
class DustTable {
 public:
  /// Build the table for points with error models `ex` and `ey`.
  static Result<DustTable> Build(const prob::ErrorDistribution& ex,
                                 const prob::ErrorDistribution& ey,
                                 const DustOptions& options);

  /// Interpolated dust value at observed difference Δ >= 0. Evaluates
  /// through the same distance::DustLut::Eval the batch kernels use, so the
  /// scalar and batched paths are bit-identical by construction.
  double Dust(double delta) const { return Lut().Eval(delta); }

  /// Borrowed immutable view for the batch kernels; valid while this table
  /// lives at its current address (tables are heap-pinned in Dust's cache
  /// and in UncertainEngine, both immutable after build).
  distance::DustLut Lut() const {
    distance::DustLut lut;
    if (closed_form_) {
      lut.scale = gaussian_scale_;
      return lut;
    }
    lut.values = dust_values_.data();
    lut.size = dust_values_.size();
    lut.step = step_;
    lut.delta_max = delta_max_;
    return lut;
  }

  /// Interpolated φ(Δ) (before flooring), for diagnostics and tests.
  double Phi(double delta) const;

  /// φ(0), the self-similarity peak used for the reflexivity constant k.
  double phi0() const { return phi0_; }

  /// True when built through the closed-form Gaussian path.
  bool closed_form() const { return closed_form_; }

 private:
  DustTable() = default;

  double delta_max_ = 0.0;
  double step_ = 0.0;
  double phi0_ = 0.0;
  double gaussian_scale_ = 0.0;  // closed-form: dust = Δ * gaussian_scale_
  bool closed_form_ = false;
  std::vector<double> dust_values_;
  std::vector<double> phi_values_;
};

/// \brief The DUST distance with a per-error-pair table cache.
///
/// Thread-safe: concurrent calls may share one instance. The cache grows on
/// first use of each error pair under a mutex, which the distance loops take
/// only when a point's error pair differs from the previous point's. Tables
/// are heap-pinned and immutable once built, so they are read unlocked.
class Dust {
 public:
  explicit Dust(DustOptions options = {}) : options_(options) {}

  const DustOptions& options() const { return options_; }

  /// dust(x, y) between two uncertain points.
  Result<double> PointDust(double x_obs, const prob::ErrorDistribution& ex,
                           double y_obs, const prob::ErrorDistribution& ey);

  /// DUST(X, Y) = sqrt( Σ_i dust(x_i, y_i)² )   (Eq. 13).
  Result<double> Distance(const uncertain::UncertainSeries& x,
                          const uncertain::UncertainSeries& y);

  /// DTW with dust² as the local cost ("DUST can be employed to compute the
  /// Dynamic Time Warping distance", Section 3.2). Returns the square root
  /// of the accumulated cost, mirroring the L2-style DTW convention.
  Result<double> DtwDistance(const uncertain::UncertainSeries& x,
                             const uncertain::UncertainSeries& y,
                             const distance::DtwOptions& dtw_options = {});

  /// The cached table of an error pair (building it on first use). The
  /// returned pointer is heap-pinned and stays valid for this instance's
  /// lifetime — the cache only ever grows. The pair is memoized by model
  /// pointer, which keeps both models alive for this instance's lifetime.
  Result<const DustTable*> Table(const prob::ErrorDistributionPtr& ex,
                                 const prob::ErrorDistributionPtr& ey);

  /// `Table` looked up by the models' `Key()`s alone: it keeps no model
  /// alive, so a persistent Dust instance serving dataset after dataset
  /// (query::UncertainEngine::BuildDustTables borrows its tables this way)
  /// holds their tables, not their models. Same tables, same pointer
  /// lifetime.
  Result<const DustTable*> TableByKey(const prob::ErrorDistribution& ex,
                                      const prob::ErrorDistribution& ey);

  /// Number of distinct tables currently cached.
  std::size_t CacheSize() const;

 private:
  /// Caller holds `mutex_`.
  Result<const DustTable*> TableFor(const prob::ErrorDistribution& ex,
                                    const prob::ErrorDistribution& ey);

  /// Pointer-identity fast path over `TableFor`: avoids re-deriving the
  /// string keys on every point pair (the hot loop of Distance). The
  /// referenced distributions are pinned in `pinned_` so the pointer keys
  /// cannot dangle or be recycled. Caller holds `mutex_`.
  Result<const DustTable*> TableForFast(const prob::ErrorDistributionPtr& ex,
                                        const prob::ErrorDistributionPtr& ey);

  DustOptions options_;
  mutable std::mutex mutex_;  ///< Guards the three maps below.
  std::map<std::pair<std::string, std::string>, std::unique_ptr<DustTable>>
      cache_;
  std::map<std::pair<const void*, const void*>, const DustTable*> fast_cache_;
  std::map<const void*, prob::ErrorDistributionPtr> pinned_;
};

}  // namespace uts::measures

#endif  // UTS_MEASURES_DUST_HPP_
