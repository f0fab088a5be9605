/// \file proud.hpp
/// \brief PROUD — PRObabilistic queries over Uncertain Data streams.
///
/// Reimplementation of the technique of Yeh, Wu, Yu and Chen (EDBT 2009) as
/// described in Section 2.2 of the paper. The distance between two uncertain
/// series X, Y is the random variable
///
///     distance(X, Y) = Σ_i D_i²,        D_i = x_i − y_i            (Eq. 5)
///
/// which, by the central limit theorem, approaches
///
///     N( Σ_i E[D_i²],  Σ_i Var[D_i²] )                              (Eq. 7)
///
/// A candidate matches the probabilistic range query PRQ(Q, C, ε, τ) iff
///
///     ε_norm(X,Y) = (ε² − E[distance]) / sqrt(Var[distance]) ≥ Φ⁻¹(τ)
///                                                        (Eq. 8–11)
///
/// PROUD "requires to know the standard deviation of the uncertainty error,
/// and a single observed value for each timestamp" and "assumes that the
/// standard deviation of the uncertainty error remains constant across all
/// timestamps" (Section 3.1). The constant-σ mode below is therefore the
/// paper-faithful configuration; an exact per-point moment propagation is
/// also provided for analysis and tests.

#ifndef UTS_MEASURES_PROUD_HPP_
#define UTS_MEASURES_PROUD_HPP_

#include <span>

#include "common/result.hpp"
#include "prob/distribution.hpp"
#include "uncertain/uncertain_series.hpp"

namespace uts::measures {

/// \brief First two moments of the PROUD squared-distance statistic.
struct ProudStats {
  double mean_sq = 0.0;  ///< E[Σ D_i²]
  double var_sq = 0.0;   ///< Var[Σ D_i²]
};

/// \brief The τ-independent half of the PRQ decision (Eq. 10) for one pair.
/// Scored once, it decides any number of thresholds: a τ search evaluates
/// the moments and ε_norm once per pair and Φ⁻¹(τ) once per τ.
struct ProudMargin {
  bool degenerate = false;  ///< var_sq <= 0: the distance is deterministic.
  bool within = false;      ///< The degenerate decision, mean_sq <= ε².
  double eps_norm = 0.0;    ///< (ε² − mean_sq) / sqrt(var_sq); unused when
                            ///< degenerate.

  /// The PRQ decision at ε_limit = Φ⁻¹(τ).
  bool Decide(double limit) const {
    return degenerate ? within : eps_norm >= limit;
  }
};

/// \brief Configuration of the PROUD matcher.
struct ProudOptions {
  /// Probability threshold τ of the PRQ query.
  double tau = 0.9;

  /// The constant per-point error standard deviation PROUD is told. This is
  /// the technique's central modeling assumption; under the paper's mixed
  /// experiments (Figures 8–10) it deliberately mismatches the data.
  double sigma = 1.0;
};

/// \brief The PROUD probabilistic matcher.
class Proud {
 public:
  explicit Proud(ProudOptions options) : options_(options) {
    assert(options.tau > 0.0 && options.tau < 1.0);
    assert(options.sigma >= 0.0);
  }

  const ProudOptions& options() const { return options_; }

  /// Moments of Σ D_i² in the paper-faithful constant-σ model: each D_i is
  /// normal with mean (x_i − y_i) and variance 2σ² (both series carry
  /// independent error of standard deviation σ).
  ProudStats DistanceStats(std::span<const double> x_obs,
                           std::span<const double> y_obs) const;

  /// Pr(distance(X, Y) ≤ ε²) under the CLT normal approximation (Eq. 7).
  /// ε is a Euclidean-distance threshold; the square happens internally.
  double MatchProbability(std::span<const double> x_obs,
                          std::span<const double> y_obs, double epsilon) const;

  /// PRQ decision via the ε_norm ≥ ε_limit test (Eq. 10).
  bool Matches(std::span<const double> x_obs, std::span<const double> y_obs,
               double epsilon) const;

  /// ε_limit = Φ⁻¹(τ) (Eq. 8: the paper's "statistics tables" lookup).
  double EpsilonLimit() const;

  /// Exact moment propagation through arbitrary per-point error models:
  /// with E_i = e_x,i − e_y,i (independent, zero-mean),
  ///   E[D_i²]   = μ_i² + m2_i
  ///   E[D_i⁴]   = μ_i⁴ + 6 μ_i² m2_i + 4 μ_i m3_i + m4_i
  ///   Var[D_i²] = E[D_i⁴] − E[D_i²]²
  /// where the mk_i combine both series' central moments. This is what
  /// PROUD *could* do with full distribution knowledge; the library exposes
  /// it for the analytical comparison and for validating the constant-σ
  /// approximation in tests.
  static ProudStats DistanceStatsGeneral(const uncertain::UncertainSeries& x,
                                         const uncertain::UncertainSeries& y);

  /// Match probability using the general per-point moments.
  static double MatchProbabilityGeneral(const uncertain::UncertainSeries& x,
                                        const uncertain::UncertainSeries& y,
                                        double epsilon);

  /// Pr(distance ≤ ε) from already-accumulated moments — the single
  /// expression behind MatchProbability and MatchProbabilityGeneral, shared
  /// with the batched query::UncertainEngine sweeps so batch decisions are
  /// bit-identical to the scalar matcher.
  static double ProbabilityFromStats(const ProudStats& stats, double epsilon);

  /// ε_norm (or the degenerate decision) from accumulated moments — the
  /// single expression behind ProbabilityFromStats and DecideFromStats.
  static ProudMargin MarginFromStats(const ProudStats& stats, double epsilon);

  /// The ε_norm ≥ Φ⁻¹(τ) PRQ decision (Eq. 10) from accumulated moments:
  /// `MarginFromStats(stats, ε).Decide(Φ⁻¹(τ))`.
  static bool DecideFromStats(const ProudStats& stats, double epsilon,
                              double tau);

 private:
  ProudOptions options_;
};

}  // namespace uts::measures

#endif  // UTS_MEASURES_PROUD_HPP_
