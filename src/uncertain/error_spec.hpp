/// \file error_spec.hpp
/// \brief Declarative descriptions of how measurement error is injected.
///
/// The paper's experiments use four error regimes:
///
///  1. constant σ, one family (Figures 4–7, 11–12);
///  2. mixed σ within a series — "the error for 20% of the values has
///     standard deviation 1, and the rest 80% has standard deviation 0.4"
///     (Figure 8, and Figures 13–17);
///  3. mixed families — "a mixture of uniform, normal, and exponential
///     distributions" with the same 20/80 σ split (Figure 9);
///  4. misreported σ — values perturbed with the mixed-σ regime, but the
///     techniques are told σ = 0.7 everywhere (Figure 10).
///
/// An `ErrorSpec` names a regime's few distinct models (`Models`) and
/// assigns one of them to every timestamp of a series (`AssignModels`): the
/// model's `actual` distribution generates the observation, its `reported`
/// one is what the techniques are allowed to know.

#ifndef UTS_UNCERTAIN_ERROR_SPEC_HPP_
#define UTS_UNCERTAIN_ERROR_SPEC_HPP_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "prob/distribution.hpp"
#include "prob/rng.hpp"

namespace uts::uncertain {

/// \brief The distinct models of a spec: model m perturbs with `actual[m]`
/// and is reported as `reported[m]` (the actual model itself, the
/// misreported constant, or a tailed-uniform substitute). Reported entries
/// of different models may be one object.
struct ErrorModels {
  std::vector<prob::ErrorDistributionPtr> actual;    ///< One per model.
  std::vector<prob::ErrorDistributionPtr> reported;  ///< One per model.

  std::size_t size() const { return actual.size(); }
};

/// \brief Which error regime a spec describes.
enum class ErrorRegime {
  kConstant,    ///< Same distribution at every timestamp.
  kMixedSigma,  ///< One family; a fraction of points gets a larger σ.
  kMixedKind,   ///< Random family per point, plus the mixed-σ split.
};

/// \brief Declarative error-injection specification.
///
/// Build with the factory functions below; `Models` and `AssignModels`
/// instantiate it for a series of a given length using a deterministic
/// seed.
class ErrorSpec {
 public:
  /// Constant error: family `kind`, standard deviation `sigma` everywhere.
  static ErrorSpec Constant(prob::ErrorKind kind, double sigma);

  /// Mixed-σ error (paper's Figure 8 setting by default): family `kind`;
  /// fraction `frac_hi` of the points get `sigma_hi`, the rest `sigma_lo`.
  /// High-σ positions are chosen uniformly at random per series.
  static ErrorSpec MixedSigma(prob::ErrorKind kind, double frac_hi = 0.2,
                              double sigma_hi = 1.0, double sigma_lo = 0.4);

  /// Mixed-family error (Figure 9): each point draws its family uniformly
  /// from {uniform, normal, exponential} and its σ from the 20/80 split.
  static ErrorSpec MixedKind(double frac_hi = 0.2, double sigma_hi = 1.0,
                             double sigma_lo = 0.4);

  /// Wrap this spec so that the *reported* error becomes a constant
  /// `reported_kind`/`reported_sigma` regardless of the actual injection
  /// (Figure 10 uses normal σ = 0.7).
  ErrorSpec WithMisreported(prob::ErrorKind reported_kind,
                            double reported_sigma) const;

  /// For DUST's uniform-error pathology workaround: report the tailed
  /// uniform distribution wherever a (pure) uniform error is reported.
  ErrorSpec WithTailedUniformReporting(double tail_weight = 0.01) const;

  /// The regime's distinct models, in model order: one for a constant
  /// spec, two (low σ, high σ) for mixed σ, six (uniform, normal,
  /// exponential, each low then high σ) for mixed kind. Every call builds
  /// new objects; equal specs give models of equal `Key()`.
  ErrorModels Models() const;

  /// The model of each of `model_of.size()` timestamps of one series, as an
  /// index into `Models()`. Deterministic in `seed`; this is the one
  /// per-point choice every perturbation makes.
  void AssignModels(std::uint64_t seed, std::span<std::uint8_t> model_of) const;

  /// Canonical key of the spec: every field (regime, kind, σ, the mixed
  /// regimes' fraction and σ levels, the misreport and tailed-uniform
  /// settings) by exact value, so two specs share a key iff every field is
  /// bitwise equal.
  std::string Key() const;

  /// The regime of this spec.
  ErrorRegime regime() const { return regime_; }

  /// Representative standard deviation: σ for constant specs, the weighted
  /// RMS σ for mixed specs. This is the single value handed to PROUD, which
  /// "assumes that the standard deviation of the uncertainty error remains
  /// constant across all timestamps" (Section 3.1).
  double RepresentativeSigma() const;

  /// Human-readable description, e.g. "normal(σ=0.6)" or
  /// "mixed-σ normal 20%@1.0/80%@0.4".
  std::string Describe() const;

 private:
  ErrorSpec() = default;

  ErrorRegime regime_ = ErrorRegime::kConstant;
  prob::ErrorKind kind_ = prob::ErrorKind::kNormal;
  double sigma_ = 1.0;       // constant regime
  double frac_hi_ = 0.2;     // mixed regimes
  double sigma_hi_ = 1.0;
  double sigma_lo_ = 0.4;
  bool misreport_ = false;
  prob::ErrorKind reported_kind_ = prob::ErrorKind::kNormal;
  double reported_sigma_ = 0.7;
  bool tailed_uniform_reporting_ = false;
  double tail_weight_ = 0.01;
};

}  // namespace uts::uncertain

#endif  // UTS_UNCERTAIN_ERROR_SPEC_HPP_
