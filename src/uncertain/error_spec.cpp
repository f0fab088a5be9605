#include "uncertain/error_spec.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace uts::uncertain {

using prob::ErrorDistributionPtr;
using prob::ErrorKind;

ErrorSpec ErrorSpec::Constant(ErrorKind kind, double sigma) {
  assert(sigma >= 0.0);
  ErrorSpec spec;
  spec.regime_ = ErrorRegime::kConstant;
  spec.kind_ = kind;
  spec.sigma_ = sigma;
  return spec;
}

ErrorSpec ErrorSpec::MixedSigma(ErrorKind kind, double frac_hi,
                                double sigma_hi, double sigma_lo) {
  assert(frac_hi >= 0.0 && frac_hi <= 1.0);
  assert(sigma_hi >= 0.0 && sigma_lo >= 0.0);
  ErrorSpec spec;
  spec.regime_ = ErrorRegime::kMixedSigma;
  spec.kind_ = kind;
  spec.frac_hi_ = frac_hi;
  spec.sigma_hi_ = sigma_hi;
  spec.sigma_lo_ = sigma_lo;
  return spec;
}

ErrorSpec ErrorSpec::MixedKind(double frac_hi, double sigma_hi,
                               double sigma_lo) {
  ErrorSpec spec = MixedSigma(ErrorKind::kNormal, frac_hi, sigma_hi, sigma_lo);
  spec.regime_ = ErrorRegime::kMixedKind;
  return spec;
}

ErrorSpec ErrorSpec::WithMisreported(ErrorKind reported_kind,
                                     double reported_sigma) const {
  ErrorSpec spec = *this;
  spec.misreport_ = true;
  spec.reported_kind_ = reported_kind;
  spec.reported_sigma_ = reported_sigma;
  return spec;
}

ErrorSpec ErrorSpec::WithTailedUniformReporting(double tail_weight) const {
  ErrorSpec spec = *this;
  spec.tailed_uniform_reporting_ = true;
  spec.tail_weight_ = tail_weight;
  return spec;
}

namespace {

/// The three families a mixed-kind point can draw from.
constexpr ErrorKind kMixKinds[] = {ErrorKind::kUniform, ErrorKind::kNormal,
                                   ErrorKind::kExponential};

}  // namespace

ErrorAssignment ErrorSpec::Assign(std::size_t length,
                                  std::uint64_t seed) const {
  prob::Rng rng(seed);

  // Choose which positions receive the high σ. Using exact counts (rather
  // than independent coin flips) matches the paper's "20% of the values"
  // phrasing and reduces variance across series.
  std::vector<bool> is_hi(length, false);
  if (regime_ != ErrorRegime::kConstant) {
    const auto num_hi = static_cast<std::size_t>(
        std::llround(frac_hi_ * static_cast<double>(length)));
    std::vector<std::size_t> order(length);
    for (std::size_t i = 0; i < length; ++i) order[i] = i;
    // Fisher–Yates prefix shuffle: the first num_hi entries become high-σ.
    for (std::size_t i = 0; i < std::min(num_hi, length); ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.UniformInt(length - i));
      std::swap(order[i], order[j]);
      is_hi[order[i]] = true;
    }
  }

  // The regime's distinct actual models, each paired with the one model
  // reported for it: the misreported constant, a tailed-uniform substitute
  // for a uniform model, or the model itself. Model m = 2·family + is_hi
  // (the constant regime has only model 0).
  ErrorAssignment out;
  std::vector<ErrorDistributionPtr> reported_of;
  const ErrorDistributionPtr reported_const =
      misreport_ ? prob::MakeError(reported_kind_, reported_sigma_) : nullptr;
  auto add_model = [&](ErrorKind kind, double sigma) {
    ErrorDistributionPtr actual = prob::MakeError(kind, sigma);
    if (misreport_) {
      reported_of.push_back(reported_const);
    } else if (tailed_uniform_reporting_ &&
               actual->kind() == ErrorKind::kUniform) {
      reported_of.push_back(
          prob::MakeTailedUniformError(actual->stddev(), tail_weight_));
    } else {
      reported_of.push_back(actual);
    }
    out.models.push_back(std::move(actual));
  };
  switch (regime_) {
    case ErrorRegime::kConstant:
      add_model(kind_, sigma_);
      break;
    case ErrorRegime::kMixedSigma:
      add_model(kind_, sigma_lo_);
      add_model(kind_, sigma_hi_);
      break;
    case ErrorRegime::kMixedKind:
      for (ErrorKind kind : kMixKinds) {
        add_model(kind, sigma_lo_);
        add_model(kind, sigma_hi_);
      }
      break;
  }

  out.actual.reserve(length);
  out.reported.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    std::size_t m = is_hi[i] ? 1 : 0;
    if (regime_ == ErrorRegime::kMixedKind) {
      m += 2 * static_cast<std::size_t>(rng.UniformInt(3));
    }
    out.actual.push_back(out.models[m].get());
    out.reported.push_back(reported_of[m]);
  }
  return out;
}

double ErrorSpec::RepresentativeSigma() const {
  if (misreport_) return reported_sigma_;
  if (regime_ == ErrorRegime::kConstant) return sigma_;
  // RMS combination of the two σ levels, weighted by their fractions; for
  // the paper's 20%@1.0 / 80%@0.4 split this evaluates to ~0.566. The
  // Figure 8 text states PROUD "was using a standard deviation setting of
  // 0.7", which the harness passes explicitly; this value is the neutral
  // default when no override is supplied.
  return std::sqrt(frac_hi_ * sigma_hi_ * sigma_hi_ +
                   (1.0 - frac_hi_) * sigma_lo_ * sigma_lo_);
}

std::string ErrorSpec::Describe() const {
  char buf[160];
  switch (regime_) {
    case ErrorRegime::kConstant:
      std::snprintf(buf, sizeof(buf), "%s(sigma=%.3g)",
                    prob::ErrorKindName(kind_).c_str(), sigma_);
      break;
    case ErrorRegime::kMixedSigma:
      std::snprintf(buf, sizeof(buf), "mixed-sigma %s %.0f%%@%.3g/%.0f%%@%.3g",
                    prob::ErrorKindName(kind_).c_str(), 100.0 * frac_hi_,
                    sigma_hi_, 100.0 * (1.0 - frac_hi_), sigma_lo_);
      break;
    case ErrorRegime::kMixedKind:
      std::snprintf(buf, sizeof(buf),
                    "mixed-kind {uniform,normal,exponential} %.0f%%@%.3g/%.0f%%@%.3g",
                    100.0 * frac_hi_, sigma_hi_, 100.0 * (1.0 - frac_hi_),
                    sigma_lo_);
      break;
  }
  std::string desc = buf;
  if (misreport_) {
    std::snprintf(buf, sizeof(buf), " [reported as %s(sigma=%.3g)]",
                  prob::ErrorKindName(reported_kind_).c_str(), reported_sigma_);
    desc += buf;
  }
  if (tailed_uniform_reporting_) desc += " [tailed-uniform reporting]";
  return desc;
}

}  // namespace uts::uncertain
