#include "measures/proud.hpp"

#include <cassert>
#include <cmath>

#include "prob/special.hpp"

namespace uts::measures {

ProudStats Proud::DistanceStats(std::span<const double> x_obs,
                                std::span<const double> y_obs) const {
  assert(x_obs.size() == y_obs.size());
  // D_i = μ_i + E_i with E_i = e_x − e_y ~ N(0, 2σ²) in the constant-σ,
  // normal-error model PROUD assumes. For normal E:
  //   E[D²]   = μ² + v
  //   Var[D²] = 2v² + 4μ²v,            v = 2σ².
  const double v = 2.0 * options_.sigma * options_.sigma;
  ProudStats stats;
  for (std::size_t i = 0; i < x_obs.size(); ++i) {
    const double mu = x_obs[i] - y_obs[i];
    const double mu2 = mu * mu;
    stats.mean_sq += mu2 + v;
    stats.var_sq += 2.0 * v * v + 4.0 * mu2 * v;
  }
  return stats;
}

ProudMargin Proud::MarginFromStats(const ProudStats& stats, double epsilon) {
  ProudMargin margin;
  if (stats.var_sq <= 0.0) {
    // Degenerate (σ = 0): the distance is deterministic.
    margin.degenerate = true;
    margin.within = stats.mean_sq <= epsilon * epsilon;
    return margin;
  }
  margin.eps_norm =
      (epsilon * epsilon - stats.mean_sq) / std::sqrt(stats.var_sq);
  return margin;
}

double Proud::ProbabilityFromStats(const ProudStats& stats, double epsilon) {
  const ProudMargin margin = MarginFromStats(stats, epsilon);
  if (margin.degenerate) return margin.within ? 1.0 : 0.0;
  return prob::NormalCdf(margin.eps_norm);
}

bool Proud::DecideFromStats(const ProudStats& stats, double epsilon,
                            double tau) {
  return MarginFromStats(stats, epsilon).Decide(prob::NormalQuantile(tau));
}

double Proud::MatchProbability(std::span<const double> x_obs,
                               std::span<const double> y_obs,
                               double epsilon) const {
  return ProbabilityFromStats(DistanceStats(x_obs, y_obs), epsilon);
}

bool Proud::Matches(std::span<const double> x_obs,
                    std::span<const double> y_obs, double epsilon) const {
  return DecideFromStats(DistanceStats(x_obs, y_obs), epsilon, options_.tau);
}

double Proud::EpsilonLimit() const {
  return prob::NormalQuantile(options_.tau);
}

}  // namespace uts::measures
