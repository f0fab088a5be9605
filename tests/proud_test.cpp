// Unit + property tests for PROUD (src/measures/proud).
//
// The key correctness oracle is simulation: PROUD's closed-form moments of
// Σ D_i² must match Monte Carlo estimates over actually-sampled errors, and
// its normal-approximation match probability must track the empirical
// probability.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "measures/proud.hpp"
#include "prob/rng.hpp"
#include "prob/stats.hpp"
#include "uncertain/perturb.hpp"

namespace uts::measures {
namespace {

std::vector<double> RandomObs(std::size_t n, std::uint64_t seed) {
  prob::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& v : xs) v = rng.Gaussian();
  return xs;
}

TEST(ProudStatsTest, ZeroSigmaGivesDeterministicDistance) {
  Proud proud({.tau = 0.9, .sigma = 0.0});
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{2.0, 2.0, 5.0};
  const ProudStats stats = proud.DistanceStats(x, y);
  EXPECT_DOUBLE_EQ(stats.mean_sq, 1.0 + 0.0 + 4.0);
  EXPECT_DOUBLE_EQ(stats.var_sq, 0.0);
  // Match probability becomes a sharp threshold on the true distance.
  EXPECT_DOUBLE_EQ(proud.MatchProbability(x, y, std::sqrt(5.0) + 0.01), 1.0);
  EXPECT_DOUBLE_EQ(proud.MatchProbability(x, y, std::sqrt(5.0) - 0.01), 0.0);
}

TEST(ProudStatsTest, MomentsMatchClosedForm) {
  // For one point with mu and v = 2 sigma^2:
  // E[D^2] = mu^2 + v, Var[D^2] = 2v^2 + 4 mu^2 v.
  Proud proud({.tau = 0.5, .sigma = 0.6});
  const double v = 2.0 * 0.36;
  const std::vector<double> x{1.5};
  const std::vector<double> y{0.5};  // mu = 1
  const ProudStats stats = proud.DistanceStats(x, y);
  EXPECT_NEAR(stats.mean_sq, 1.0 + v, 1e-12);
  EXPECT_NEAR(stats.var_sq, 2.0 * v * v + 4.0 * v, 1e-12);
}

TEST(ProudStatsTest, MomentsMatchMonteCarlo) {
  const double sigma = 0.5;
  Proud proud({.tau = 0.5, .sigma = sigma});
  const auto x = RandomObs(20, 1);
  const auto y = RandomObs(20, 2);
  const ProudStats stats = proud.DistanceStats(x, y);

  prob::Rng rng(3);
  prob::RunningStats mc;
  constexpr int kTrials = 60000;
  for (int trial = 0; trial < kTrials; ++trial) {
    double sum = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      // Both series carry independent N(0, sigma^2) error.
      const double d = (x[i] + rng.Gaussian(0.0, sigma)) -
                       (y[i] + rng.Gaussian(0.0, sigma));
      sum += d * d;
    }
    mc.Add(sum);
  }
  EXPECT_NEAR(mc.Mean(), stats.mean_sq, 0.02 * stats.mean_sq);
  EXPECT_NEAR(mc.VarianceSample(), stats.var_sq, 0.06 * stats.var_sq);
}

TEST(ProudProbabilityTest, MonotoneInEpsilon) {
  Proud proud({.tau = 0.9, .sigma = 0.8});
  const auto x = RandomObs(30, 4);
  const auto y = RandomObs(30, 5);
  double prev = 0.0;
  for (double eps = 0.0; eps <= 20.0; eps += 0.5) {
    const double p = proud.MatchProbability(x, y, eps);
    EXPECT_GE(p, prev - 1e-12);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  EXPECT_NEAR(proud.MatchProbability(x, y, 100.0), 1.0, 1e-9);
  // At ε = 0 the normal approximation leaves a small left-tail mass
  // (z ≈ -(Σ E[D²]) / sd, around -5 here), not an exact zero.
  EXPECT_LT(proud.MatchProbability(x, y, 0.0), 1e-3);
}

TEST(ProudProbabilityTest, TracksEmpiricalProbability) {
  const double sigma = 0.4;
  Proud proud({.tau = 0.5, .sigma = sigma});
  const auto x = RandomObs(64, 6);
  const auto y = RandomObs(64, 7);

  // Empirical Pr(dist <= eps) at a few epsilons.
  prob::Rng rng(8);
  constexpr int kTrials = 20000;
  for (double eps : {6.0, 8.0, 10.0, 12.0}) {
    int hits = 0;
    prob::Rng trial_rng(rng.Next());
    for (int t = 0; t < kTrials; ++t) {
      double sum = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = (x[i] + trial_rng.Gaussian(0.0, sigma)) -
                         (y[i] + trial_rng.Gaussian(0.0, sigma));
        sum += d * d;
      }
      if (sum <= eps * eps) ++hits;
    }
    const double empirical = double(hits) / kTrials;
    const double model = proud.MatchProbability(x, y, eps);
    EXPECT_NEAR(model, empirical, 0.03) << "eps=" << eps;
  }
}

TEST(ProudProbabilityTest, EpsNormStrictlyMonotoneInEpsilon) {
  // ε_norm = (ε² − E[dist]) / sqrt(Var[dist]) (Eq. 8–11) must be strictly
  // increasing in ε for any fixed pair — the property the PRQ decision and
  // the τ-threshold calibration rest on.
  Proud proud({.tau = 0.5, .sigma = 0.7});
  const auto x = RandomObs(24, 23);
  const auto y = RandomObs(24, 24);
  const ProudStats stats = proud.DistanceStats(x, y);
  ASSERT_GT(stats.var_sq, 0.0);
  double prev = -std::numeric_limits<double>::infinity();
  for (double eps = 0.0; eps <= 25.0; eps += 0.25) {
    const double eps_norm =
        (eps * eps - stats.mean_sq) / std::sqrt(stats.var_sq);
    EXPECT_GT(eps_norm, prev) << "eps=" << eps;
    prev = eps_norm;
  }
}

TEST(ProudDecisionTest, DecisionMonotoneInTau) {
  // Raising τ can only shrink the accepted set: for every ε, a match at
  // τ_hi implies a match at every τ_lo ≤ τ_hi. Exercised through the
  // DecideFromStats helper the batched engine shares with the scalar path.
  const auto x = RandomObs(24, 25);
  const auto y = RandomObs(24, 26);
  Proud proud({.tau = 0.5, .sigma = 0.6});
  const ProudStats stats = proud.DistanceStats(x, y);
  const double taus[] = {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99};
  for (double eps = 0.5; eps <= 15.0; eps += 0.5) {
    bool prev_matched = true;  // τ = 0⁺ accepts whenever any τ does
    for (double tau : taus) {
      const bool matched = Proud::DecideFromStats(stats, eps, tau);
      EXPECT_TRUE(prev_matched || !matched)
          << "non-monotone at eps=" << eps << " tau=" << tau;
      prev_matched = matched;
    }
  }
}

TEST(ProudDecisionTest, DecideFromStatsIsTheMatchesDecision) {
  const auto x = RandomObs(20, 27);
  const auto y = RandomObs(20, 28);
  for (double tau : {0.2, 0.5, 0.8}) {
    Proud proud({.tau = tau, .sigma = 0.5});
    for (double eps = 1.0; eps < 12.0; eps += 0.5) {
      EXPECT_EQ(proud.Matches(x, y, eps),
                Proud::DecideFromStats(proud.DistanceStats(x, y), eps, tau));
    }
  }
}

TEST(ProudDecisionTest, MatchesIffProbabilityAtLeastTau) {
  const auto x = RandomObs(30, 9);
  const auto y = RandomObs(30, 10);
  for (double tau : {0.1, 0.5, 0.9}) {
    Proud proud({.tau = tau, .sigma = 0.7});
    for (double eps = 1.0; eps < 15.0; eps += 0.7) {
      const bool decision = proud.Matches(x, y, eps);
      const double p = proud.MatchProbability(x, y, eps);
      EXPECT_EQ(decision, p >= tau - 1e-12)
          << "tau=" << tau << " eps=" << eps << " p=" << p;
    }
  }
}

TEST(ProudDecisionTest, EpsilonLimitIsNormalQuantile) {
  Proud proud({.tau = 0.975, .sigma = 1.0});
  EXPECT_NEAR(proud.EpsilonLimit(), 1.959963984540054, 1e-9);
}

TEST(ProudDecisionTest, HigherTauIsStricter) {
  const auto x = RandomObs(30, 11);
  const auto y = RandomObs(30, 12);
  Proud lenient({.tau = 0.2, .sigma = 0.7});
  Proud strict({.tau = 0.95, .sigma = 0.7});
  int lenient_matches = 0, strict_matches = 0;
  for (double eps = 1.0; eps < 15.0; eps += 0.25) {
    if (lenient.Matches(x, y, eps)) ++lenient_matches;
    if (strict.Matches(x, y, eps)) ++strict_matches;
  }
  EXPECT_GE(lenient_matches, strict_matches);
}

}  // namespace
}  // namespace uts::measures
