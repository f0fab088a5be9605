/// \file sensor_monitoring.cpp
/// \brief Industrial sensor monitoring under measurement noise — the
/// paper's motivating scenario from manufacturing plants: "unexpected
/// vibration patterns in production machines ... are used to predict
/// failures" while "sensor readings are inherently imprecise because of the
/// noise introduced by the equipment itself" (Section 1).
///
/// Scenario: a plant records vibration signatures of a machine. A library
/// of historical signatures is labeled (healthy / bearing-wear / imbalance).
/// Each sensor has a calibration sheet: some channels are noisier than
/// others (mixed per-point σ). Given today's noisy signature, retrieve the
/// most similar historical episodes with a probabilistic range query and an
/// UEMA-filtered search, and compare what each returns.
///
/// Run: ./examples/sensor_monitoring

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/matchers.hpp"
#include "core/metrics.hpp"
#include "distance/lp.hpp"
#include "measures/proud.hpp"
#include "prob/rng.hpp"
#include "prob/special.hpp"
#include "query/engine.hpp"
#include "ts/filters.hpp"
#include "ts/normalize.hpp"
#include "uncertain/perturb.hpp"

using namespace uts;

namespace {

/// Synthesize a vibration signature: base rotation harmonic + condition-
/// specific components + smooth drift.
ts::TimeSeries MakeSignature(int condition, std::uint64_t seed,
                             std::size_t n = 128) {
  prob::Rng rng(seed);
  std::vector<double> v(n);
  const double base_freq = 0.35 + 0.01 * rng.Gaussian();
  // Acquisition is triggered at a fixed rotor position, so the phase is
  // nearly aligned across episodes (small trigger jitter only).
  const double phase = 0.15 * rng.Gaussian();
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    double s = std::sin(base_freq * t + phase);
    switch (condition) {
      case 1:  // bearing wear: high-frequency rattle bursts
        s += 0.8 * std::sin(2.9 * t + phase) *
             (std::sin(0.05 * t) > 0.3 ? 1.0 : 0.15);
        break;
      case 2:  // imbalance: strong second harmonic + amplitude growth
        s += 0.9 * std::sin(2.0 * base_freq * t + 0.5 * phase) *
             (1.0 + 0.004 * t);
        break;
      default:  // healthy
        break;
    }
    v[i] = s + 0.05 * rng.Gaussian();
  }
  ts::TimeSeries series(std::move(v), condition,
                        "episode/" + std::to_string(seed));
  ts::ZNormalizeInPlace(series);
  return series;
}

const char* ConditionName(int label) {
  switch (label) {
    case 1: return "bearing-wear";
    case 2: return "imbalance";
    default: return "healthy";
  }
}

}  // namespace

int main() {
  std::printf("== sensor monitoring under uncertainty ==\n\n");

  // Historical library: 60 labeled episodes, 20 per condition.
  ts::Dataset history("vibration-history");
  for (std::size_t i = 0; i < 60; ++i) {
    history.Add(MakeSignature(static_cast<int>(i % 3), 1000 + i));
  }

  // Sensor calibration: the paper's mixed-σ regime — 20% of the channels
  // read with σ = 1.0, the rest with σ = 0.4 (per-point error models are
  // attached to each series and visible to the techniques).
  const auto noise =
      uncertain::ErrorSpec::MixedSigma(prob::ErrorKind::kNormal, 0.2, 1.0, 0.4);
  const uncertain::UncertainDataset observed =
      uncertain::PerturbDataset(history, noise, /*seed=*/7);

  // Today's signature: a fresh bearing-wear episode, measured once.
  const ts::TimeSeries today_exact = MakeSignature(1, 9999);
  const uncertain::UncertainSeries today =
      uncertain::PerturbSeries(today_exact, noise, /*seed=*/8);

  // Ground truth for reference: who is ACTUALLY similar (exact values)?
  ts::Dataset with_query = history;
  with_query.Add(today_exact);
  auto nearest = query::DistanceMatrixEngine::Create(with_query)
                     .ValueOrDie()
                     .KNearestEuclidean(with_query.size() - 1, 10);
  if (!nearest.ok()) {
    std::fprintf(stderr, "%s\n", nearest.status().ToString().c_str());
    return 1;
  }
  const auto truth = std::move(nearest).ValueOrDie();

  // ---------------------------------------------------------------- PROUD
  // Probabilistic range query: episodes within ε with probability >= τ.
  // τ has "a considerable impact on the accuracy ... it is not obvious how
  // to set τ" (paper, Section 6): a strict τ rejects everything because the
  // squared-distance statistic is shifted by n·2σ² noise mass, so we show
  // both a strict and a tuned threshold.
  const double eps =
      distance::Euclidean(today.observations(),
                          observed[truth[4].index].observations());
  std::printf("PRQ threshold eps = %.3f (distance to the 5th true NN)\n\n",
              eps);

  auto proud_query = [&](double tau) {
    measures::Proud proud({.tau = tau, .sigma = noise.RepresentativeSigma()});
    std::vector<std::size_t> hits;
    for (std::size_t i = 0; i < observed.size(); ++i) {
      if (proud.Matches(today.observations(), observed[i].observations(),
                        eps)) {
        hits.push_back(i);
      }
    }
    return hits;
  };
  const std::vector<std::size_t> proud_strict = proud_query(0.6);
  // "The only way to pick the correct value is by experimental evaluation"
  // (Section 6): sweep τ like the paper and keep the best-F1 setting.
  std::vector<std::size_t> truth5;
  for (std::size_t k = 0; k < 5; ++k) truth5.push_back(truth[k].index);
  std::vector<std::size_t> proud_hits;
  double proud_best_tau = 0.5, proud_best_f1 = -1.0;
  // Sweep in ε_limit = Φ⁻¹(τ) space: the length-128 series carry a noise
  // mass of n·2σ² inside PROUD's distance statistic, which pushes the
  // F1-optimal τ deep into the lower tail.
  for (double z = -8.0; z <= 1.0; z += 0.25) {
    const double tau = prob::NormalCdf(z);
    const auto hits = proud_query(tau);
    const double f1 = core::ComputeSetMetrics(hits, truth5).f1;
    if (f1 > proud_best_f1) {
      proud_best_f1 = f1;
      proud_best_tau = tau;
      proud_hits = hits;
    }
  }
  std::printf("PROUD at strict tau=0.6 retrieves %zu episodes (the paper's "
              "tau-sensitivity problem);\nafter the paper's optimal-tau "
              "sweep, tau=%.2g:\n\n", proud_strict.size(), proud_best_tau);

  // ----------------------------------------------------------------- UEMA
  // Filter both sides with UEMA, then a plain Euclidean range query.
  ts::FilterOptions filter;
  filter.half_window = 2;
  filter.lambda = 1.0;
  auto today_filtered = ts::UncertainExponentialMovingAverage(
      today.observations(), today.Stddevs(), filter);
  std::vector<std::vector<double>> history_filtered(observed.size());
  for (std::size_t i = 0; i < observed.size(); ++i) {
    history_filtered[i] = ts::UncertainExponentialMovingAverage(
                              observed[i].observations(),
                              observed[i].Stddevs(), filter)
                              .ValueOrDie();
  }
  // Calibrate the UEMA threshold in its own (filtered) space.
  const double eps_uema = distance::Euclidean(
      today_filtered.ValueOrDie(), history_filtered[truth[4].index]);
  std::vector<std::size_t> uema_hits;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (distance::Euclidean(today_filtered.ValueOrDie(),
                            history_filtered[i]) <= eps_uema) {
      uema_hits.push_back(i);
    }
  }

  // ----------------------------------------------------------- comparison
  std::vector<std::size_t> relevant;
  for (std::size_t k = 0; k < 5; ++k) relevant.push_back(truth[k].index);

  auto report = [&](const char* name, const std::vector<std::size_t>& hits) {
    const core::SetMetrics m = core::ComputeSetMetrics(hits, relevant);
    std::printf("%-6s retrieved %2zu episodes  precision=%.2f recall=%.2f "
                "F1=%.2f\n", name, hits.size(), m.precision, m.recall, m.f1);
    std::size_t diagnosis[3] = {0, 0, 0};
    for (std::size_t i : hits) ++diagnosis[history[i].label() % 3];
    std::printf("       diagnosis votes: healthy=%zu bearing-wear=%zu "
                "imbalance=%zu\n", diagnosis[0], diagnosis[1], diagnosis[2]);
  };
  report("PROUD", proud_hits);
  report("UEMA", uema_hits);

  std::printf("\ntrue condition of today's episode: %s\n",
              ConditionName(today_exact.label()));
  std::printf("\nTakeaway: both searches surface bearing-wear episodes; UEMA "
              "exploits the\ncalibration sheet (per-channel sigma) plus "
              "temporal correlation and typically\nretrieves a cleaner "
              "neighbourhood, matching the paper's Section 5 findings.\n");
  return 0;
}
