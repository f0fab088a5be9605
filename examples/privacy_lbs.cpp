/// \file privacy_lbs.cpp
/// \brief Privacy-preserving location traces — the paper's second
/// motivating scenario: "privacy is a major concern, addressed by various
/// privacy-preserving transforms, which introduce data uncertainty. The
/// data can still be mined and queried, but it requires a re-design of the
/// existing methods" (Section 1).
///
/// Scenario: a location-based service publishes daily movement-intensity
/// profiles of opted-in users, perturbed with calibrated noise before
/// release (the noise scale is public — that is the "reported" error
/// model). An analyst wants to find users with commute patterns similar to
/// a target profile. We compare mining the published (noisy) profiles with
/// the raw Euclidean distance vs the uncertainty-aware UMA/UEMA measures,
/// and verify against the (never published) exact profiles.
///
/// Run: ./examples/privacy_lbs

#include <cstdio>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "distance/lp.hpp"
#include "prob/rng.hpp"
#include "query/engine.hpp"
#include "query/search.hpp"
#include "ts/filters.hpp"
#include "ts/normalize.hpp"
#include "uncertain/perturb.hpp"

using namespace uts;

namespace {

/// A day profile (48 half-hour slots): morning/evening commute bumps whose
/// timing and weight depend on the user's archetype.
ts::TimeSeries MakeDayProfile(int archetype, std::uint64_t seed) {
  prob::Rng rng(seed);
  const std::size_t n = 48;
  std::vector<double> v(n, 0.0);
  const double jitter = rng.Gaussian() * 1.5;
  double morning = 16.0, evening = 36.0, night = 0.0;
  switch (archetype) {
    case 0: morning = 16.0 + jitter; evening = 36.0 + jitter; break;  // 9-5
    case 1: morning = 12.0 + jitter; evening = 40.0 + jitter; break;  // early
    case 2: morning = 22.0 + jitter; evening = 44.0 + jitter; night = 1.0;
            break;                                                     // late
    default: break;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    auto bump = [&](double center, double width, double height) {
      const double z = (t - center) / width;
      return height * std::exp(-0.5 * z * z);
    };
    v[i] = bump(morning, 4.0, 1.0) + bump(evening, 5.0, 0.9) +
           night * bump(46.0, 3.0, 0.5) + 0.05 * rng.Gaussian();
  }
  ts::TimeSeries series(std::move(v), archetype, "user/" + std::to_string(seed));
  ts::ZNormalizeInPlace(series);
  return series;
}

}  // namespace

int main() {
  std::printf("== privacy-preserving similarity over location profiles ==\n\n");

  // 90 users across three commute archetypes. The exact profiles live only
  // inside the publisher; the analyst sees the perturbed release.
  ts::Dataset exact("daily-profiles");
  for (std::size_t u = 0; u < 90; ++u) {
    exact.Add(MakeDayProfile(static_cast<int>(u % 3), 500 + u));
  }

  // The privacy transform: additive uniform noise, sigma 1.2 — strong
  // enough to hide individual slots, with the scale disclosed as metadata.
  const auto privacy_noise =
      uncertain::ErrorSpec::Constant(prob::ErrorKind::kUniform, 1.2);
  const uncertain::UncertainDataset published =
      uncertain::PerturbDataset(exact, privacy_noise, /*seed=*/11);

  constexpr std::size_t kWanted = 10;
  constexpr std::size_t kTargets = 12;  // average over a panel of analysts

  // --- Mining the published data -----------------------------------------
  ts::FilterOptions uma_opts;   // paper defaults: W = 5 window, λ = 1
  uma_opts.half_window = 2;
  ts::FilterOptions uema_opts = uma_opts;
  uema_opts.lambda = 1.0;

  // Precompute filtered views of every published profile.
  std::vector<std::vector<double>> raw(published.size());
  std::vector<std::vector<double>> uma(published.size());
  std::vector<std::vector<double>> uema(published.size());
  for (std::size_t i = 0; i < published.size(); ++i) {
    raw[i] = published[i].observations();
    uma[i] = ts::UncertainMovingAverage(raw[i], published[i].Stddevs(),
                                        uma_opts)
                 .ValueOrDie();
    uema[i] = ts::UncertainExponentialMovingAverage(
                  raw[i], published[i].Stddevs(), uema_opts)
                  .ValueOrDie();
  }

  struct Row {
    const char* name;
    const std::vector<std::vector<double>>* view;
    double hits = 0.0;
    double same_archetype = 0.0;
  };
  Row rows[] = {{"Euclidean (raw noisy)", &raw},
                {"UMA (w=2)", &uma},
                {"UEMA (w=2, lambda=1)", &uema}};

  const auto truth_engine =
      query::DistanceMatrixEngine::Create(exact).ValueOrDie();
  for (std::size_t t = 0; t < kTargets; ++t) {
    const std::size_t target = t * 7;  // spread across archetypes
    const auto truth = truth_engine.KNearestEuclidean(target, kWanted);
    if (!truth.ok()) {
      std::fprintf(stderr, "%s\n", truth.status().ToString().c_str());
      return 1;
    }
    std::vector<std::size_t> relevant;
    for (const auto& nb : truth.ValueOrDie()) relevant.push_back(nb.index);

    for (Row& row : rows) {
      const auto& view = *row.view;
      const auto found =
          query::KNearest(view.size(), target, kWanted, [&](std::size_t i) {
            return distance::Euclidean(view[target], view[i]);
          });
      std::vector<std::size_t> indices;
      for (const auto& nb : found) {
        indices.push_back(nb.index);
        if (exact[nb.index].label() == exact[target].label()) {
          row.same_archetype += 1.0;
        }
      }
      row.hits +=
          static_cast<double>(core::ComputeSetMetrics(indices, relevant).hits);
    }
  }

  std::printf("retrieving each target's %zu most similar users from the "
              "published data\n(averaged over %zu targets):\n\n",
              kWanted, kTargets);
  for (const Row& row : rows) {
    std::printf("%-22s true-top-%zu overlap: %4.1f/%zu   same archetype: "
                "%4.1f/%zu\n",
                row.name, kWanted, row.hits / kTargets, kWanted,
                row.same_archetype / kTargets, kWanted);
  }

  std::printf(
      "\nTakeaway: the privacy transform destroys raw nearest-neighbour "
      "structure, but the\npublished noise scale lets UMA/UEMA recover most "
      "of it — analytics stay useful\nwithout ever touching the exact "
      "trajectories.\n");
  return 0;
}
