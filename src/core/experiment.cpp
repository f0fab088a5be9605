#include "core/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <thread>

#include "core/timer.hpp"
#include "exec/parallel_for.hpp"
#include "query/engine_context.hpp"
#include "uncertain/perturb.hpp"

namespace uts::core {

namespace {

Status ValidateInput(const ts::Dataset& exact, const RunOptions& options) {
  if (exact.size() < 3) {
    return Status::InvalidArgument("dataset needs at least 3 series");
  }
  if (!exact.HasUniformLength()) {
    return Status::InvalidArgument("dataset series must share one length");
  }
  if (options.ground_truth_k == 0) {
    return Status::InvalidArgument("ground_truth_k must be >= 1");
  }
  if (options.ground_truth_k >= exact.size()) {
    return Status::InvalidArgument(
        "ground_truth_k must be smaller than the dataset");
  }
  return Status::OK();
}

/// One query's outcome per result slot (see Evaluate).
struct QueryScore {
  SetMetrics metrics;
  double micros = 0.0;  ///< Time to decide the query.
};

/// Calibrates, retrieves and scores query `qi` for every matcher, in
/// matcher order, into `out` (one slot per result of Evaluate). Stops at the
/// first failing matcher. Touches only query `qi`'s matcher state and
/// slots, so distinct queries may run concurrently.
Status ScoreQuery(std::span<Matcher* const> matchers,
                  std::span<const double> tau_grid, std::size_t qi,
                  std::size_t n, std::span<const query::Neighbor> neighbors,
                  std::span<QueryScore> out) {
  std::vector<std::size_t> relevant;
  relevant.reserve(neighbors.size());
  for (const auto& nb : neighbors) relevant.push_back(nb.index);
  const std::size_t calibration_index = neighbors.back().index;

  for (std::size_t m = 0; m < matchers.size(); ++m) {
    Matcher& matcher = *matchers[m];

    // Technique-equivalent threshold from the k-th nearest neighbor.
    UTS_ASSIGN_OR_RETURN(const double eps,
                         matcher.CalibrationDistance(qi, calibration_index));

    // Retrieval through the matcher's batched sweep (engine-aware matchers
    // run it on query::UncertainEngine, inline on this worker; the default
    // is the sequential Matches loop).
    Stopwatch watch;
    if (tau_grid.empty()) {
      UTS_ASSIGN_OR_RETURN(const auto retrieved,
                           matcher.Retrieve(qi, n, eps));
      const double micros = watch.ElapsedMicros();
      out[m] = {ComputeSetMetrics(retrieved, relevant), micros};
      continue;
    }
    // τ search: one scoring pass decides every grid point.
    UTS_ASSIGN_OR_RETURN(const auto each,
                         matcher.RetrieveEachTau(qi, n, eps, tau_grid));
    const double micros = watch.ElapsedMicros();
    for (std::size_t t = 0; t < tau_grid.size(); ++t) {
      out[t] = {ComputeSetMetrics(each[t], relevant), micros};
    }
  }
  return Status::OK();
}

/// The evaluation behind RunSimilarityMatching and SweepTau. With an empty
/// `tau_grid`, every matcher retrieves once per query at its own τ and
/// result m belongs to matchers[m]. With a grid, `matchers` holds the one
/// matcher under search: each query is scored once through
/// `RetrieveEachTau`, result t holds the scores at tau_grid[t], and the
/// per-τ match lists are reduced to F1 before the query's task ends, so at
/// most one query's lists are alive per worker.
Result<std::vector<MatcherResult>> Evaluate(
    const ts::Dataset& exact, const uncertain::ErrorSpec& spec,
    std::span<Matcher* const> matchers, const RunOptions& options,
    std::span<const double> tau_grid) {
  UTS_RETURN_NOT_OK(ValidateInput(exact, options));
  if (matchers.empty()) {
    return Status::InvalidArgument("no matchers supplied");
  }
  assert(tau_grid.empty() || matchers.size() == 1);

  // --- Engine context ------------------------------------------------------
  // The single resource root of this evaluation: one shared thread pool,
  // one SoA pack per dataset, one uncertain engine for all matchers. An
  // externally supplied context (options.engine_context) persists those
  // resources across runs — the final run after a τ search re-perturbs to
  // bit-identical data and therefore keeps the packed engines.
  std::optional<query::EngineContext> local_engines;
  query::EngineContext* engines = options.engine_context;
  if (engines == nullptr) {
    query::EngineContextOptions engine_options;
    engine_options.threads = options.threads;
    if (options.force_scalar) {
      engine_options.simd = distance::SimdMode::kForceScalar;
    }
    local_engines.emplace(engine_options);
    engines = &*local_engines;
  } else {
    const std::size_t want =
        options.threads == 0
            ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
            : options.threads;
    if (engines->threads() != want) {
      return Status::InvalidArgument(
          "engine_context thread count does not match RunOptions::threads");
    }
    if ((engines->simd() == distance::SimdMode::kForceScalar) !=
        options.force_scalar) {
      return Status::InvalidArgument(
          "engine_context SIMD mode does not match RunOptions::force_scalar");
    }
  }

  // --- Perturb -------------------------------------------------------------
  // Series are perturbed on the run's pool; the output is bitwise identical
  // to the inline loop at every width.
  uncertain::UncertainDataset pdf =
      uncertain::PerturbDataset(exact, spec, options.seed, engines->pool());
  std::optional<uncertain::MultiSampleDataset> samples;
  const bool want_samples = options.munich_samples_per_point > 0;
  if (want_samples) {
    // An independent seed stream: the sample-model observations are a
    // different set of measurements of the same underlying series.
    samples = uncertain::PerturbDatasetMultiSample(
        exact, spec, options.munich_samples_per_point,
        prob::DeriveSeed(options.seed, 0xface), engines->pool());
  }

  const double reported_sigma = options.proud_sigma > 0.0
                                    ? options.proud_sigma
                                    : spec.RepresentativeSigma();
  UTS_RETURN_NOT_OK(engines->BindData(std::move(pdf), std::move(samples),
                                      options.seed, reported_sigma));
  // Matchers see only the perturbed data; `exact` stays ground truth.
  for (Matcher* matcher : matchers) {
    UTS_RETURN_NOT_OK(matcher->Bind(*engines));
  }

  // --- Evaluate ------------------------------------------------------------
  const std::size_t num_queries =
      options.max_queries == 0 ? exact.size()
                               : std::min(options.max_queries, exact.size());
  const std::size_t k = options.ground_truth_k;

  std::vector<MatcherResult> results(
      tau_grid.empty() ? matchers.size() : tau_grid.size());
  for (std::size_t r = 0; r < results.size(); ++r) {
    results[r].name = matchers[tau_grid.empty() ? r : 0]->name();
  }

  // Ground truth: the k nearest under the exact Euclidean distance (or
  // exact DTW when requested). "Distance thresholds are chosen such that
  // in the ground truth set they return exactly 10 time series." The
  // context memoizes it per exact dataset, so every σ, error model and τ
  // swept over one dataset shares one sweep.
  UTS_ASSIGN_OR_RETURN(
      const std::vector<query::Neighbor> ground_truth,
      engines->GroundTruth(exact, k, num_queries,
                           options.dtw_ground_truth
                               ? std::optional(options.dtw_ground_truth_band)
                               : std::nullopt));

  // One task per query on the run's pool: a query is calibrated, retrieved
  // and scored on one worker (nested engine loops run inline there). Each
  // query writes only its own slots, which are appended in query order
  // below, and the lowest failing query's error is returned — so scores
  // and errors equal the sequential loop at every thread count.
  const std::size_t width = results.size();
  std::vector<QueryScore> scores(num_queries * width);
  std::vector<Status> failures(num_queries);
  exec::ParallelFor(
      engines->pool(), num_queries, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t qi = begin; qi < end; ++qi) {
          failures[qi] = ScoreQuery(
              matchers, tau_grid, qi, exact.size(),
              std::span(ground_truth).subspan(qi * k, k),
              std::span(scores).subspan(qi * width, width));
        }
      });
  for (const Status& failure : failures) UTS_RETURN_NOT_OK(failure);

  std::vector<double> total_micros(width, 0.0);
  for (std::size_t r = 0; r < width; ++r) {
    MatcherResult& result = results[r];
    for (std::size_t qi = 0; qi < num_queries; ++qi) {
      const QueryScore& score = scores[qi * width + r];
      result.per_query_f1.push_back(score.metrics.f1);
      result.per_query_precision.push_back(score.metrics.precision);
      result.per_query_recall.push_back(score.metrics.recall);
      total_micros[r] += score.micros;
    }
  }

  // --- Aggregate -----------------------------------------------------------
  for (std::size_t m = 0; m < results.size(); ++m) {
    MatcherResult& r = results[m];
    r.queries = num_queries;
    r.f1 = prob::MeanConfidenceInterval(r.per_query_f1);
    r.precision = prob::MeanConfidenceInterval(r.per_query_precision);
    r.recall = prob::MeanConfidenceInterval(r.per_query_recall);
    r.avg_query_millis =
        num_queries == 0
            ? 0.0
            : total_micros[m] / (1000.0 * static_cast<double>(num_queries));
  }
  return results;
}

}  // namespace

Result<std::vector<MatcherResult>> RunSimilarityMatching(
    const ts::Dataset& exact, const uncertain::ErrorSpec& spec,
    std::span<Matcher* const> matchers, const RunOptions& options) {
  return Evaluate(exact, spec, matchers, options, {});
}

std::vector<double> DefaultTauGrid() {
  // The decision statistic shifts with n·σ² under the CLT approximation, so
  // the F1-optimal τ can sit deep in either tail (the paper only says it is
  // "determined after repeated experiments"); the grid must reach there —
  // e.g. with length-64 series and σ = 0.7 the optimum lands near τ = 1e-5.
  return {1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1,  0.2,   0.3,
          0.4,  0.5,  0.6,  0.7,  0.8,  0.9,  0.95, 0.99,  0.999,
          0.9999};
}

Result<TauSweepResult> SweepTau(const ts::Dataset& exact,
                                const uncertain::ErrorSpec& spec,
                                Matcher& matcher, const RunOptions& options,
                                std::span<const double> tau_grid) {
  if (!matcher.has_tau()) {
    return Status::InvalidArgument("matcher '" + matcher.name() +
                                   "' has no probabilistic threshold");
  }
  if (tau_grid.empty()) {
    return Status::InvalidArgument("empty tau grid");
  }
  for (double tau : tau_grid) {
    // Φ⁻¹ is ∓inf at 0 and 1: every pair would match, or none.
    if (!(tau > 0.0 && tau < 1.0)) {
      return Status::InvalidArgument("tau grid values must lie in (0, 1)");
    }
  }

  Matcher* const matchers[] = {&matcher};
  UTS_ASSIGN_OR_RETURN(
      const std::vector<MatcherResult> per_tau,
      Evaluate(exact, spec, matchers, options, tau_grid));
  TauSweepResult sweep;
  sweep.best_f1 = -1.0;
  for (std::size_t t = 0; t < tau_grid.size(); ++t) {
    const double f1 = per_tau[t].f1.mean;
    sweep.taus.push_back(tau_grid[t]);
    sweep.f1s.push_back(f1);
    if (f1 > sweep.best_f1) {
      sweep.best_f1 = f1;
      sweep.best_tau = tau_grid[t];
    }
  }
  matcher.set_tau(sweep.best_tau);
  return sweep;
}

MatcherResult CombineAcrossDatasets(const std::string& name,
                                    std::span<const MatcherResult> parts) {
  MatcherResult combined;
  combined.name = name;
  double weighted_millis = 0.0;
  for (const auto& part : parts) {
    combined.per_query_f1.insert(combined.per_query_f1.end(),
                                 part.per_query_f1.begin(),
                                 part.per_query_f1.end());
    combined.per_query_precision.insert(combined.per_query_precision.end(),
                                        part.per_query_precision.begin(),
                                        part.per_query_precision.end());
    combined.per_query_recall.insert(combined.per_query_recall.end(),
                                     part.per_query_recall.begin(),
                                     part.per_query_recall.end());
    combined.queries += part.queries;
    weighted_millis +=
        part.avg_query_millis * static_cast<double>(part.queries);
  }
  combined.f1 = prob::MeanConfidenceInterval(combined.per_query_f1);
  combined.precision =
      prob::MeanConfidenceInterval(combined.per_query_precision);
  combined.recall = prob::MeanConfidenceInterval(combined.per_query_recall);
  combined.avg_query_millis =
      combined.queries == 0
          ? 0.0
          : weighted_millis / static_cast<double>(combined.queries);
  return combined;
}

}  // namespace uts::core
