/// \file experiment.hpp
/// \brief The paper's comparison methodology as a reusable runner.
///
/// Section 4.1.2, step by step:
///
///  1. an exact dataset is the ground truth; uncertainty is injected by a
///     perturbation spec;
///  2. "given a query q and a dataset C, we identify the 10th nearest
///     neighbor of q in C. Let that be time series c. We define ε_eucl as
///     the Euclidean distance on the observations between q and c and
///     ε_dust as the DUST distance between q and c. This procedure is
///     repeated for every query q" — generalized here to *every* measure
///     through `Matcher::CalibrationDistance`;
///  3. the ground-truth result set is the k nearest neighbors of q under
///     the exact (unperturbed) Euclidean distance ("distance thresholds are
///     chosen such that in the ground truth set they return exactly 10 time
///     series");
///  4. each technique retrieves its matches among the perturbed series and
///     is scored with precision / recall / F1 against the ground truth;
///  5. "we performed experiments for each dataset separately, using each
///     one of the time series as a query ... we report the averages of all
///     these results, as well as the 95% confidence intervals".

#ifndef UTS_CORE_EXPERIMENT_HPP_
#define UTS_CORE_EXPERIMENT_HPP_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "core/metrics.hpp"
#include "core/similarity.hpp"
#include "distance/dtw.hpp"
#include "prob/stats.hpp"
#include "ts/dataset.hpp"
#include "uncertain/error_spec.hpp"

namespace uts::query {
class EngineContext;
}  // namespace uts::query

namespace uts::core {

/// \brief Options of one similarity-matching run.
struct RunOptions {
  /// Ground-truth set size and calibration neighbor rank (the paper's 10).
  std::size_t ground_truth_k = 10;

  /// Evaluate at most this many queries (0 = every series, as in the
  /// paper). Queries are the first `max_queries` series — the generators
  /// interleave classes, so prefixes are class-balanced.
  std::size_t max_queries = 0;

  /// Perturbation / estimator base seed.
  std::uint64_t seed = 42;

  /// Worker threads of the run's pool: 1 = sequential, 0 = hardware
  /// concurrency. The pool runs the ground-truth sweep, then the
  /// per-query loop — each query's calibration, retrieval and scoring is
  /// one task, its engine scans inline on that worker. Results (and the
  /// error of a failing run) are bit-identical at every setting.
  std::size_t threads = 1;

  /// Pin every engine of the run to the scalar reference kernels instead
  /// of the runtime-dispatched SIMD level (see distance/simd.hpp for the
  /// per-kernel numeric policy). An external `engine_context` must have
  /// been built with the matching EngineContextOptions::simd.
  bool force_scalar = false;

  /// Build the repeated-observations dataset too (required iff a MUNICH
  /// matcher participates) with this many samples per timestamp (the
  /// paper's Figure 4 uses 5). 0 disables.
  std::size_t munich_samples_per_point = 0;

  /// σ reported to PROUD; 0 = use the spec's RepresentativeSigma().
  double proud_sigma = 0.0;

  /// Define the ground-truth k-NN sets under exact DTW instead of exact
  /// Euclidean — for evaluating the DTW-flavored matchers (Section 3.2)
  /// against the alignment-aware notion of truth they target.
  bool dtw_ground_truth = false;

  /// Sakoe–Chiba band for the DTW ground truth (kNoBand = unconstrained).
  std::size_t dtw_ground_truth_band = distance::DtwOptions::kNoBand;

  /// Run-wide shared engine context (query::EngineContext): one thread
  /// pool, one SoA pack per dataset and one uncertain engine serve every
  /// matcher of the evaluation. Borrowed — it must outlive the run and be
  /// configured with the same thread count as `threads` and the SIMD mode
  /// `force_scalar` asks for (InvalidArgument otherwise). Passing one
  /// context across repeated runs (a τ search and its final run,
  /// per-dataset loops, σ sweeps) reuses the pool, each exact dataset's
  /// ground truth (EngineContext::GroundTruth) and, when the perturbed
  /// data is bit-identical, the packed engines too. When null the run
  /// creates a private context internally; results are bit-identical
  /// either way.
  query::EngineContext* engine_context = nullptr;
};

/// \brief Aggregated outcome of one matcher on one run.
struct MatcherResult {
  std::string name;
  prob::ConfidenceInterval f1;         ///< Mean F1 with 95% CI.
  prob::ConfidenceInterval precision;  ///< Mean precision with 95% CI.
  prob::ConfidenceInterval recall;     ///< Mean recall with 95% CI.
  double avg_query_millis = 0.0;       ///< Mean time to decide one query
                                       ///< (timed on its worker).
  std::size_t queries = 0;             ///< Number of queries evaluated.

  /// Raw per-query scores (for cross-dataset aggregation).
  std::vector<double> per_query_f1;
  std::vector<double> per_query_precision;
  std::vector<double> per_query_recall;
};

/// \brief Run the paper's similarity-matching evaluation of `matchers` on
/// one exact dataset under one perturbation spec.
///
/// The exact dataset must be z-normalized and of uniform length; matchers
/// are bound to the engine context holding its perturbation inside. Queries then run
/// concurrently on the run's pool, so a matcher must honour the per-query
/// contract of `Matcher`. Results preserve the matcher order and are
/// bitwise equal at every thread count.
Result<std::vector<MatcherResult>> RunSimilarityMatching(
    const ts::Dataset& exact, const uncertain::ErrorSpec& spec,
    std::span<Matcher* const> matchers, const RunOptions& options);

/// \brief Result of an optimal-τ search.
struct TauSweepResult {
  double best_tau = 0.5;
  double best_f1 = 0.0;
  std::vector<double> taus;    ///< Grid evaluated.
  std::vector<double> f1s;     ///< Mean F1 at each grid point.
};

/// \brief Find the F1-optimal probabilistic threshold τ for one matcher —
/// the paper's "optimal probabilistic threshold, determined after repeated
/// experiments" (Section 4.2.1). The matcher must have `has_tau()`, and
/// every grid value must lie in (0, 1) (NaN, 0 and 1 are InvalidArgument).
///
/// Only the final decision depends on τ, so the search scores once: one
/// perturbation, one Bind, one ground truth and one ε calibration, then per
/// query a single `Matcher::RetrieveEachTau` that decides every grid τ
/// (PROUD on an engine: one moment pass; MUNICH: one estimate per pair).
/// Each query's per-τ matches are reduced to F1 at once. `f1s`, `best_tau`,
/// `best_f1` and the matcher's final τ are bitwise equal to running
/// `set_tau` + `RunSimilarityMatching` per grid point, at every thread
/// count and SIMD level. The first maximum wins ties; the matcher is left
/// at `best_tau`.
Result<TauSweepResult> SweepTau(const ts::Dataset& exact,
                                const uncertain::ErrorSpec& spec,
                                Matcher& matcher, const RunOptions& options,
                                std::span<const double> tau_grid);

/// \brief Default τ grid: 19 points from 1e-6 to 0.9999, dense in both
/// tails ({1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, ..., 0.9, 0.95,
/// 0.99, 0.999, 0.9999}), since the F1-optimal τ can sit deep in either.
std::vector<double> DefaultTauGrid();

/// \brief Merge per-query scores of the same matcher across datasets and
/// recompute the confidence intervals ("we report the average results over
/// the full time series for all datasets", Section 4.2.1).
MatcherResult CombineAcrossDatasets(const std::string& name,
                                    std::span<const MatcherResult> parts);

}  // namespace uts::core

#endif  // UTS_CORE_EXPERIMENT_HPP_
