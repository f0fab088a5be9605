/// \file similarity.hpp
/// \brief The unified similarity-matching interface of the evaluation.
///
/// The paper's methodology (Section 4.1.2) compares heterogeneous
/// techniques — exact distances (Euclidean, DUST, UMA, UEMA) and
/// probabilistic matchers (MUNICH, PROUD) — "on the same task", time-series
/// similarity matching. The common denominator is:
///
///  1. bind to a perturbed dataset (precompute anything per-series);
///  2. report a *calibration distance* between two bound series, used to
///     derive the technique-equivalent threshold ε from the 10th nearest
///     neighbor ("we define ε_eucl as the Euclidean distance on the
///     observations between q and c and ε_dust as the DUST distance between
///     q and c");
///  3. decide whether a candidate matches a query under that threshold —
///     a plain distance comparison for exact measures, a
///     Pr(distance ≤ ε) ≥ τ test for the probabilistic ones.
///
/// The "same task" is one perturbed dataset per run, held by the run's
/// query::EngineContext: matchers bind to that context, read the bound
/// data and run parameters from it, and the engine-backed ones (Euclidean,
/// PROUD, DUST, MUNICH) retrieve only through its one shared engine.

#ifndef UTS_CORE_SIMILARITY_HPP_
#define UTS_CORE_SIMILARITY_HPP_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace uts::query {
class EngineContext;
}  // namespace uts::query

namespace uts::core {

/// \brief A similarity-matching technique under evaluation.
///
/// Matchers are stateful: `Bind` is called once per perturbed dataset and
/// may precompute per-series artifacts (filtered sequences, synopses, DUST
/// tables). Concurrency contract: after `Bind`, `CalibrationDistance`,
/// `Matches`, `Retrieve` and `RetrieveEachTau` may run concurrently for
/// distinct query indices `qi` — the evaluation runner spreads its queries
/// over the run's pool this way. `Bind` and `set_tau` must not overlap any
/// other call.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Display name, e.g. "PROUD" or "UEMA(w=2,lambda=1)".
  virtual std::string name() const = 0;

  /// Attach to the data bound in `engines` (its pdf model, sample model,
  /// seed and PROUD σ); precompute caches and acquire engine views. Must be
  /// called before the other methods, and again after every
  /// `EngineContext::BindData`; `engines` must outlive the binding. Fails
  /// when the context has no bound data, or lacks what the matcher needs.
  virtual Status Bind(query::EngineContext& engines) = 0;

  /// Distance between bound series `qi` and `ci` in the measure's own
  /// space, used for threshold calibration. For probabilistic matchers this
  /// is the Euclidean distance on the observations (ε is always a Euclidean
  /// threshold for MUNICH and PROUD, Section 4.1.2). Every query method
  /// fails with InvalidArgument for an index outside the bound series.
  virtual Result<double> CalibrationDistance(std::size_t qi,
                                             std::size_t ci) = 0;

  /// Match decision for candidate `ci` against query `qi` with threshold
  /// `epsilon` (in the same space as `CalibrationDistance`).
  virtual Result<bool> Matches(std::size_t qi, std::size_t ci,
                               double epsilon) = 0;

  /// Retrieve every matching candidate of query `qi` among indices [0, n)
  /// (self excluded, ascending) under threshold `epsilon` — the retrieval
  /// step of the evaluation loop. The default is the sequential reference:
  /// one `Matches` call per candidate. Engine-aware matchers (Euclidean,
  /// DUST, PROUD, MUNICH) override it with batched engine sweeps whose
  /// results are bit-identical to the default at every thread count; an
  /// engine sweep covers every bound series, so they require `n` to be the
  /// bound size.
  virtual Result<std::vector<std::size_t>> Retrieve(std::size_t qi,
                                                    std::size_t n,
                                                    double epsilon);

  /// `Retrieve` at every threshold of `taus` — the scoring step of the
  /// optimal-τ search (`SweepTau`). `result[i]` is exactly what
  /// `set_tau(taus[i])` followed by `Retrieve(qi, n, epsilon)` returns, yet
  /// τ is never changed: every `has_tau()` matcher overrides this to score
  /// each candidate once and decide each τ from that score. The default
  /// fails with InvalidArgument (no probabilistic threshold).
  virtual Result<std::vector<std::vector<std::size_t>>> RetrieveEachTau(
      std::size_t qi, std::size_t n, double epsilon,
      std::span<const double> taus);

  /// Whether this matcher has a probabilistic threshold τ (MUNICH, PROUD).
  virtual bool has_tau() const { return false; }

  /// Current τ; only meaningful when `has_tau()`.
  virtual double tau() const { return 0.0; }

  /// Update τ; only meaningful when `has_tau()`. Used by the optimal-τ
  /// sweep ("we are using the optimal probabilistic threshold τ, determined
  /// after repeated experiments", Section 4.2.1).
  virtual void set_tau(double tau) { (void)tau; }

 protected:
  /// The candidates [0, n) other than `qi` that `decide(ci)` (a
  /// `Result<bool>`) accepts, ascending; the first failing decision's error
  /// otherwise. The loop behind the default `Retrieve`.
  template <typename Decide>
  static Result<std::vector<std::size_t>> Collect(std::size_t qi,
                                                  std::size_t n,
                                                  Decide&& decide) {
    std::vector<std::size_t> retrieved;
    for (std::size_t ci = 0; ci < n; ++ci) {
      if (ci == qi) continue;
      UTS_ASSIGN_OR_RETURN(const bool matched, decide(ci));
      if (matched) retrieved.push_back(ci);
    }
    return retrieved;
  }

  /// `Collect` at `num_taus` thresholds from one score per candidate:
  /// `score(ci)` (a `Result`) runs once per candidate, then
  /// `accept(score, t)` decides it at threshold t. `result[t]` lists the
  /// candidates accepted at t, ascending.
  template <typename Score, typename Accept>
  static Result<std::vector<std::vector<std::size_t>>> CollectEachTau(
      std::size_t qi, std::size_t n, std::size_t num_taus, Score&& score,
      Accept&& accept) {
    std::vector<std::vector<std::size_t>> each(num_taus);
    for (std::size_t ci = 0; ci < n; ++ci) {
      if (ci == qi) continue;
      UTS_ASSIGN_OR_RETURN(const auto scored, score(ci));
      for (std::size_t t = 0; t < num_taus; ++t) {
        if (accept(scored, t)) each[t].push_back(ci);
      }
    }
    return each;
  }
};

}  // namespace uts::core

#endif  // UTS_CORE_SIMILARITY_HPP_
