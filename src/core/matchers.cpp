#include "core/matchers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "distance/lp.hpp"
#include "prob/rng.hpp"
#include "query/engine_context.hpp"

namespace uts::core {

namespace {

/// The pdf-model dataset bound in `engines`; InvalidArgument before its
/// first BindData.
Result<const uncertain::UncertainDataset*> BoundPdf(
    const query::EngineContext& engines) {
  if (engines.pdf() == nullptr) {
    return Status::InvalidArgument(
        "engine context has no bound dataset; call BindData first");
  }
  return engines.pdf();
}

/// Guard of every query method: InvalidArgument unless the matcher `name`
/// is bound (`bound`, its bound dataset or engine, is non-null) and `qi`
/// and `ci` index two of its series.
template <typename Bound>
Status RequirePair(const Bound* bound, std::size_t qi, std::size_t ci,
                   const char* name) {
  if (bound == nullptr) {
    return Status::InvalidArgument(std::string(name) +
                                   " matcher is not bound; call Bind first");
  }
  if (qi < bound->size() && ci < bound->size()) return Status::OK();
  return Status::InvalidArgument(
      std::string(name) + ": series index " + std::to_string(std::max(qi, ci)) +
      " out of range (" + std::to_string(bound->size()) + " bound series)");
}

/// `RequirePair` for an engine retrieval of query `qi` among candidates
/// [0, n): an engine sweep scores every bound series, so `n` must be the
/// bound size.
Status RequireSweep(const query::UncertainEngine* engine, std::size_t qi,
                    std::size_t n, const char* name) {
  UTS_RETURN_NOT_OK(RequirePair(engine, qi, qi, name));
  if (n == engine->size()) return Status::OK();
  return Status::InvalidArgument(
      std::string(name) + ": retrieval covers all " +
      std::to_string(engine->size()) + " bound series, not " +
      std::to_string(n));
}

/// PROUD decides against Φ⁻¹(τ), which is ∓inf at τ = 0 and 1: every pair
/// would match, or none. NaN fails too.
Status RequireProudTau(double tau) {
  if (tau > 0.0 && tau < 1.0) return Status::OK();
  return Status::InvalidArgument("PROUD requires tau in (0, 1)");
}

/// ε for PROUD and MUNICH is a Euclidean threshold on the single-value
/// observations (Section 4.1.2: "Since the distances in MUNICH and PROUD
/// are based on the Euclidean distance, we will use the same threshold for
/// both methods, ε_eucl"); it matches the noise scale of the materialized
/// distances MUNICH thresholds against, where sample means would deflate ε
/// by ~sqrt(s) in the noise term and starve the matcher.
double ObservationDistance(const uncertain::UncertainDataset& pdf,
                           std::size_t qi, std::size_t ci) {
  return distance::Euclidean(pdf[qi].observations(), pdf[ci].observations());
}

}  // namespace

// ---------------------------------------------------------------- Euclidean

Status EuclideanMatcher::Bind(query::EngineContext& engines) {
  // The run's shared engine: ε and the range scan come from one kernel (the
  // AVX2 Euclidean kernel is not bitwise the scalar one).
  engine_ = nullptr;  // unbound unless the acquisition succeeds
  UTS_ASSIGN_OR_RETURN(engine_, engines.AcquireEuclidean());
  return Status::OK();
}

Result<double> EuclideanMatcher::CalibrationDistance(std::size_t qi,
                                                     std::size_t ci) {
  UTS_RETURN_NOT_OK(RequirePair(engine_, qi, ci, "Euclidean"));
  return engine_->EuclideanDistance(qi, ci);
}

Result<bool> EuclideanMatcher::Matches(std::size_t qi, std::size_t ci,
                                       double epsilon) {
  auto d = CalibrationDistance(qi, ci);
  if (!d.ok()) return d.status();
  return d.ValueOrDie() <= epsilon;
}

Result<std::vector<std::size_t>> EuclideanMatcher::Retrieve(std::size_t qi,
                                                            std::size_t n,
                                                            double epsilon) {
  UTS_RETURN_NOT_OK(RequireSweep(engine_, qi, n, "Euclidean"));
  return engine_->RangeSearchEuclidean(qi, epsilon);
}

// -------------------------------------------------------------------- PROUD

Status ProudMatcher::Bind(query::EngineContext& engines) {
  engine_ = nullptr;  // unbound unless this Bind succeeds
  UTS_RETURN_NOT_OK(RequireProudTau(tau_));
  // Constant-σ PROUD needs no measure state: the shared engine's kernels
  // run at the bound run's σ, the one this matcher is told.
  UTS_ASSIGN_OR_RETURN(query::UncertainEngine * engine,
                       engines.AcquireEuclidean());
  measures::ProudOptions options;
  options.tau = tau_;
  options.sigma = engines.proud_sigma();
  proud_ = std::make_unique<measures::Proud>(options);
  pdf_ = engines.pdf();
  engine_ = engine;
  return Status::OK();
}

void ProudMatcher::set_tau(double tau) {
  tau_ = tau;
  // A bad τ keeps the old measure; Matches and Retrieve report it instead.
  if (proud_ != nullptr && RequireProudTau(tau).ok()) {
    measures::ProudOptions options = proud_->options();
    options.tau = tau;
    proud_ = std::make_unique<measures::Proud>(options);
  }
}

Result<double> ProudMatcher::CalibrationDistance(std::size_t qi,
                                                 std::size_t ci) {
  UTS_RETURN_NOT_OK(RequirePair(engine_, qi, ci, "PROUD"));
  return ObservationDistance(*pdf_, qi, ci);
}

Result<bool> ProudMatcher::Matches(std::size_t qi, std::size_t ci,
                                   double epsilon) {
  UTS_RETURN_NOT_OK(RequirePair(engine_, qi, ci, "PROUD"));
  UTS_RETURN_NOT_OK(RequireProudTau(tau_));
  return proud_->Matches((*pdf_)[qi].observations(),
                         (*pdf_)[ci].observations(), epsilon);
}

Result<std::vector<std::size_t>> ProudMatcher::Retrieve(std::size_t qi,
                                                        std::size_t n,
                                                        double epsilon) {
  UTS_RETURN_NOT_OK(RequireSweep(engine_, qi, n, "PROUD"));
  UTS_RETURN_NOT_OK(RequireProudTau(tau_));
  return engine_->ProbabilisticRangeSearchProud(qi, epsilon, tau_);
}

Result<std::vector<std::vector<std::size_t>>> ProudMatcher::RetrieveEachTau(
    std::size_t qi, std::size_t n, double epsilon,
    std::span<const double> taus) {
  UTS_RETURN_NOT_OK(RequireSweep(engine_, qi, n, "PROUD"));
  for (double tau : taus) UTS_RETURN_NOT_OK(RequireProudTau(tau));
  return engine_->ProbabilisticRangeSearchProud(qi, epsilon, taus);
}

// ----------------------------------------------------------- PROUD-wavelet

Result<wavelet::ProudSynopsisMatcher> ProudSynopsisMatcherAdapter::MatcherAt(
    double tau) const {
  if (!(tau >= 0.5 && tau < 1.0)) {
    return Status::InvalidArgument(
        "PROUD-wavelet pruning requires tau in [0.5, 1)");
  }
  wavelet::ProudSynopsisOptions options;
  options.proud.tau = tau;
  options.proud.sigma = sigma_;
  options.synopsis_size = synopsis_size_;
  return wavelet::ProudSynopsisMatcher(options);
}

Result<bool> ProudSynopsisMatcherAdapter::Decide(
    const wavelet::ProudSynopsisMatcher& matcher, std::size_t qi,
    std::size_t ci, double epsilon) const {
  UTS_RETURN_NOT_OK(RequirePair(pdf_, qi, ci, "PROUD-wavelet"));
  return matcher.Matches(synopses_[qi], synopses_[ci],
                         (*pdf_)[qi].observations(),
                         (*pdf_)[ci].observations(), epsilon);
}

Status ProudSynopsisMatcherAdapter::Bind(query::EngineContext& engines) {
  UTS_ASSIGN_OR_RETURN(pdf_, BoundPdf(engines));
  sigma_ = engines.proud_sigma();
  // Synopses depend on neither τ nor σ, so a later set_tau keeps them.
  synopses_.clear();
  synopses_.reserve(pdf_->size());
  for (const auto& series : pdf_->series) {
    synopses_.push_back(
        wavelet::BuildSynopsis(series.observations(), synopsis_size_));
  }
  matcher_ = MatcherAt(tau_);
  return matcher_.status();
}

void ProudSynopsisMatcherAdapter::set_tau(double tau) {
  tau_ = tau;
  if (pdf_ != nullptr) matcher_ = MatcherAt(tau_);
}

Result<double> ProudSynopsisMatcherAdapter::CalibrationDistance(
    std::size_t qi, std::size_t ci) {
  UTS_RETURN_NOT_OK(RequirePair(pdf_, qi, ci, "PROUD-wavelet"));
  return ObservationDistance(*pdf_, qi, ci);
}

Result<bool> ProudSynopsisMatcherAdapter::Matches(std::size_t qi,
                                                  std::size_t ci,
                                                  double epsilon) {
  UTS_RETURN_NOT_OK(matcher_.status());
  return Decide(matcher_.ValueOrDie(), qi, ci, epsilon);
}

Result<std::vector<std::vector<std::size_t>>>
ProudSynopsisMatcherAdapter::RetrieveEachTau(std::size_t qi, std::size_t n,
                                             double epsilon,
                                             std::span<const double> taus) {
  UTS_RETURN_NOT_OK(RequirePair(pdf_, qi, qi, "PROUD-wavelet"));
  std::vector<std::vector<std::size_t>> each;
  each.reserve(taus.size());
  for (double tau : taus) {
    UTS_ASSIGN_OR_RETURN(const wavelet::ProudSynopsisMatcher matcher,
                         MatcherAt(tau));
    UTS_ASSIGN_OR_RETURN(auto retrieved, Collect(qi, n, [&](std::size_t ci) {
                           return Decide(matcher, qi, ci, epsilon);
                         }));
    each.push_back(std::move(retrieved));
  }
  return each;
}

// --------------------------------------------------------------------- DUST

Status DustMatcher::Bind(query::EngineContext& engines) {
  // The run's shared engine with the lookup tables for every distinct
  // error pair built up front, so that query timing (Figures 11/12)
  // measures matching, not lazy table construction. The original DUST
  // builds its tables the same way. The tables live in the context's
  // persistent cache, so re-binding across datasets under one error spec
  // reuses them instead of re-running the numeric integration, and they
  // are immutable afterwards — thread-shared by the parallel sweeps.
  engine_ = nullptr;  // unbound unless the acquisition succeeds
  UTS_ASSIGN_OR_RETURN(engine_, engines.AcquireDust());
  return Status::OK();
}

Result<double> DustMatcher::CalibrationDistance(std::size_t qi,
                                                std::size_t ci) {
  UTS_RETURN_NOT_OK(RequirePair(engine_, qi, ci, "DUST"));
  return engine_->DustDistance(qi, ci);
}

Result<bool> DustMatcher::Matches(std::size_t qi, std::size_t ci,
                                  double epsilon) {
  auto d = CalibrationDistance(qi, ci);
  if (!d.ok()) return d.status();
  return d.ValueOrDie() <= epsilon;
}

Result<std::vector<std::size_t>> DustMatcher::Retrieve(std::size_t qi,
                                                       std::size_t n,
                                                       double epsilon) {
  UTS_RETURN_NOT_OK(RequireSweep(engine_, qi, n, "DUST"));
  return engine_->RangeSearchDust(qi, epsilon);
}

// ----------------------------------------------------------------- DUST-DTW

Status DustDtwMatcher::Bind(query::EngineContext& engines) {
  UTS_ASSIGN_OR_RETURN(pdf_, BoundPdf(engines));
  return Status::OK();
}

Result<double> DustDtwMatcher::CalibrationDistance(std::size_t qi,
                                                   std::size_t ci) {
  UTS_RETURN_NOT_OK(RequirePair(pdf_, qi, ci, "DUST-DTW"));
  return dust_.DtwDistance((*pdf_)[qi], (*pdf_)[ci], dtw_options_);
}

Result<bool> DustDtwMatcher::Matches(std::size_t qi, std::size_t ci,
                                     double epsilon) {
  auto d = CalibrationDistance(qi, ci);
  if (!d.ok()) return d.status();
  return d.ValueOrDie() <= epsilon;
}

// ------------------------------------------------------------------- MUNICH

Status MunichMatcher::Bind(query::EngineContext& engines) {
  engine_ = nullptr;  // unbound unless the acquisition succeeds
  UTS_ASSIGN_OR_RETURN(query::UncertainEngine * engine,
                       engines.AcquireMunich());
  engine_ = engine;
  pdf_ = engines.pdf();
  samples_ = engines.samples();
  seed_ = engines.seed();
  // Probabilities depend on neither τ nor anything outside the bound data,
  // so rows survive a re-bind to identical data (the final run after a τ
  // search perturbs to the same samples).
  if (engines.data_fingerprint() != bound_fingerprint_ ||
      rows_.size() != engine->size()) {
    rows_.assign(engine->size(), Row{});
    bound_fingerprint_ = engines.data_fingerprint();
  }
  return Status::OK();
}

void MunichMatcher::set_tau(double tau) {
  measures::MunichOptions options = munich_.options();
  options.tau = tau;
  munich_ = measures::Munich(options);
}

Result<double> MunichMatcher::CalibrationDistance(std::size_t qi,
                                                  std::size_t ci) {
  UTS_RETURN_NOT_OK(RequirePair(engine_, qi, ci, "MUNICH"));
  return ObservationDistance(*pdf_, qi, ci);
}

MunichMatcher::Row& MunichMatcher::RowAt(std::size_t qi, double epsilon) {
  Row& row = rows_[qi];
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(epsilon);
  if (row.probabilities.empty() || row.epsilon_bits != bits) {
    row.epsilon_bits = bits;
    row.probabilities.assign(rows_.size(),
                             std::numeric_limits<double>::quiet_NaN());
  }
  return row;
}

Result<bool> MunichMatcher::Matches(std::size_t qi, std::size_t ci,
                                    double epsilon) {
  UTS_RETURN_NOT_OK(RequirePair(engine_, qi, ci, "MUNICH"));
  // A NaN estimate (none of the estimators yields one for a valid pair)
  // would only be recomputed, to the same value. The pair stream is the
  // one the engine sweep draws (prob::PairStreamSeed).
  double& p = RowAt(qi, epsilon).probabilities[ci];
  if (std::isnan(p)) {
    UTS_ASSIGN_OR_RETURN(
        p, munich_.MatchProbability(
               (*samples_)[qi], (*samples_)[ci], epsilon,
               prob::PairStreamSeed(seed_, qi, ci, rows_.size())));
  }
  return p >= munich_.options().tau;
}

Result<const std::vector<double>*> MunichMatcher::Probabilities(
    std::size_t qi, std::size_t n, double epsilon) {
  UTS_RETURN_NOT_OK(RequireSweep(engine_, qi, n, "MUNICH"));
  std::vector<double>& p = RowAt(qi, epsilon).probabilities;
  bool complete = true;
  for (std::size_t ci = 0; ci < n && complete; ++ci) {
    complete = ci == qi || !std::isnan(p[ci]);
  }
  if (complete) return &p;
  // One estimator sweep fills the whole row; per-pair counter seeds make
  // it bit-identical to the Matches estimates, so entries already present
  // are overwritten with the same values.
  UTS_ASSIGN_OR_RETURN(
      const std::vector<double> swept,
      engine_->MunichMatchProbabilities(qi, epsilon, munich_.options()));
  for (std::size_t ci = 0; ci < n; ++ci) {
    if (ci != qi) p[ci] = swept[ci];
  }
  return &p;
}

Result<std::vector<std::size_t>> MunichMatcher::Retrieve(std::size_t qi,
                                                         std::size_t n,
                                                         double epsilon) {
  const double tau = munich_.options().tau;
  UTS_ASSIGN_OR_RETURN(auto each,
                       RetrieveEachTau(qi, n, epsilon, std::span(&tau, 1)));
  return std::move(each.front());
}

Result<std::vector<std::vector<std::size_t>>> MunichMatcher::RetrieveEachTau(
    std::size_t qi, std::size_t n, double epsilon,
    std::span<const double> taus) {
  UTS_ASSIGN_OR_RETURN(const std::vector<double>* p,
                       Probabilities(qi, n, epsilon));
  return CollectEachTau(
      qi, n, taus.size(),
      [&](std::size_t ci) -> Result<double> { return (*p)[ci]; },
      [&](double prob, std::size_t t) { return prob >= taus[t]; });
}

// --------------------------------------------------------------- MUNICH-DTW

Status MunichDtwMatcher::Bind(query::EngineContext& engines) {
  UTS_ASSIGN_OR_RETURN(const uncertain::UncertainDataset* pdf,
                       BoundPdf(engines));
  if (engines.samples() == nullptr) {
    return Status::NotSupported(
        "the bound dataset has no sample model (required by MUNICH-DTW)");
  }
  pdf_ = pdf;
  samples_ = engines.samples();
  seed_ = engines.seed();
  return Status::OK();
}

Result<double> MunichDtwMatcher::CalibrationDistance(std::size_t qi,
                                                     std::size_t ci) {
  UTS_RETURN_NOT_OK(RequirePair(pdf_, qi, ci, "MUNICH-DTW"));
  // Single-observation view for ε, matching the materialization noise
  // scale (see ObservationDistance).
  return distance::Dtw((*pdf_)[qi].observations(),
                       (*pdf_)[ci].observations(), dtw_options_);
}

Result<MunichDtwMatcher::Verdict> MunichDtwMatcher::Score(
    std::size_t qi, std::size_t ci, double epsilon) const {
  UTS_RETURN_NOT_OK(RequirePair(pdf_, qi, ci, "MUNICH-DTW"));
  const auto& x = (*samples_)[qi];
  const auto& y = (*samples_)[ci];
  // Bounds filter first (certain accept / certain reject), then Monte Carlo.
  const measures::DistanceBounds bounds =
      measures::Munich::DtwBounds(x, y, dtw_options_);
  if (bounds.upper <= epsilon) return Verdict{true, 0.0};
  if (bounds.lower > epsilon) return Verdict{false, 0.0};
  return Verdict{std::nullopt,
                 measures::Munich::MonteCarloDtwMatchProbability(
                     x, y, epsilon, options_.mc_samples,
                     prob::PairStreamSeed(seed_, qi, ci, pdf_->size()),
                     dtw_options_)};
}

Result<bool> MunichDtwMatcher::Matches(std::size_t qi, std::size_t ci,
                                       double epsilon) {
  UTS_ASSIGN_OR_RETURN(const Verdict verdict, Score(qi, ci, epsilon));
  return verdict.At(options_.tau);
}

Result<std::vector<std::vector<std::size_t>>>
MunichDtwMatcher::RetrieveEachTau(std::size_t qi, std::size_t n,
                                  double epsilon,
                                  std::span<const double> taus) {
  UTS_RETURN_NOT_OK(RequirePair(pdf_, qi, qi, "MUNICH-DTW"));
  return CollectEachTau(
      qi, n, taus.size(),
      [&](std::size_t ci) { return Score(qi, ci, epsilon); },
      [&](const Verdict& verdict, std::size_t t) {
        return verdict.At(taus[t]);
      });
}

// ---------------------------------------------------------------------- DTW

std::string DtwMatcher::name() const {
  if (options_.band_radius == distance::DtwOptions::kNoBand) return "DTW";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "DTW(r=%zu)", options_.band_radius);
  return buf;
}

Status DtwMatcher::Bind(query::EngineContext& engines) {
  UTS_ASSIGN_OR_RETURN(pdf_, BoundPdf(engines));
  return Status::OK();
}

Result<double> DtwMatcher::CalibrationDistance(std::size_t qi,
                                               std::size_t ci) {
  UTS_RETURN_NOT_OK(RequirePair(pdf_, qi, ci, "DTW"));
  return distance::Dtw((*pdf_)[qi].observations(),
                       (*pdf_)[ci].observations(), options_);
}

Result<bool> DtwMatcher::Matches(std::size_t qi, std::size_t ci,
                                 double epsilon) {
  auto d = CalibrationDistance(qi, ci);
  if (!d.ok()) return d.status();
  return d.ValueOrDie() <= epsilon;
}

// ------------------------------------------------------------ AR1 smoother

std::string Ar1SmootherMatcher::name() const {
  if (options_.rho == 0.0) return "AR1-smoother";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "AR1-smoother(rho=%.2g)", options_.rho);
  return buf;
}

Status Ar1SmootherMatcher::Bind(query::EngineContext& engines) {
  UTS_ASSIGN_OR_RETURN(const uncertain::UncertainDataset* pdf,
                       BoundPdf(engines));
  pdf_ = nullptr;  // until every series is smoothed
  smoothed_.clear();
  smoothed_.reserve(pdf->size());
  for (const auto& series : pdf->series) {
    UTS_ASSIGN_OR_RETURN(auto smoothed,
                         ts::Ar1KalmanSmooth(series.observations(),
                                             series.Stddevs(), options_));
    smoothed_.push_back(std::move(smoothed));
  }
  pdf_ = pdf;
  return Status::OK();
}

Result<double> Ar1SmootherMatcher::CalibrationDistance(std::size_t qi,
                                                       std::size_t ci) {
  UTS_RETURN_NOT_OK(RequirePair(pdf_, qi, ci, "AR1-smoother"));
  return distance::Euclidean(smoothed_[qi], smoothed_[ci]);
}

Result<bool> Ar1SmootherMatcher::Matches(std::size_t qi, std::size_t ci,
                                         double epsilon) {
  auto d = CalibrationDistance(qi, ci);
  if (!d.ok()) return d.status();
  return d.ValueOrDie() <= epsilon;
}

// ----------------------------------------------------------------- filtered

FilteredMatcher::FilteredMatcher(FilterKind kind, ts::FilterOptions options)
    : kind_(kind), options_(options) {}

std::string FilteredMatcher::name() const {
  char buf[64];
  switch (kind_) {
    case FilterKind::kMovingAverage:
      std::snprintf(buf, sizeof(buf), "MA(w=%zu)", options_.half_window);
      break;
    case FilterKind::kExponentialMovingAverage:
      std::snprintf(buf, sizeof(buf), "EMA(w=%zu,lambda=%.3g)",
                    options_.half_window, options_.lambda);
      break;
    case FilterKind::kUma:
      std::snprintf(buf, sizeof(buf), "UMA(w=%zu)", options_.half_window);
      break;
    case FilterKind::kUema:
      std::snprintf(buf, sizeof(buf), "UEMA(w=%zu,lambda=%.3g)",
                    options_.half_window, options_.lambda);
      break;
  }
  return buf;
}

Status FilteredMatcher::Bind(query::EngineContext& engines) {
  UTS_ASSIGN_OR_RETURN(const uncertain::UncertainDataset* pdf,
                       BoundPdf(engines));
  pdf_ = nullptr;  // until every series is filtered
  filtered_.clear();
  filtered_.reserve(pdf->size());
  for (const auto& series : pdf->series) {
    switch (kind_) {
      case FilterKind::kMovingAverage:
        filtered_.push_back(ts::MovingAverage(series.observations(), options_));
        break;
      case FilterKind::kExponentialMovingAverage:
        filtered_.push_back(
            ts::ExponentialMovingAverage(series.observations(), options_));
        break;
      case FilterKind::kUma: {
        auto f = ts::UncertainMovingAverage(series.observations(),
                                            series.Stddevs(), options_);
        if (!f.ok()) return f.status();
        filtered_.push_back(std::move(f).ValueOrDie());
        break;
      }
      case FilterKind::kUema: {
        auto f = ts::UncertainExponentialMovingAverage(
            series.observations(), series.Stddevs(), options_);
        if (!f.ok()) return f.status();
        filtered_.push_back(std::move(f).ValueOrDie());
        break;
      }
    }
  }
  pdf_ = pdf;
  return Status::OK();
}

Result<double> FilteredMatcher::CalibrationDistance(std::size_t qi,
                                                    std::size_t ci) {
  UTS_RETURN_NOT_OK(RequirePair(pdf_, qi, ci, "filtered"));
  return distance::Euclidean(filtered_[qi], filtered_[ci]);
}

Result<bool> FilteredMatcher::Matches(std::size_t qi, std::size_t ci,
                                      double epsilon) {
  auto d = CalibrationDistance(qi, ci);
  if (!d.ok()) return d.status();
  return d.ValueOrDie() <= epsilon;
}

std::unique_ptr<FilteredMatcher> MakeUmaMatcher(std::size_t half_window) {
  ts::FilterOptions options;
  options.half_window = half_window;
  return std::make_unique<FilteredMatcher>(FilterKind::kUma, options);
}

std::unique_ptr<FilteredMatcher> MakeUemaMatcher(std::size_t half_window,
                                                 double lambda) {
  ts::FilterOptions options;
  options.half_window = half_window;
  options.lambda = lambda;
  return std::make_unique<FilteredMatcher>(FilterKind::kUema, options);
}

std::unique_ptr<FilteredMatcher> MakeMovingAverageMatcher(
    std::size_t half_window) {
  ts::FilterOptions options;
  options.half_window = half_window;
  return std::make_unique<FilteredMatcher>(FilterKind::kMovingAverage,
                                           options);
}

std::unique_ptr<FilteredMatcher> MakeExponentialMovingAverageMatcher(
    std::size_t half_window, double lambda) {
  ts::FilterOptions options;
  options.half_window = half_window;
  options.lambda = lambda;
  return std::make_unique<FilteredMatcher>(
      FilterKind::kExponentialMovingAverage, options);
}

}  // namespace uts::core
