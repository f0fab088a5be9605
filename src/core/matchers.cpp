#include "core/matchers.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>

#include "distance/lp.hpp"
#include "prob/rng.hpp"
#include "prob/special.hpp"
#include "query/engine_context.hpp"

namespace uts::core {

namespace {

Status RequirePdf(const EvalContext& context) {
  if (context.pdf == nullptr) {
    return Status::InvalidArgument("context has no pdf-model dataset");
  }
  return Status::OK();
}

/// Unbound-matcher guard: every public query method is UB-free by
/// returning a Status instead of dereferencing never-bound state.
Status RequireBound(const EvalContext* ctx, const char* name) {
  if (ctx == nullptr) {
    return Status::InvalidArgument(std::string(name) +
                                   " matcher is not bound; call Bind first");
  }
  return Status::OK();
}

/// PROUD decides against Φ⁻¹(τ), which is ∓inf at τ = 0 and 1: every pair
/// would match, or none. NaN fails too.
Status RequireProudTau(double tau) {
  if (tau > 0.0 && tau < 1.0) return Status::OK();
  return Status::InvalidArgument("PROUD requires tau in (0, 1)");
}

Status RequireSamples(const EvalContext& context) {
  if (context.samples == nullptr) {
    return Status::InvalidArgument(
        "context has no repeated-observations dataset (required by MUNICH)");
  }
  return Status::OK();
}

/// Deterministic per-pair stream for Monte Carlo estimators (the shared
/// counter-based derivation — see prob::PairStreamSeed — so engine sweeps
/// and sequential loops draw identical materializations).
std::uint64_t PairSeed(const EvalContext& context, std::size_t qi,
                       std::size_t ci) {
  const std::size_t n = context.pdf != nullptr ? context.pdf->size()
                                               : context.samples->size();
  return prob::PairStreamSeed(context.seed, qi, ci, n);
}

}  // namespace

// ---------------------------------------------------------------- Euclidean

Status EuclideanMatcher::Bind(const EvalContext& context) {
  UTS_RETURN_NOT_OK(RequirePdf(context));
  ctx_ = &context;
  // Borrow the run's shared engine, so that ε and the range scan come from
  // one kernel (the AVX2 Euclidean kernel is not bitwise the scalar one).
  // Declined (a non-engine-shaped dataset) means the scalar path below.
  engine_ = context.engines != nullptr ? context.engines->AcquireEuclidean()
                                       : nullptr;
  return Status::OK();
}

Result<double> EuclideanMatcher::CalibrationDistance(std::size_t qi,
                                                     std::size_t ci) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "Euclidean"));
  if (engine_ != nullptr) return engine_->EuclideanDistance(qi, ci);
  return distance::Euclidean((*ctx_->pdf)[qi].observations(),
                             (*ctx_->pdf)[ci].observations());
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
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "Euclidean"));
  if (engine_ == nullptr || n != engine_->size()) {
    return Matcher::Retrieve(qi, n, epsilon);
  }
  return engine_->RangeSearchEuclidean(qi, epsilon);
}

// -------------------------------------------------------------------- PROUD

Status ProudMatcher::Bind(const EvalContext& context) {
  UTS_RETURN_NOT_OK(RequirePdf(context));
  UTS_RETURN_NOT_OK(RequireProudTau(tau_));
  ctx_ = &context;
  measures::ProudOptions options;
  options.tau = tau_;
  options.sigma = sigma_override_.value_or(context.reported_sigma);
  proud_ = std::make_unique<measures::Proud>(options);
  // Borrow the run's shared engine; declined (e.g. a σ override differing
  // from the run-level σ, or a non-engine-shaped dataset) means the
  // sequential scalar path below — bit-identical either way.
  engine_ = context.engines != nullptr
                ? context.engines->AcquireProud(options.sigma)
                : nullptr;
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
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "PROUD"));
  // ε for PROUD is a Euclidean threshold (Section 4.1.2: "Since the
  // distances in MUNICH and PROUD are based on the Euclidean distance, we
  // will use the same threshold for both methods, ε_eucl").
  return distance::Euclidean((*ctx_->pdf)[qi].observations(),
                             (*ctx_->pdf)[ci].observations());
}

Result<bool> ProudMatcher::Matches(std::size_t qi, std::size_t ci,
                                   double epsilon) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "PROUD"));
  UTS_RETURN_NOT_OK(RequireProudTau(tau_));
  return proud_->Matches((*ctx_->pdf)[qi].observations(),
                         (*ctx_->pdf)[ci].observations(), epsilon);
}

Result<std::vector<std::size_t>> ProudMatcher::Retrieve(std::size_t qi,
                                                        std::size_t n,
                                                        double epsilon) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "PROUD"));
  UTS_RETURN_NOT_OK(RequireProudTau(tau_));
  if (engine_ == nullptr || n != engine_->size()) {
    return Matcher::Retrieve(qi, n, epsilon);
  }
  return engine_->ProbabilisticRangeSearchProud(qi, epsilon, tau_);
}

Result<std::vector<std::vector<std::size_t>>> ProudMatcher::RetrieveEachTau(
    std::size_t qi, std::size_t n, double epsilon,
    std::span<const double> taus) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "PROUD"));
  for (double tau : taus) UTS_RETURN_NOT_OK(RequireProudTau(tau));
  if (engine_ != nullptr && n == engine_->size()) {
    return engine_->ProbabilisticRangeSearchProud(qi, epsilon, taus);
  }
  // Matches at τ is MarginFromStats(...).Decide(Φ⁻¹(τ)); the margin does
  // not depend on τ.
  std::vector<double> limits;
  limits.reserve(taus.size());
  for (double tau : taus) limits.push_back(prob::NormalQuantile(tau));
  const auto q = (*ctx_->pdf)[qi].observations();
  return CollectEachTau(
      qi, n, taus.size(),
      [&](std::size_t ci) -> Result<measures::ProudMargin> {
        return measures::Proud::MarginFromStats(
            proud_->DistanceStats(q, (*ctx_->pdf)[ci].observations()),
            epsilon);
      },
      [&](const measures::ProudMargin& margin, std::size_t t) {
        return margin.Decide(limits[t]);
      });
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
  return matcher.Matches(synopses_[qi], synopses_[ci],
                         (*ctx_->pdf)[qi].observations(),
                         (*ctx_->pdf)[ci].observations(), epsilon);
}

Status ProudSynopsisMatcherAdapter::Bind(const EvalContext& context) {
  UTS_RETURN_NOT_OK(RequirePdf(context));
  ctx_ = &context;
  sigma_ = sigma_override_.value_or(context.reported_sigma);
  // Synopses depend on neither τ nor σ, so a later set_tau keeps them.
  synopses_.clear();
  synopses_.reserve(context.pdf->size());
  for (const auto& series : context.pdf->series) {
    synopses_.push_back(
        wavelet::BuildSynopsis(series.observations(), synopsis_size_));
  }
  matcher_ = MatcherAt(tau_);
  return matcher_.status();
}

void ProudSynopsisMatcherAdapter::set_tau(double tau) {
  tau_ = tau;
  if (ctx_ != nullptr) matcher_ = MatcherAt(tau_);
}

Result<double> ProudSynopsisMatcherAdapter::CalibrationDistance(
    std::size_t qi, std::size_t ci) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "PROUD-wavelet"));
  return distance::Euclidean((*ctx_->pdf)[qi].observations(),
                             (*ctx_->pdf)[ci].observations());
}

Result<bool> ProudSynopsisMatcherAdapter::Matches(std::size_t qi,
                                                  std::size_t ci,
                                                  double epsilon) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "PROUD-wavelet"));
  UTS_RETURN_NOT_OK(matcher_.status());
  return Decide(matcher_.ValueOrDie(), qi, ci, epsilon);
}

Result<std::vector<std::vector<std::size_t>>>
ProudSynopsisMatcherAdapter::RetrieveEachTau(std::size_t qi, std::size_t n,
                                             double epsilon,
                                             std::span<const double> taus) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "PROUD-wavelet"));
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

Status DustMatcher::Bind(const EvalContext& context) {
  UTS_RETURN_NOT_OK(RequirePdf(context));
  ctx_ = &context;
  // Borrow the run's shared engine with the lookup tables for every
  // distinct error pair built up front, so that query timing (Figures
  // 11/12) measures matching, not lazy table construction. The original
  // DUST builds its tables the same way. The tables live in the context's
  // persistent cache, so re-binding across datasets under one error spec
  // reuses them instead of re-running the numeric integration, and they
  // are immutable afterwards — thread-shared by the parallel sweeps.
  engine_ = context.engines != nullptr
                ? context.engines->AcquireDust(dust_.options())
                : nullptr;
  if (engine_ != nullptr) return Status::OK();
  // Engine-less fallback (non-uniform lengths): prewarm the scalar cache.
  std::map<std::string, prob::ErrorDistributionPtr> distinct;
  for (const auto& series : context.pdf->series) {
    for (std::size_t i = 0; i < series.size(); ++i) {
      const auto& err = series.error(i);
      distinct.emplace(err->Key(), err);
    }
  }
  for (const auto& [ka, ea] : distinct) {
    for (const auto& [kb, eb] : distinct) {
      if (ka > kb) continue;  // tables are canonicalized by key order
      UTS_RETURN_NOT_OK(dust_.Prewarm(ea, eb));
    }
  }
  return Status::OK();
}

Result<double> DustMatcher::CalibrationDistance(std::size_t qi,
                                                std::size_t ci) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "DUST"));
  if (engine_ != nullptr) return engine_->DustDistance(qi, ci);
  return dust_.Distance((*ctx_->pdf)[qi], (*ctx_->pdf)[ci]);
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
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "DUST"));
  if (engine_ == nullptr || n != engine_->size()) {
    return Matcher::Retrieve(qi, n, epsilon);
  }
  return engine_->RangeSearchDust(qi, epsilon);
}

// ----------------------------------------------------------------- DUST-DTW

Status DustDtwMatcher::Bind(const EvalContext& context) {
  UTS_RETURN_NOT_OK(RequirePdf(context));
  ctx_ = &context;
  return Status::OK();
}

Result<double> DustDtwMatcher::CalibrationDistance(std::size_t qi,
                                                   std::size_t ci) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "DUST-DTW"));
  return dust_.DtwDistance((*ctx_->pdf)[qi], (*ctx_->pdf)[ci], dtw_options_);
}

Result<bool> DustDtwMatcher::Matches(std::size_t qi, std::size_t ci,
                                     double epsilon) {
  auto d = CalibrationDistance(qi, ci);
  if (!d.ok()) return d.status();
  return d.ValueOrDie() <= epsilon;
}

// ------------------------------------------------------------------- MUNICH

namespace {

/// FNV-1a fingerprint of the sample-model data a MunichMatcher is bound to:
/// the seed, the series count and every sample. Used to keep the
/// probability rows across re-binds to *identical* data (the final run
/// after a τ search perturbs to the same samples; probabilities do not
/// depend on τ).
std::uint64_t FingerprintSamples(const EvalContext& context) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(context.seed);
  mix(context.samples->size());
  for (const auto& series : context.samples->series) {
    mix(series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
      mix(series.samples(i).size());
      for (double v : series.samples(i)) mix(std::bit_cast<std::uint64_t>(v));
    }
  }
  return h;
}

}  // namespace

Status MunichMatcher::Bind(const EvalContext& context) {
  UTS_RETURN_NOT_OK(RequireSamples(context));
  ctx_ = &context;
  // Borrow the run's shared engine with the sample dataset attached;
  // declined (pdf/sample shape mismatch, conflicting estimator config of
  // an earlier MUNICH matcher) means the sequential path — bit-identical.
  engine_ = context.engines != nullptr
                ? context.engines->AcquireMunich(munich_.options())
                : nullptr;
  const std::uint64_t fingerprint = FingerprintSamples(context);
  if (fingerprint != bound_fingerprint_ ||
      rows_.size() != context.samples->size()) {
    rows_.assign(context.samples->size(), Row{});
    bound_fingerprint_ = fingerprint;
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
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "MUNICH"));
  // "We will use the same threshold for both methods, ε_eucl" (Section
  // 4.1.2): the threshold is the Euclidean distance on the single-value
  // observations, which matches the noise scale of the materialized
  // distances MUNICH thresholds against. Sample means would deflate ε by
  // ~sqrt(s) in the noise term and starve the matcher.
  if (ctx_->pdf != nullptr) {
    return distance::Euclidean((*ctx_->pdf)[qi].observations(),
                               (*ctx_->pdf)[ci].observations());
  }
  const auto q = (*ctx_->samples)[qi].SampleMeans();
  const auto c = (*ctx_->samples)[ci].SampleMeans();
  return distance::Euclidean(q.values(), c.values());
}

Result<MunichMatcher::Row*> MunichMatcher::RowAt(std::size_t qi,
                                                 double epsilon) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "MUNICH"));
  if (qi >= rows_.size()) {
    return Status::InvalidArgument("MUNICH query index out of range");
  }
  Row& row = rows_[qi];
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(epsilon);
  if (row.probabilities.empty() || row.epsilon_bits != bits) {
    row.epsilon_bits = bits;
    row.probabilities.assign(rows_.size(),
                             std::numeric_limits<double>::quiet_NaN());
  }
  return &row;
}

Result<double> MunichMatcher::ProbabilityFor(Row& row, std::size_t qi,
                                             std::size_t ci, double epsilon) {
  if (ci >= row.probabilities.size()) {
    return Status::InvalidArgument("MUNICH candidate index out of range");
  }
  // A NaN estimate (none of the estimators yields one for a valid pair)
  // would only be recomputed, to the same value.
  double& p = row.probabilities[ci];
  if (std::isnan(p)) {
    UTS_ASSIGN_OR_RETURN(p, munich_.MatchProbability((*ctx_->samples)[qi],
                                                     (*ctx_->samples)[ci],
                                                     epsilon,
                                                     PairSeed(*ctx_, qi, ci)));
  }
  return p;
}

Result<bool> MunichMatcher::Matches(std::size_t qi, std::size_t ci,
                                    double epsilon) {
  UTS_ASSIGN_OR_RETURN(Row* row, RowAt(qi, epsilon));
  UTS_ASSIGN_OR_RETURN(const double p,
                       ProbabilityFor(*row, qi, ci, epsilon));
  return p >= munich_.options().tau;
}

Result<const std::vector<double>*> MunichMatcher::Probabilities(
    std::size_t qi, std::size_t n, double epsilon) {
  UTS_ASSIGN_OR_RETURN(Row* row, RowAt(qi, epsilon));
  std::vector<double>& p = row->probabilities;
  if (n > p.size()) {
    return Status::InvalidArgument("MUNICH candidate index out of range");
  }
  bool complete = true;
  for (std::size_t ci = 0; ci < n && complete; ++ci) {
    complete = ci == qi || !std::isnan(p[ci]);
  }
  if (complete) return &p;
  if (engine_ == nullptr || n != engine_->size()) {
    for (std::size_t ci = 0; ci < n; ++ci) {
      if (ci == qi) continue;
      UTS_RETURN_NOT_OK(ProbabilityFor(*row, qi, ci, epsilon).status());
    }
    return &p;
  }
  // One estimator sweep fills the whole row; per-pair counter seeds make
  // it bit-identical to the sequential estimates, so entries already
  // present are overwritten with the same values.
  UTS_ASSIGN_OR_RETURN(const std::vector<double> swept,
                       engine_->MunichMatchProbabilities(qi, epsilon));
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

Status MunichDtwMatcher::Bind(const EvalContext& context) {
  UTS_RETURN_NOT_OK(RequireSamples(context));
  ctx_ = &context;
  return Status::OK();
}

Result<double> MunichDtwMatcher::CalibrationDistance(std::size_t qi,
                                                     std::size_t ci) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "MUNICH-DTW"));
  // Single-observation view for ε, matching the materialization noise
  // scale (see MunichMatcher::CalibrationDistance).
  if (ctx_->pdf != nullptr) {
    return distance::Dtw((*ctx_->pdf)[qi].observations(),
                         (*ctx_->pdf)[ci].observations(), dtw_options_);
  }
  const auto q = (*ctx_->samples)[qi].SampleMeans();
  const auto c = (*ctx_->samples)[ci].SampleMeans();
  return distance::Dtw(q.values(), c.values(), dtw_options_);
}

MunichDtwMatcher::Verdict MunichDtwMatcher::Score(std::size_t qi,
                                                 std::size_t ci,
                                                 double epsilon) const {
  const auto& x = (*ctx_->samples)[qi];
  const auto& y = (*ctx_->samples)[ci];
  // Bounds filter first (certain accept / certain reject), then Monte Carlo.
  const measures::DistanceBounds bounds =
      measures::Munich::DtwBounds(x, y, dtw_options_);
  if (bounds.upper <= epsilon) return {true, 0.0};
  if (bounds.lower > epsilon) return {false, 0.0};
  return {std::nullopt,
          measures::Munich::MonteCarloDtwMatchProbability(
              x, y, epsilon, options_.mc_samples, PairSeed(*ctx_, qi, ci),
              dtw_options_)};
}

Result<bool> MunichDtwMatcher::Matches(std::size_t qi, std::size_t ci,
                                       double epsilon) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "MUNICH-DTW"));
  return Score(qi, ci, epsilon).At(options_.tau);
}

Result<std::vector<std::vector<std::size_t>>>
MunichDtwMatcher::RetrieveEachTau(std::size_t qi, std::size_t n,
                                  double epsilon,
                                  std::span<const double> taus) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "MUNICH-DTW"));
  return CollectEachTau(
      qi, n, taus.size(),
      [&](std::size_t ci) -> Result<Verdict> { return Score(qi, ci, epsilon); },
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

Status DtwMatcher::Bind(const EvalContext& context) {
  UTS_RETURN_NOT_OK(RequirePdf(context));
  ctx_ = &context;
  return Status::OK();
}

Result<double> DtwMatcher::CalibrationDistance(std::size_t qi,
                                               std::size_t ci) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "DTW"));
  return distance::Dtw((*ctx_->pdf)[qi].observations(),
                       (*ctx_->pdf)[ci].observations(), options_);
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

Status Ar1SmootherMatcher::Bind(const EvalContext& context) {
  UTS_RETURN_NOT_OK(RequirePdf(context));
  ctx_ = &context;
  smoothed_.clear();
  smoothed_.reserve(context.pdf->size());
  for (const auto& series : context.pdf->series) {
    auto result = ts::Ar1KalmanSmooth(series.observations(), series.Stddevs(),
                                      options_);
    if (!result.ok()) return result.status();
    smoothed_.push_back(std::move(result).ValueOrDie());
  }
  return Status::OK();
}

Result<double> Ar1SmootherMatcher::CalibrationDistance(std::size_t qi,
                                                       std::size_t ci) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "AR1-smoother"));
  assert(qi < smoothed_.size() && ci < smoothed_.size());
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

Status FilteredMatcher::Bind(const EvalContext& context) {
  UTS_RETURN_NOT_OK(RequirePdf(context));
  ctx_ = &context;
  filtered_.clear();
  filtered_.reserve(context.pdf->size());
  for (const auto& series : context.pdf->series) {
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
  return Status::OK();
}

Result<double> FilteredMatcher::CalibrationDistance(std::size_t qi,
                                                    std::size_t ci) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "filtered"));
  assert(qi < filtered_.size() && ci < filtered_.size());
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
