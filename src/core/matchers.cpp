#include "core/matchers.hpp"

#include <cassert>
#include <cstdio>
#include <cstring>

#include "distance/lp.hpp"
#include "prob/rng.hpp"
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
  return Status::OK();
}

Result<double> EuclideanMatcher::CalibrationDistance(std::size_t qi,
                                                     std::size_t ci) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "Euclidean"));
  return distance::Euclidean((*ctx_->pdf)[qi].observations(),
                             (*ctx_->pdf)[ci].observations());
}

Result<bool> EuclideanMatcher::Matches(std::size_t qi, std::size_t ci,
                                       double epsilon) {
  auto d = CalibrationDistance(qi, ci);
  if (!d.ok()) return d.status();
  return d.ValueOrDie() <= epsilon;
}

// -------------------------------------------------------------------- PROUD

Status ProudMatcher::Bind(const EvalContext& context) {
  UTS_RETURN_NOT_OK(RequirePdf(context));
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
  if (proud_ != nullptr) {
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
  return proud_->Matches((*ctx_->pdf)[qi].observations(),
                         (*ctx_->pdf)[ci].observations(), epsilon);
}

Result<std::vector<std::size_t>> ProudMatcher::Retrieve(std::size_t qi,
                                                        std::size_t n,
                                                        double epsilon) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "PROUD"));
  if (engine_ == nullptr || n != engine_->size()) {
    return Matcher::Retrieve(qi, n, epsilon);
  }
  return engine_->ProbabilisticRangeSearchProud(qi, epsilon, tau_);
}

Result<std::vector<std::vector<std::size_t>>> ProudMatcher::RetrieveEachTau(
    std::size_t qi, std::size_t n, double epsilon,
    std::span<const double> taus) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "PROUD"));
  if (engine_ == nullptr || n != engine_->size()) {
    return Matcher::RetrieveEachTau(qi, n, epsilon, taus);
  }
  return engine_->ProbabilisticRangeSearchProud(qi, epsilon, taus);
}

// ----------------------------------------------------------- PROUD-wavelet

Status ProudSynopsisMatcherAdapter::RebuildMatcher() {
  matcher_.reset();
  if (!(tau_ >= 0.5 && tau_ < 1.0)) {
    return Status::InvalidArgument(
        "PROUD-wavelet pruning requires tau in [0.5, 1)");
  }
  wavelet::ProudSynopsisOptions options;
  options.proud.tau = tau_;
  options.proud.sigma = sigma_;
  options.synopsis_size = synopsis_size_;
  matcher_ = std::make_unique<wavelet::ProudSynopsisMatcher>(options);
  return Status::OK();
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
  stats_ = {};
  tau_status_ = RebuildMatcher();
  return tau_status_;
}

void ProudSynopsisMatcherAdapter::set_tau(double tau) {
  tau_ = tau;
  if (ctx_ != nullptr) tau_status_ = RebuildMatcher();
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
  UTS_RETURN_NOT_OK(tau_status_);
  return matcher_->Matches(synopses_[qi], synopses_[ci],
                           (*ctx_->pdf)[qi].observations(),
                           (*ctx_->pdf)[ci].observations(), epsilon, &stats_);
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

/// FNV-1a fingerprint of the sample-model data a MunichMatcher is bound to.
/// Used to keep the probability cache across re-binds to *identical* data
/// (the final run after a τ search perturbs to the same samples;
/// probabilities do not depend on τ).
std::uint64_t FingerprintSamples(const EvalContext& context) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(context.seed);
  mix(context.samples->size());
  auto mix_series = [&](const uncertain::MultiSampleSeries& s) {
    mix(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      for (double v : s.samples(i)) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
      }
    }
  };
  if (context.samples->size() > 0) {
    mix_series((*context.samples)[0]);
    mix_series((*context.samples)[context.samples->size() - 1]);
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
  if (fingerprint != bound_fingerprint_) {
    prob_cache_.clear();
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

Result<double> MunichMatcher::ProbabilityFor(std::size_t qi, std::size_t ci,
                                             double epsilon) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "MUNICH"));
  std::uint64_t eps_bits;
  static_assert(sizeof(eps_bits) == sizeof(epsilon));
  std::memcpy(&eps_bits, &epsilon, sizeof(eps_bits));
  const auto key = std::make_tuple(qi, ci, eps_bits);
  auto it = prob_cache_.find(key);
  if (it == prob_cache_.end()) {
    auto prob = munich_.MatchProbability((*ctx_->samples)[qi],
                                         (*ctx_->samples)[ci], epsilon,
                                         PairSeed(*ctx_, qi, ci));
    if (!prob.ok()) return prob.status();
    it = prob_cache_.emplace(key, prob.ValueOrDie()).first;
  }
  return it->second;
}

Result<bool> MunichMatcher::Matches(std::size_t qi, std::size_t ci,
                                    double epsilon) {
  auto prob = ProbabilityFor(qi, ci, epsilon);
  if (!prob.ok()) return prob.status();
  return prob.ValueOrDie() >= munich_.options().tau;
}

Result<std::vector<std::size_t>> MunichMatcher::Retrieve(std::size_t qi,
                                                         std::size_t n,
                                                         double epsilon) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "MUNICH"));
  if (engine_ == nullptr || n != engine_->size()) {
    return Matcher::Retrieve(qi, n, epsilon);
  }
  std::uint64_t eps_bits;
  static_assert(sizeof(eps_bits) == sizeof(epsilon));
  std::memcpy(&eps_bits, &epsilon, sizeof(eps_bits));
  const double tau = munich_.options().tau;
  bool all_cached = true;
  for (std::size_t ci = 0; ci < n && all_cached; ++ci) {
    if (ci == qi) continue;
    all_cached = prob_cache_.count({qi, ci, eps_bits}) != 0;
  }
  std::vector<std::size_t> matches;
  if (!all_cached) {
    // One parallel estimator sweep fills the whole row of the τ-sweep
    // cache; per-pair counter seeds make it bit-identical to the
    // sequential Matches loop. Threshold the fresh row directly — cached
    // entries (emplace never overwrites) hold the same pure-function
    // values the sweep just recomputed.
    auto probs = engine_->MunichMatchProbabilities(qi, epsilon);
    if (!probs.ok()) return probs.status();
    const std::vector<double>& p = probs.ValueOrDie();
    for (std::size_t ci = 0; ci < n; ++ci) {
      if (ci == qi) continue;
      prob_cache_.emplace(std::make_tuple(qi, ci, eps_bits), p[ci]);
      if (p[ci] >= tau) matches.push_back(ci);
    }
    return matches;
  }
  for (std::size_t ci = 0; ci < n; ++ci) {
    if (ci == qi) continue;
    if (prob_cache_.at({qi, ci, eps_bits}) >= tau) matches.push_back(ci);
  }
  return matches;
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

Result<bool> MunichDtwMatcher::Matches(std::size_t qi, std::size_t ci,
                                       double epsilon) {
  UTS_RETURN_NOT_OK(RequireBound(ctx_, "MUNICH-DTW"));
  const auto& x = (*ctx_->samples)[qi];
  const auto& y = (*ctx_->samples)[ci];
  // Bounds filter first (certain accept / certain reject), then Monte Carlo.
  const measures::DistanceBounds bounds =
      measures::Munich::DtwBounds(x, y, dtw_options_);
  if (bounds.upper <= epsilon) return true;
  if (bounds.lower > epsilon) return false;
  const double p = measures::Munich::MonteCarloDtwMatchProbability(
      x, y, epsilon, options_.mc_samples, PairSeed(*ctx_, qi, ci),
      dtw_options_);
  return p >= options_.tau;
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
