#include "measures/dust.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "prob/integrate.hpp"
#include "prob/special.hpp"

namespace uts::measures {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Integration interval of the posterior-overlap integrand for a given Δ.
/// Returns {lo, hi}; an empty interval (lo >= hi) means φ(Δ) = 0.
///
/// The v-support of f_x(v | 0)   is [-hi_x, -lo_x]   (p_ex(0 - v) > 0),
/// the v-support of f_y(v | Δ)   is [Δ-hi_y, Δ-lo_y] (p_ey(Δ - v) > 0);
/// infinite endpoints clamp to ±`sigmas`·σ around the respective centers.
std::pair<double, double> IntegrationBounds(const prob::ErrorDistribution& ex,
                                            const prob::ErrorDistribution& ey,
                                            double delta, double sigmas,
                                            double prior_half_range) {
  const double clamp_x = sigmas * std::max(ex.stddev(), 1e-6);
  const double clamp_y = sigmas * std::max(ey.stddev(), 1e-6);

  double lo_x = -ex.SupportHi();
  double hi_x = -ex.SupportLo();
  if (lo_x == -kInf) lo_x = -clamp_x;
  if (hi_x == kInf) hi_x = clamp_x;

  double lo_y = delta - ey.SupportHi();
  double hi_y = delta - ey.SupportLo();
  if (lo_y == -kInf) lo_y = delta - clamp_y;
  if (hi_y == kInf) hi_y = delta + clamp_y;

  double lo = std::max(lo_x, lo_y);
  double hi = std::min(hi_x, hi_y);
  if (prior_half_range > 0.0) {
    lo = std::max(lo, -prior_half_range);
    hi = std::min(hi, prior_half_range);
  }
  return {lo, hi};
}

/// Numeric φ(Δ) = ∫ p_ex(-v) · p_ey(Δ - v) dv over the overlap interval,
/// optionally normalized by a finite uniform value prior.
Result<double> PhiNumeric(const prob::ErrorDistribution& ex,
                          const prob::ErrorDistribution& ey, double delta,
                          const DustOptions& options) {
  // A point-mass error on one side collapses the integral to a pdf lookup.
  const bool x_degenerate = ex.kind() == prob::ErrorKind::kNone;
  const bool y_degenerate = ey.kind() == prob::ErrorKind::kNone;
  if (x_degenerate && y_degenerate) {
    return Status::InvalidArgument(
        "DUST is undefined when both points are error-free");
  }
  if (x_degenerate) return ey.Pdf(delta);
  if (y_degenerate) return ex.Pdf(-delta);

  const auto [lo, hi] = IntegrationBounds(ex, ey, delta,
                                          options.integration_sigmas,
                                          options.value_prior_half_range);
  if (!(hi > lo)) return 0.0;

  auto integrand = [&](double v) { return ex.Pdf(-v) * ey.Pdf(delta - v); };
  // Purely relative tolerance: deep in the Gaussian tails φ values reach
  // 1e-25 and below, and DUST takes their logarithm, so any fixed absolute
  // tolerance would let the integrator accept a crude first estimate there
  // and bias dust(Δ) at large Δ. The integrand is nonnegative, so relative
  // control cannot stall on cancellation.
  prob::IntegrateOptions iopts;
  iopts.abs_tolerance = 0.0;
  iopts.rel_tolerance = 1e-9;
  iopts.max_depth = 44;
  auto result = prob::IntegrateAdaptiveSimpson(integrand, lo, hi, iopts);
  double phi;
  if (result.ok()) {
    phi = result.ValueOrDie();
  } else {
    // Kinked integrands (mixtures) can exhaust the adaptive depth; the
    // fixed-cost composite rule is a reliable fallback at table precision.
    phi = prob::IntegrateSimpson(integrand, lo, hi, 4096);
  }

  if (options.value_prior_half_range > 0.0) {
    // Finite uniform prior: normalize each posterior over the prior range
    // (the table is built for points centered in the range; see header).
    const double r = options.value_prior_half_range;
    auto zx = prob::IntegrateAdaptiveSimpson(
        [&](double v) { return ex.Pdf(-v); }, -r, r, iopts);
    auto zy = prob::IntegrateAdaptiveSimpson(
        [&](double v) { return ey.Pdf(delta - v); }, -r, r, iopts);
    if (!zx.ok() || !zy.ok()) {
      return Status::NumericError("prior normalization failed to converge");
    }
    const double z = zx.ValueOrDie() * zy.ValueOrDie();
    if (z <= 0.0) return 0.0;
    phi /= z;
  }
  return std::max(phi, 0.0);
}

}  // namespace

Result<DustTable> DustTable::Build(const prob::ErrorDistribution& ex,
                                   const prob::ErrorDistribution& ey,
                                   const DustOptions& options) {
  if (options.table_size < 2) {
    return Status::InvalidArgument("dust table needs at least 2 cells");
  }
  if (!(options.table_delta_max > 0.0)) {
    return Status::InvalidArgument("table_delta_max must be positive");
  }
  if (!(options.phi_floor > 0.0)) {
    return Status::InvalidArgument("phi_floor must be positive");
  }

  DustTable table;
  table.delta_max_ = options.table_delta_max;
  table.step_ =
      options.table_delta_max / static_cast<double>(options.table_size - 1);

  if (options.use_closed_form_normal &&
      ex.kind() == prob::ErrorKind::kNormal &&
      ey.kind() == prob::ErrorKind::kNormal) {
    const double var_sum = ex.stddev() * ex.stddev() +
                           ey.stddev() * ey.stddev();
    table.closed_form_ = true;
    table.gaussian_scale_ = 1.0 / std::sqrt(2.0 * var_sum);
    table.phi0_ = prob::NormalPdf(0.0, 0.0, std::sqrt(var_sum));
    return table;
  }

  auto phi0 = PhiNumeric(ex, ey, 0.0, options);
  if (!phi0.ok()) return phi0.status();
  if (!(phi0.ValueOrDie() > 0.0)) {
    return Status::NumericError("phi(0) evaluated to zero; error models "
                                "have no posterior overlap at delta = 0");
  }
  table.phi0_ = phi0.ValueOrDie();
  const double log_phi0 = std::log(table.phi0_);

  table.dust_values_.resize(options.table_size);
  table.phi_values_.resize(options.table_size);
  for (std::size_t i = 0; i < options.table_size; ++i) {
    const double delta = static_cast<double>(i) * table.step_;
    auto phi = PhiNumeric(ex, ey, delta, options);
    if (!phi.ok()) return phi.status();
    const double phi_val = phi.ValueOrDie();
    table.phi_values_[i] = phi_val;
    const double floored = std::max(phi_val, options.phi_floor);
    // max(0, ...) guards the tiny-Δ case where integration noise could
    // produce φ(Δ) marginally above φ(0).
    table.dust_values_[i] =
        std::sqrt(std::max(0.0, log_phi0 - std::log(floored)));
  }
  return table;
}

double DustTable::Phi(double delta) const {
  delta = std::fabs(delta);
  if (closed_form_) {
    const double d = delta * gaussian_scale_;
    return phi0_ * std::exp(-d * d);
  }
  if (delta >= delta_max_) return phi_values_.back();
  const double pos = delta / step_;
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= phi_values_.size()) return phi_values_.back();
  return phi_values_[idx] * (1.0 - frac) + phi_values_[idx + 1] * frac;
}

Result<const DustTable*> Dust::TableFor(const prob::ErrorDistribution& ex,
                                        const prob::ErrorDistribution& ey) {
  // DUST evaluates φ at |x - y|, implicitly assuming a symmetric treatment
  // of the two points; we canonicalize the pair ordering so dust(x, y) and
  // dust(y, x) share one table even for asymmetric (exponential) errors.
  std::string kx = ex.Key();
  std::string ky = ey.Key();
  const bool swap = kx > ky;
  if (swap) std::swap(kx, ky);
  const auto key = std::make_pair(std::move(kx), std::move(ky));

  auto it = cache_.find(key);
  if (it == cache_.end()) {
    auto built = swap ? DustTable::Build(ey, ex, options_)
                      : DustTable::Build(ex, ey, options_);
    if (!built.ok()) return built.status();
    it = cache_
             .emplace(key, std::make_unique<DustTable>(
                               std::move(built).ValueOrDie()))
             .first;
  }
  return it->second.get();
}

Result<const DustTable*> Dust::TableForFast(
    const prob::ErrorDistributionPtr& ex,
    const prob::ErrorDistributionPtr& ey) {
  const auto key = std::make_pair(static_cast<const void*>(ex.get()),
                                  static_cast<const void*>(ey.get()));
  auto it = fast_cache_.find(key);
  if (it != fast_cache_.end()) return it->second;
  auto table = TableFor(*ex, *ey);
  if (!table.ok()) return table.status();
  pinned_.emplace(ex.get(), ex);
  pinned_.emplace(ey.get(), ey);
  fast_cache_.emplace(key, table.ValueOrDie());
  return table.ValueOrDie();
}

Result<const DustTable*> Dust::Table(const prob::ErrorDistributionPtr& ex,
                                     const prob::ErrorDistributionPtr& ey) {
  std::lock_guard<std::mutex> lock(mutex_);
  return TableForFast(ex, ey);
}

Result<const DustTable*> Dust::TableByKey(const prob::ErrorDistribution& ex,
                                          const prob::ErrorDistribution& ey) {
  std::lock_guard<std::mutex> lock(mutex_);
  return TableFor(ex, ey);
}

std::size_t Dust::CacheSize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

Result<double> Dust::PointDust(double x_obs,
                               const prob::ErrorDistribution& ex,
                               double y_obs,
                               const prob::ErrorDistribution& ey) {
  const DustTable* table = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    UTS_ASSIGN_OR_RETURN(table, TableFor(ex, ey));
  }
  return table->Dust(x_obs - y_obs);
}

Result<double> Dust::Distance(const uncertain::UncertainSeries& x,
                              const uncertain::UncertainSeries& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("series differ in length");
  }
  // Hot loop: consecutive points usually share their error models, so the
  // previous table is memoized ahead of the locked pointer-pair cache.
  const prob::ErrorDistribution* last_x = nullptr;
  const prob::ErrorDistribution* last_y = nullptr;
  const DustTable* table = nullptr;
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto& ex = x.error(i);
    const auto& ey = y.error(i);
    if (ex.get() != last_x || ey.get() != last_y) {
      UTS_ASSIGN_OR_RETURN(table, Table(ex, ey));
      last_x = ex.get();
      last_y = ey.get();
    }
    const double v = table->Dust(x.observation(i) - y.observation(i));
    sum += v * v;
  }
  return std::sqrt(sum);
}

Result<double> Dust::DtwDistance(const uncertain::UncertainSeries& x,
                                 const uncertain::UncertainSeries& y,
                                 const distance::DtwOptions& dtw_options) {
  if (x.empty() || y.empty()) {
    return Status::InvalidArgument("series must be non-empty");
  }
  // Pre-resolve per-pair tables so the DP inner loop cannot fail, with the
  // same previous-pair memo as Distance.
  const std::size_t n = x.size();
  const std::size_t m = y.size();
  std::vector<const DustTable*> row_tables(n * m);
  const prob::ErrorDistribution* last_x = nullptr;
  const prob::ErrorDistribution* last_y = nullptr;
  const DustTable* table = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto& ex = x.error(i);
      const auto& ey = y.error(j);
      if (ex.get() != last_x || ey.get() != last_y) {
        UTS_ASSIGN_OR_RETURN(table, Table(ex, ey));
        last_x = ex.get();
        last_y = ey.get();
      }
      row_tables[i * m + j] = table;
    }
  }
  const double total = distance::DtwGeneric(
      n, m,
      [&](std::size_t i, std::size_t j) {
        const double d = row_tables[i * m + j]->Dust(x.observation(i) -
                                                     y.observation(j));
        return d * d;
      },
      dtw_options);
  return std::sqrt(total);
}

}  // namespace uts::measures
