/// \file matchers.hpp
/// \brief The concrete matchers evaluated in the paper.
///
/// | Matcher                | Paper section | Space of ε            |
/// |------------------------|---------------|-----------------------|
/// | EuclideanMatcher       | 4.1.2         | Euclidean on obs      |
/// | ProudMatcher           | 2.2           | Euclidean on obs (+τ) |
/// | ProudSynopsisMatcherA  | 4.3           | Euclidean on obs (+τ) |
/// | DustMatcher            | 2.3           | DUST                  |
/// | DustDtwMatcher         | 3.2           | DUST-DTW              |
/// | MunichMatcher          | 2.1           | Euclidean on obs (+τ) |
/// | MunichDtwMatcher       | 2.1/3.2       | DTW on obs (+τ)       |
/// | MovingAverageMatcher   | 5 (MA/EMA)    | Euclidean on filtered |
/// | UmaMatcher             | 5 (Eq. 17)    | Euclidean on filtered |
/// | UemaMatcher            | 5 (Eq. 18)    | Euclidean on filtered |
///
/// Every matcher binds to the run's query::EngineContext and reads the
/// bound data from it. The four engine matchers (Euclidean, PROUD, DUST,
/// MUNICH) acquire the context's one shared query::UncertainEngine at Bind
/// and retrieve only through it, so a run packs its observations once and
/// scores every technique with the same kernels. Calibration keeps the
/// kernels it has always used: the engine's for Euclidean and DUST, the
/// scalar Euclidean distance on the observations for PROUD and MUNICH. The
/// per-pair `Matches` of PROUD and MUNICH run the scalar measures, which
/// the engine sweeps equal bit for bit.

#ifndef UTS_CORE_MATCHERS_HPP_
#define UTS_CORE_MATCHERS_HPP_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/similarity.hpp"
#include "distance/dtw.hpp"
#include "measures/dust.hpp"
#include "measures/munich.hpp"
#include "measures/proud.hpp"
#include "query/uncertain_engine.hpp"
#include "ts/filters.hpp"
#include "ts/smoother.hpp"
#include "uncertain/uncertain_series.hpp"
#include "wavelet/proud_synopsis.hpp"

namespace uts::core {

/// \brief Baseline: Euclidean distance on the raw observations.
///
/// On the run's shared engine, calibration (and so `Matches`) and
/// `Retrieve` score through one kernel, so the calibration candidate always
/// lands exactly on the ε boundary.
class EuclideanMatcher final : public Matcher {
 public:
  std::string name() const override { return "Euclidean"; }
  Status Bind(query::EngineContext& engines) override;
  Result<double> CalibrationDistance(std::size_t qi, std::size_t ci) override;
  Result<bool> Matches(std::size_t qi, std::size_t ci,
                       double epsilon) override;
  /// Range scan on the run's shared UncertainEngine (bit-identical to the
  /// Matches loop over the same engine at any thread count).
  Result<std::vector<std::size_t>> Retrieve(std::size_t qi, std::size_t n,
                                            double epsilon) override;

 private:
  /// Borrowed view of the context's shared engine; null until Bind.
  query::UncertainEngine* engine_ = nullptr;
};

/// \brief PROUD with the paper's constant-σ model, told the run's σ
/// (`EngineContext::proud_sigma`).
///
/// A τ outside (0, 1), NaN included, fails `Bind`; set after Bind, it makes
/// every later decision (`Matches`, `Retrieve`) return the error until a
/// valid τ is set. `RetrieveEachTau` fails at any such τ of its list.
class ProudMatcher final : public Matcher {
 public:
  /// \param tau probability threshold τ
  explicit ProudMatcher(double tau = 0.9) : tau_(tau) {}

  std::string name() const override { return "PROUD"; }
  Status Bind(query::EngineContext& engines) override;
  Result<double> CalibrationDistance(std::size_t qi, std::size_t ci) override;
  Result<bool> Matches(std::size_t qi, std::size_t ci,
                       double epsilon) override;
  /// Batched ε_norm sweep on the run's shared UncertainEngine
  /// (bit-identical to the sequential Matches loop at any thread count).
  Result<std::vector<std::size_t>> Retrieve(std::size_t qi, std::size_t n,
                                            double epsilon) override;
  /// One moment pass on the shared engine decides every τ (bit-identical
  /// to a Retrieve per τ).
  Result<std::vector<std::vector<std::size_t>>> RetrieveEachTau(
      std::size_t qi, std::size_t n, double epsilon,
      std::span<const double> taus) override;
  bool has_tau() const override { return true; }
  double tau() const override { return tau_; }
  void set_tau(double tau) override;

 private:
  double tau_;
  std::unique_ptr<measures::Proud> proud_;
  const uncertain::UncertainDataset* pdf_ = nullptr;  ///< Bound; borrowed.
  /// Borrowed view of the context's shared engine; null until Bind.
  query::UncertainEngine* engine_ = nullptr;
};

/// \brief PROUD accelerated by the Haar-synopsis filter (Section 4.3),
/// told the run's σ like ProudMatcher.
///
/// The prune is only sound for τ >= 0.5. A τ outside [0.5, 1) fails `Bind`;
/// set after Bind, it makes every later decision (`Matches`, `Retrieve`)
/// return the error until a valid τ is set. `RetrieveEachTau` fails at the
/// first such τ of its list.
class ProudSynopsisMatcherAdapter final : public Matcher {
 public:
  explicit ProudSynopsisMatcherAdapter(double tau = 0.9,
                                       std::size_t synopsis_size = 16)
      : tau_(tau), synopsis_size_(synopsis_size) {}

  std::string name() const override { return "PROUD-wavelet"; }
  Status Bind(query::EngineContext& engines) override;
  Result<double> CalibrationDistance(std::size_t qi, std::size_t ci) override;
  Result<bool> Matches(std::size_t qi, std::size_t ci,
                       double epsilon) override;
  /// A synopsis matcher per τ decides that τ's candidates; `tau()` and the
  /// matcher of `set_tau` are never touched.
  Result<std::vector<std::vector<std::size_t>>> RetrieveEachTau(
      std::size_t qi, std::size_t n, double epsilon,
      std::span<const double> taus) override;
  bool has_tau() const override { return true; }
  double tau() const override { return tau_; }
  void set_tau(double tau) override;

 private:
  /// The synopsis matcher deciding at `tau` under the bound σ, or
  /// InvalidArgument outside [0.5, 1).
  Result<wavelet::ProudSynopsisMatcher> MatcherAt(double tau) const;

  /// `matcher`'s decision for the bound pair (qi, ci).
  Result<bool> Decide(const wavelet::ProudSynopsisMatcher& matcher,
                      std::size_t qi, std::size_t ci, double epsilon) const;

  double tau_;
  std::size_t synopsis_size_;
  double sigma_ = 1.0;  ///< σ told to PROUD, read at Bind.
  /// The matcher at `tau_`, or why there is none.
  Result<wavelet::ProudSynopsisMatcher> matcher_ =
      Status::InvalidArgument("PROUD-wavelet matcher is not bound");
  std::vector<wavelet::HaarSynopsis> synopses_;
  const uncertain::UncertainDataset* pdf_ = nullptr;  ///< Bound; borrowed.
};

/// \brief DUST distance matcher, on the lookup tables of the run's shared
/// engine (built with the default measures::DustOptions).
class DustMatcher final : public Matcher {
 public:
  std::string name() const override { return "DUST"; }
  Status Bind(query::EngineContext& engines) override;
  Result<double> CalibrationDistance(std::size_t qi, std::size_t ci) override;
  Result<bool> Matches(std::size_t qi, std::size_t ci,
                       double epsilon) override;
  /// Batched DUST range sweep on the run's shared UncertainEngine
  /// (bit-identical to the sequential Matches loop at any thread count).
  Result<std::vector<std::size_t>> Retrieve(std::size_t qi, std::size_t n,
                                            double epsilon) override;

 private:
  /// Borrowed view of the context's shared engine; null until Bind.
  query::UncertainEngine* engine_ = nullptr;
};

/// \brief DUST with DTW alignment (Section 3.2).
class DustDtwMatcher final : public Matcher {
 public:
  explicit DustDtwMatcher(measures::DustOptions options = {},
                          distance::DtwOptions dtw_options = {})
      : dust_(options), dtw_options_(dtw_options) {}

  std::string name() const override { return "DUST-DTW"; }
  Status Bind(query::EngineContext& engines) override;
  Result<double> CalibrationDistance(std::size_t qi, std::size_t ci) override;
  Result<bool> Matches(std::size_t qi, std::size_t ci,
                       double epsilon) override;

 private:
  measures::Dust dust_;
  distance::DtwOptions dtw_options_;
  const uncertain::UncertainDataset* pdf_ = nullptr;  ///< Bound; borrowed.
};

/// \brief MUNICH over the repeated-observations model (Euclidean flavor).
///
/// Match probabilities are cached in one row per query, at that query's
/// latest ε. Within a τ search (`SweepTau`), `RetrieveEachTau` estimates
/// each row once and thresholds it per τ. The rows also survive a re-bind
/// to identical data, so the final run at the tuned τ reuses the
/// probabilities the tune run computed instead of re-running the
/// exact/Monte-Carlo estimator. They reset at a Bind to data whose
/// `EngineContext::data_fingerprint` differs (any changed observation,
/// error model, sample, seed or σ). Only query `qi`'s calls touch row `qi`,
/// so distinct queries may run concurrently.
class MunichMatcher final : public Matcher {
 public:
  explicit MunichMatcher(measures::MunichOptions options = {})
      : munich_(options) {}

  std::string name() const override { return "MUNICH"; }
  Status Bind(query::EngineContext& engines) override;
  Result<double> CalibrationDistance(std::size_t qi, std::size_t ci) override;
  Result<bool> Matches(std::size_t qi, std::size_t ci,
                       double epsilon) override;
  /// Batched estimator sweep on the run's shared UncertainEngine. Per-pair
  /// Monte Carlo streams are counter-seeded exactly like `Matches`, so
  /// results are bit-identical at any thread count; computed probabilities
  /// land in the query's row, which `Matches` uses too.
  Result<std::vector<std::size_t>> Retrieve(std::size_t qi, std::size_t n,
                                            double epsilon) override;
  /// One probability row, thresholded at every τ.
  Result<std::vector<std::vector<std::size_t>>> RetrieveEachTau(
      std::size_t qi, std::size_t n, double epsilon,
      std::span<const double> taus) override;
  bool has_tau() const override { return true; }
  double tau() const override { return munich_.options().tau; }
  void set_tau(double tau) override;

 private:
  /// Query `qi`'s cached probabilities at `epsilon`; NaN marks a candidate
  /// not estimated yet.
  struct Row {
    std::uint64_t epsilon_bits = 0;
    std::vector<double> probabilities;
  };

  /// Row `qi` keyed to `epsilon` (emptied when its ε differs); `qi` must
  /// be a bound series.
  Row& RowAt(std::size_t qi, double epsilon);

  /// Probabilities of every bound candidate of `qi` (self slot unused).
  Result<const std::vector<double>*> Probabilities(std::size_t qi,
                                                   std::size_t n,
                                                   double epsilon);

  measures::Munich munich_;
  const uncertain::UncertainDataset* pdf_ = nullptr;  ///< Bound; borrowed.
  const uncertain::MultiSampleDataset* samples_ = nullptr;  ///< Bound.
  std::uint64_t seed_ = 0;  ///< The bound run's seed.
  /// Borrowed view of the context's shared engine; null until Bind.
  query::UncertainEngine* engine_ = nullptr;
  std::uint64_t bound_fingerprint_ = 0;
  std::vector<Row> rows_;  ///< One per series, sized at Bind.
};

/// \brief MUNICH with DTW distances over materializations.
class MunichDtwMatcher final : public Matcher {
 public:
  explicit MunichDtwMatcher(measures::MunichOptions options = {},
                            distance::DtwOptions dtw_options = {})
      : options_(options), dtw_options_(dtw_options) {}

  std::string name() const override { return "MUNICH-DTW"; }
  Status Bind(query::EngineContext& engines) override;
  Result<double> CalibrationDistance(std::size_t qi, std::size_t ci) override;
  Result<bool> Matches(std::size_t qi, std::size_t ci,
                       double epsilon) override;
  /// One bounds check (and Monte Carlo estimate) per candidate decides
  /// every τ.
  Result<std::vector<std::vector<std::size_t>>> RetrieveEachTau(
      std::size_t qi, std::size_t n, double epsilon,
      std::span<const double> taus) override;
  bool has_tau() const override { return true; }
  double tau() const override { return options_.tau; }
  void set_tau(double tau) override { options_.tau = tau; }

 private:
  /// The τ-independent outcome for one pair: a certain accept or reject
  /// from the DTW bounds filter, else the Monte Carlo probability.
  struct Verdict {
    std::optional<bool> certain;
    double probability = 0.0;
    bool At(double tau) const {
      return certain.has_value() ? *certain : probability >= tau;
    }
  };
  Result<Verdict> Score(std::size_t qi, std::size_t ci, double epsilon) const;

  measures::MunichOptions options_;
  distance::DtwOptions dtw_options_;
  const uncertain::UncertainDataset* pdf_ = nullptr;  ///< Bound; borrowed.
  const uncertain::MultiSampleDataset* samples_ = nullptr;  ///< Bound.
  std::uint64_t seed_ = 0;  ///< The bound run's seed.
};

/// \brief Which moving-average filter a filtered matcher applies.
enum class FilterKind {
  kMovingAverage,             ///< Eq. 15 (no uncertainty information)
  kExponentialMovingAverage,  ///< Eq. 16
  kUma,                       ///< Eq. 17
  kUema,                      ///< Eq. 18
};

/// \brief Euclidean distance over filtered observations — the UMA/UEMA
/// measures of Section 5 plus their non-uncertain MA/EMA ablations.
class FilteredMatcher final : public Matcher {
 public:
  FilteredMatcher(FilterKind kind, ts::FilterOptions options);

  std::string name() const override;
  Status Bind(query::EngineContext& engines) override;
  Result<double> CalibrationDistance(std::size_t qi, std::size_t ci) override;
  Result<bool> Matches(std::size_t qi, std::size_t ci,
                       double epsilon) override;

 private:
  FilterKind kind_;
  ts::FilterOptions options_;
  std::vector<std::vector<double>> filtered_;
  const uncertain::UncertainDataset* pdf_ = nullptr;  ///< Bound; borrowed.
};

/// \brief Plain DTW over the raw observations (the certain-series DTW that
/// MUNICH-DTW and DUST-DTW are compared against, Section 3.2).
class DtwMatcher final : public Matcher {
 public:
  explicit DtwMatcher(distance::DtwOptions options = {})
      : options_(options) {}

  std::string name() const override;
  Status Bind(query::EngineContext& engines) override;
  Result<double> CalibrationDistance(std::size_t qi, std::size_t ci) override;
  Result<bool> Matches(std::size_t qi, std::size_t ci,
                       double epsilon) override;

 private:
  distance::DtwOptions options_;
  const uncertain::UncertainDataset* pdf_ = nullptr;  ///< Bound; borrowed.
};

/// \brief Correlation-aware measure: Euclidean over AR(1) Kalman/RTS
/// smoothed observations — the library's instantiation of the paper's
/// future-work direction ("take into account the sequential correlations",
/// Section 7). Uses exactly the information UMA/UEMA use (observations +
/// reported per-point σ) plus a ρ estimated per series.
class Ar1SmootherMatcher final : public Matcher {
 public:
  explicit Ar1SmootherMatcher(ts::Ar1SmootherOptions options = {})
      : options_(options) {}

  std::string name() const override;
  Status Bind(query::EngineContext& engines) override;
  Result<double> CalibrationDistance(std::size_t qi, std::size_t ci) override;
  Result<bool> Matches(std::size_t qi, std::size_t ci,
                       double epsilon) override;

 private:
  ts::Ar1SmootherOptions options_;
  std::vector<std::vector<double>> smoothed_;
  const uncertain::UncertainDataset* pdf_ = nullptr;  ///< Bound; borrowed.
};

/// \name Factory helpers with the paper's default parameters
/// "we assume a decaying factor of λ = 1 for UEMA, and a moving average
/// window length W = 5 (i.e., w = 2) for both UMA and UEMA" (Section 5.2).
/// \{
std::unique_ptr<FilteredMatcher> MakeUmaMatcher(std::size_t half_window = 2);
std::unique_ptr<FilteredMatcher> MakeUemaMatcher(std::size_t half_window = 2,
                                                 double lambda = 1.0);
std::unique_ptr<FilteredMatcher> MakeMovingAverageMatcher(
    std::size_t half_window = 2);
std::unique_ptr<FilteredMatcher> MakeExponentialMovingAverageMatcher(
    std::size_t half_window = 2, double lambda = 1.0);
/// \}

}  // namespace uts::core

#endif  // UTS_CORE_MATCHERS_HPP_
