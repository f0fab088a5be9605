/// \file uncertain_series.hpp
/// \brief The two uncertainty models evaluated in the paper (Section 2).
///
/// "Two main approaches have emerged for modeling uncertain time series. In
/// the first, a probability density function over the uncertain values is
/// estimated by using some a priori knowledge. In the second, the uncertain
/// data distribution is summarized by repeated measurements."
///
///  * `UncertainSeries`   — pdf model: one observation per timestamp plus a
///    per-timestamp error distribution (what PROUD, DUST, UMA and UEMA see).
///  * `MultiSampleSeries` — sample model: s repeated observations per
///    timestamp (what MUNICH sees).

#ifndef UTS_UNCERTAIN_UNCERTAIN_SERIES_HPP_
#define UTS_UNCERTAIN_UNCERTAIN_SERIES_HPP_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "prob/distribution.hpp"
#include "ts/time_series.hpp"

namespace uts::uncertain {

/// \brief PDF-modeled uncertain series: observation + error model per point.
///
/// The stored error distributions are the *reported* ones — the information
/// the similarity techniques are given. Under the paper's misreporting
/// experiments (Figure 10) these deliberately differ from the distributions
/// that actually generated the observations.
class UncertainSeries {
 public:
  UncertainSeries() = default;

  /// Construct from observations and matching per-point error models.
  UncertainSeries(std::vector<double> observations,
                  std::vector<prob::ErrorDistributionPtr> errors,
                  int label = ts::TimeSeries::kNoLabel, std::string id = {})
      : observations_(std::move(observations)),
        errors_(std::move(errors)),
        label_(label),
        id_(std::move(id)) {
    assert(observations_.size() == errors_.size());
  }

  /// Number of timestamps.
  std::size_t size() const { return observations_.size(); }

  /// True iff the series has no points.
  bool empty() const { return observations_.empty(); }

  /// Observed value at timestamp i.
  double observation(std::size_t i) const {
    assert(i < observations_.size());
    return observations_[i];
  }

  /// All observations, viewed as a certain series (the "just use a single
  /// value for every timestamp" Euclidean baseline of Section 4.1.2).
  const std::vector<double>& observations() const { return observations_; }

  /// Reported error model at timestamp i.
  const prob::ErrorDistributionPtr& error(std::size_t i) const {
    assert(i < errors_.size());
    return errors_[i];
  }

  /// Reported error standard deviation at timestamp i.
  double stddev(std::size_t i) const { return error(i)->stddev(); }

  /// Materialize all reported standard deviations (UMA/UEMA input).
  std::vector<double> Stddevs() const;

  /// The observations as a labeled TimeSeries.
  ts::TimeSeries AsTimeSeries() const {
    return ts::TimeSeries(observations_, label_, id_);
  }

  /// Class label.
  int label() const { return label_; }

  /// Identifier.
  const std::string& id() const { return id_; }

 private:
  std::vector<double> observations_;
  std::vector<prob::ErrorDistributionPtr> errors_;
  int label_ = ts::TimeSeries::kNoLabel;
  std::string id_;
};

/// \brief Sample-modeled uncertain series: repeated observations per point.
///
/// "In [MUNICH], uncertainty is modeled by means of repeated observations at
/// each timestamp" (Section 2.1).
class MultiSampleSeries {
 public:
  MultiSampleSeries() = default;

  /// Construct from per-timestamp sample sets.
  explicit MultiSampleSeries(std::vector<std::vector<double>> samples,
                             int label = ts::TimeSeries::kNoLabel,
                             std::string id = {})
      : samples_(std::move(samples)), label_(label), id_(std::move(id)) {}

  /// Number of timestamps.
  std::size_t size() const { return samples_.size(); }

  /// True iff the series has no points.
  bool empty() const { return samples_.empty(); }

  /// Samples observed at timestamp i.
  const std::vector<double>& samples(std::size_t i) const {
    assert(i < samples_.size());
    return samples_[i];
  }

  /// Number of samples at timestamp i.
  std::size_t num_samples(std::size_t i) const { return samples(i).size(); }

  /// Per-timestamp sample mean, as a certain series.
  ts::TimeSeries SampleMeans() const;

  /// Minimum bounding interval [min, max] of the samples at timestamp i —
  /// the summarization MUNICH uses for its distance bounds.
  std::pair<double, double> BoundingInterval(std::size_t i) const;

  /// Class label.
  int label() const { return label_; }

  /// Identifier.
  const std::string& id() const { return id_; }

 private:
  std::vector<std::vector<double>> samples_;
  int label_ = ts::TimeSeries::kNoLabel;
  std::string id_;
};

/// \brief A named collection of pdf-modeled uncertain series.
struct UncertainDataset {
  std::string name;
  std::vector<UncertainSeries> series;

  std::size_t size() const { return series.size(); }
  const UncertainSeries& operator[](std::size_t i) const {
    assert(i < series.size());
    return series[i];
  }
};

/// \brief A pdf-model dataset in flat form: every observation in one
/// row-major buffer and one error-class id per point, over a small table of
/// the distinct reported models.
///
/// This is the form the query engine adopts (UncertainEngine::Create) and
/// the evaluation runner perturbs into (PerturbDatasetPacked), so neither
/// builds, hashes or frees a model reference per point. Class c is
/// `classes[c]`; classes are distinct by `Key()` and numbered in the order
/// they first occur, row-major, which is the numbering the engine gives the
/// object form of the same data. Labels and ids are not kept.
struct UncertainPack {
  std::size_t rows = 0;    ///< Number of series.
  std::size_t length = 0;  ///< Points per series.
  std::vector<double> observations;      ///< rows × length, row-major.
  std::vector<std::uint16_t> class_ids;  ///< rows × length, into classes.
  std::vector<prob::ErrorDistributionPtr> classes;  ///< Reported models.
};

/// \brief A named collection of sample-modeled uncertain series.
struct MultiSampleDataset {
  std::string name;
  std::vector<MultiSampleSeries> series;

  std::size_t size() const { return series.size(); }
  const MultiSampleSeries& operator[](std::size_t i) const {
    assert(i < series.size());
    return series[i];
  }
};

}  // namespace uts::uncertain

#endif  // UTS_UNCERTAIN_UNCERTAIN_SERIES_HPP_
