/// \file dataset.hpp
/// \brief A named collection of labeled time series (a UCR-style dataset).
///
/// The paper joins the UCR training and testing splits: "The training and
/// testing sets were joined together, and we obtained on average 502 time
/// series of length 290 per dataset" (Section 4.1.1).

#ifndef UTS_TS_DATASET_HPP_
#define UTS_TS_DATASET_HPP_

#include <cassert>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "ts/time_series.hpp"

namespace uts::ts {

/// \brief Summary characteristics of a dataset.
struct DatasetInfo {
  std::string name;
  std::size_t num_series = 0;
  std::size_t min_length = 0;
  std::size_t max_length = 0;
  double avg_length = 0.0;
  std::size_t num_classes = 0;
  /// Mean pairwise Euclidean distance between (z-normalized) series; the
  /// paper's Section 6 links low values to low matching accuracy.
  double avg_pairwise_distance = 0.0;
};

/// \brief A named, ordered collection of time series.
///
/// A plain value type: copies and moves are member-wise, and no derived
/// state is cached. The query engines pack their own rows from a dataset
/// (query::DistanceMatrixEngine::Create), so mutating it afterwards never
/// affects a built engine.
class Dataset {
 public:
  Dataset() = default;

  /// Construct with a name and its member series.
  explicit Dataset(std::string name, std::vector<TimeSeries> series = {})
      : name_(std::move(name)), series_(std::move(series)) {}

  /// Dataset name, e.g. "GunPoint".
  const std::string& name() const { return name_; }

  /// Number of member series.
  std::size_t size() const { return series_.size(); }

  /// True iff the dataset is empty.
  bool empty() const { return series_.empty(); }

  /// Member series i; precondition i < size().
  const TimeSeries& operator[](std::size_t i) const {
    assert(i < series_.size());
    return series_[i];
  }
  /// Mutable member series i; precondition i < size().
  TimeSeries& operator[](std::size_t i) {
    assert(i < series_.size());
    return series_[i];
  }

  /// All member series.
  const std::vector<TimeSeries>& series() const { return series_; }

  /// Append a series.
  void Add(TimeSeries series) { series_.push_back(std::move(series)); }

  auto begin() const { return series_.begin(); }
  auto end() const { return series_.end(); }

  /// All values of all series have equal length.
  bool HasUniformLength() const;

  /// Distinct class labels and their member counts.
  std::map<int, std::size_t> ClassHistogram() const;

  /// Compute summary characteristics. `pairwise_sample_limit` caps the
  /// number of series used for the O(N²) mean pairwise distance (0 = all).
  DatasetInfo Summarize(std::size_t pairwise_sample_limit = 64) const;

  /// New dataset holding the first `count` series, each truncated to
  /// `length` points — the paper's Figure 4 setting ("truncating it to 60
  /// time series of length 6"). Fails if the dataset is smaller than
  /// requested.
  Result<Dataset> Truncated(std::size_t count, std::size_t length) const;

  /// New dataset with every series z-normalized.
  Dataset ZNormalizedCopy() const;

  /// Concatenation of two datasets (e.g. UCR train + test split).
  static Dataset Merge(std::string name, const Dataset& a, const Dataset& b);

 private:
  std::string name_;
  std::vector<TimeSeries> series_;
};

}  // namespace uts::ts

#endif  // UTS_TS_DATASET_HPP_
