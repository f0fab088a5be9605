#include "ts/dataset.hpp"

#include <algorithm>
#include <cmath>

#include "prob/stats.hpp"
#include "ts/normalize.hpp"

namespace uts::ts {

bool Dataset::HasUniformLength() const {
  if (series_.empty()) return true;
  const std::size_t n = series_.front().size();
  return std::all_of(series_.begin(), series_.end(),
                     [n](const TimeSeries& s) { return s.size() == n; });
}

std::map<int, std::size_t> Dataset::ClassHistogram() const {
  std::map<int, std::size_t> hist;
  for (const auto& s : series_) ++hist[s.label()];
  return hist;
}

DatasetInfo Dataset::Summarize(std::size_t pairwise_sample_limit) const {
  DatasetInfo info;
  info.name = name_;
  info.num_series = series_.size();
  if (series_.empty()) return info;

  prob::RunningStats lengths;
  for (const auto& s : series_) lengths.Add(static_cast<double>(s.size()));
  info.min_length = static_cast<std::size_t>(lengths.Min());
  info.max_length = static_cast<std::size_t>(lengths.Max());
  info.avg_length = lengths.Mean();
  info.num_classes = ClassHistogram().size();

  // Mean pairwise Euclidean distance over a (possibly capped) prefix.
  std::size_t limit = pairwise_sample_limit == 0
                          ? series_.size()
                          : std::min(pairwise_sample_limit, series_.size());
  prob::RunningStats dist_stats;
  for (std::size_t i = 0; i < limit; ++i) {
    for (std::size_t j = i + 1; j < limit; ++j) {
      const auto& a = series_[i];
      const auto& b = series_[j];
      const std::size_t n = std::min(a.size(), b.size());
      double sum = 0.0;
      for (std::size_t t = 0; t < n; ++t) {
        const double d = a[t] - b[t];
        sum += d * d;
      }
      dist_stats.Add(std::sqrt(sum));
    }
  }
  info.avg_pairwise_distance = dist_stats.Mean();
  return info;
}

Result<Dataset> Dataset::Truncated(std::size_t count,
                                   std::size_t length) const {
  if (count > series_.size()) {
    return Status::InvalidArgument("dataset has fewer series than requested");
  }
  if (length == 0) return Status::InvalidArgument("length must be >= 1");
  Dataset out(name_ + "-truncated");
  for (std::size_t i = 0; i < count; ++i) {
    const auto& s = series_[i];
    if (s.size() < length) {
      return Status::InvalidArgument("series shorter than requested length");
    }
    std::vector<double> values(s.values().begin(),
                               s.values().begin() + static_cast<long>(length));
    out.Add(TimeSeries(std::move(values), s.label(), s.id()));
  }
  return out;
}

Dataset Dataset::ZNormalizedCopy() const {
  Dataset out(name_);
  for (const auto& s : series_) out.Add(ZNormalized(s));
  return out;
}

Dataset Dataset::Merge(std::string name, const Dataset& a, const Dataset& b) {
  Dataset out(std::move(name));
  for (const auto& s : a) out.Add(s);
  for (const auto& s : b) out.Add(s);
  return out;
}

}  // namespace uts::ts
