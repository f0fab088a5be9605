#include "uncertain/perturb.hpp"

#include <cassert>
#include <map>
#include <span>
#include <string>

#include "exec/parallel_for.hpp"

namespace uts::uncertain {

namespace {

/// Series per pool task: enough work per chunk to amortize the submission,
/// enough chunks to keep every worker busy on the paper's datasets.
constexpr std::size_t kSeriesPerChunk = 16;

/// A dataset named like `exact` whose series i is `perturb_one(i)`, filled
/// on the pool (inline without one); each call writes only its own slot.
template <typename Dataset, typename PerturbOne>
Dataset PerturbEach(const ts::Dataset& exact, exec::ThreadPool* pool,
                    const PerturbOne& perturb_one) {
  Dataset out;
  out.name = exact.name();
  out.series.resize(exact.size());
  exec::ParallelFor(pool, exact.size(), kSeriesPerChunk,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        out.series[i] = perturb_one(i);
                      }
                    });
  return out;
}

/// The perturbation core of one series: the model of every point into
/// `model_of` (an index into `models`), then `draws` observations per point,
/// point-major, each handed to `emit(point, value)`. Separate streams for
/// assignment and sampling keep observation noise independent of which
/// positions drew the high σ.
template <typename Emit>
void PerturbPoints(const ts::TimeSeries& exact, const ErrorSpec& spec,
                   const ErrorModels& models, std::uint64_t seed,
                   std::size_t draws, std::span<std::uint8_t> model_of,
                   const Emit& emit) {
  spec.AssignModels(prob::DeriveSeed(seed, 1), model_of);
  prob::Rng rng(prob::DeriveSeed(seed, 2));
  for (std::size_t i = 0; i < model_of.size(); ++i) {
    const prob::ErrorDistribution& actual = *models.actual[model_of[i]];
    for (std::size_t d = 0; d < draws; ++d) {
      emit(i, exact[i] + actual.Sample(rng));
    }
  }
}

}  // namespace

UncertainSeries PerturbSeries(const ts::TimeSeries& exact,
                              const ErrorSpec& spec, std::uint64_t seed) {
  const ErrorModels models = spec.Models();
  const std::size_t n = exact.size();
  std::vector<std::uint8_t> model_of(n);
  std::vector<double> observations(n);
  PerturbPoints(exact, spec, models, seed, 1, model_of,
                [&](std::size_t i, double v) { observations[i] = v; });
  std::vector<prob::ErrorDistributionPtr> reported;
  reported.reserve(n);
  for (const std::uint8_t m : model_of) reported.push_back(models.reported[m]);
  return UncertainSeries(std::move(observations), std::move(reported),
                         exact.label(), exact.id());
}

MultiSampleSeries PerturbMultiSample(const ts::TimeSeries& exact,
                                     const ErrorSpec& spec,
                                     std::size_t samples_per_point,
                                     std::uint64_t seed) {
  assert(samples_per_point >= 1);
  const std::size_t n = exact.size();
  std::vector<std::uint8_t> model_of(n);
  std::vector<std::vector<double>> samples(n);
  for (auto& point : samples) point.reserve(samples_per_point);
  PerturbPoints(exact, spec, spec.Models(), seed, samples_per_point, model_of,
                [&](std::size_t i, double v) { samples[i].push_back(v); });
  return MultiSampleSeries(std::move(samples), exact.label(), exact.id());
}

UncertainDataset PerturbDataset(const ts::Dataset& exact,
                                const ErrorSpec& spec, std::uint64_t seed,
                                exec::ThreadPool* pool) {
  // Models per series: a series' points share its model objects, and no
  // two workers count references on one object.
  return PerturbEach<UncertainDataset>(exact, pool, [&](std::size_t i) {
    return PerturbSeries(exact[i], spec, prob::DeriveSeed(seed, i));
  });
}

Result<UncertainPack> PerturbDatasetPacked(const ts::Dataset& exact,
                                           const ErrorSpec& spec,
                                           std::uint64_t seed,
                                           exec::ThreadPool* pool) {
  if (!exact.HasUniformLength()) {
    return Status::InvalidArgument(
        "a packed perturbation needs series of one length");
  }
  UncertainPack pack;
  pack.rows = exact.size();
  pack.length = pack.rows == 0 ? 0 : exact[0].size();
  const std::size_t len = pack.length;
  const ErrorModels models = spec.Models();
  std::vector<std::uint8_t> model_of(pack.rows * len);
  pack.observations.resize(pack.rows * len);
  exec::ParallelFor(
      pool, pack.rows, kSeriesPerChunk,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          double* row = pack.observations.data() + i * len;
          PerturbPoints(exact[i], spec, models, prob::DeriveSeed(seed, i), 1,
                        std::span(model_of).subspan(i * len, len),
                        [row](std::size_t t, double v) { row[t] = v; });
        }
      });

  // Classes are the reported models by Key(), numbered as they first occur
  // row-major; the scan stops once every model has a class.
  std::vector<std::uint16_t> class_of(models.size());
  std::vector<bool> seen(models.size(), false);
  std::map<std::string, std::uint16_t> class_of_key;
  std::size_t unseen = models.size();
  for (std::size_t p = 0; p < model_of.size() && unseen > 0; ++p) {
    const std::uint8_t m = model_of[p];
    if (seen[m]) continue;
    const prob::ErrorDistributionPtr& reported = models.reported[m];
    const auto [it, inserted] = class_of_key.emplace(
        reported->Key(), static_cast<std::uint16_t>(pack.classes.size()));
    if (inserted) pack.classes.push_back(reported);
    class_of[m] = it->second;
    seen[m] = true;
    --unseen;
  }
  pack.class_ids.resize(model_of.size());
  exec::ParallelFor(pool, pack.rows, kSeriesPerChunk,
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t p = begin * len; p < end * len; ++p) {
                        pack.class_ids[p] = class_of[model_of[p]];
                      }
                    });
  return pack;
}

MultiSampleDataset PerturbDatasetMultiSample(const ts::Dataset& exact,
                                             const ErrorSpec& spec,
                                             std::size_t samples_per_point,
                                             std::uint64_t seed,
                                             exec::ThreadPool* pool) {
  return PerturbEach<MultiSampleDataset>(exact, pool, [&](std::size_t i) {
    return PerturbMultiSample(exact[i], spec, samples_per_point,
                              prob::DeriveSeed(seed, i));
  });
}

}  // namespace uts::uncertain
