#include "uncertain/perturb.hpp"

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

}  // namespace

UncertainSeries PerturbSeries(const ts::TimeSeries& exact,
                              const ErrorSpec& spec, std::uint64_t seed) {
  const std::size_t n = exact.size();
  // Separate streams for assignment and sampling keep observation noise
  // independent of which positions drew the high σ.
  ErrorAssignment assignment = spec.Assign(n, prob::DeriveSeed(seed, 1));
  prob::Rng rng(prob::DeriveSeed(seed, 2));

  std::vector<double> observations(n);
  for (std::size_t i = 0; i < n; ++i) {
    observations[i] = exact[i] + assignment.actual[i]->Sample(rng);
  }
  return UncertainSeries(std::move(observations),
                         std::move(assignment.reported), exact.label(),
                         exact.id());
}

MultiSampleSeries PerturbMultiSample(const ts::TimeSeries& exact,
                                     const ErrorSpec& spec,
                                     std::size_t samples_per_point,
                                     std::uint64_t seed) {
  assert(samples_per_point >= 1);
  const std::size_t n = exact.size();
  ErrorAssignment assignment = spec.Assign(n, prob::DeriveSeed(seed, 1));
  prob::Rng rng(prob::DeriveSeed(seed, 2));

  std::vector<std::vector<double>> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples[i].reserve(samples_per_point);
    for (std::size_t s = 0; s < samples_per_point; ++s) {
      samples[i].push_back(exact[i] + assignment.actual[i]->Sample(rng));
    }
  }
  return MultiSampleSeries(std::move(samples), exact.label(), exact.id());
}

UncertainDataset PerturbDataset(const ts::Dataset& exact,
                                const ErrorSpec& spec, std::uint64_t seed,
                                exec::ThreadPool* pool) {
  return PerturbEach<UncertainDataset>(exact, pool, [&](std::size_t i) {
    return PerturbSeries(exact[i], spec, prob::DeriveSeed(seed, i));
  });
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
