/// \file perturb.hpp
/// \brief Turning exact series into uncertain series.
///
/// "Similarly to [5, 29, 23], we used existing time series datasets with
/// exact values as the ground truth, and subsequently introduced uncertainty
/// through perturbation" (Section 4.1.1). Perturbation is fully deterministic
/// given (series index, seed), so experiments are reproducible and every
/// technique sees exactly the same perturbed data.
///
/// The dataset calls can split their series over an `exec::ThreadPool`.
/// Series i always draws from its own seed DeriveSeed(seed, i) and writes
/// only output slot i, so the result is bitwise identical at every pool
/// width, and to the inline loop.

#ifndef UTS_UNCERTAIN_PERTURB_HPP_
#define UTS_UNCERTAIN_PERTURB_HPP_

#include <cstdint>

#include "exec/thread_pool.hpp"
#include "ts/dataset.hpp"
#include "uncertain/error_spec.hpp"
#include "uncertain/uncertain_series.hpp"

namespace uts::uncertain {

/// \brief Perturb one exact series into the pdf uncertainty model.
///
/// Each observation is `exact value + one draw from the actual error
/// distribution`; the attached error models are the *reported* ones.
UncertainSeries PerturbSeries(const ts::TimeSeries& exact,
                              const ErrorSpec& spec, std::uint64_t seed);

/// \brief Perturb one exact series into the repeated-observations model used
/// by MUNICH, drawing `samples_per_point` independent observations at every
/// timestamp.
MultiSampleSeries PerturbMultiSample(const ts::TimeSeries& exact,
                                     const ErrorSpec& spec,
                                     std::size_t samples_per_point,
                                     std::uint64_t seed);

/// \brief Perturb a whole dataset (pdf model). Series i uses the derived
/// seed DeriveSeed(seed, i).
///
/// With a `pool` the series are perturbed on its workers; null (the
/// default) runs the loop inline, as does a call from one of the pool's own
/// workers. The output is bitwise identical either way.
UncertainDataset PerturbDataset(const ts::Dataset& exact,
                                const ErrorSpec& spec, std::uint64_t seed,
                                exec::ThreadPool* pool = nullptr);

/// \brief Perturb a whole dataset (repeated-observations model). Series i
/// uses the derived seed DeriveSeed(seed, i); `pool` as for PerturbDataset.
MultiSampleDataset PerturbDatasetMultiSample(const ts::Dataset& exact,
                                             const ErrorSpec& spec,
                                             std::size_t samples_per_point,
                                             std::uint64_t seed,
                                             exec::ThreadPool* pool = nullptr);

}  // namespace uts::uncertain

#endif  // UTS_UNCERTAIN_PERTURB_HPP_
