/// \file bench_common.hpp
/// \brief Shared scaffolding for the figure-reproduction harnesses.
///
/// Every harness in bench/ regenerates one table or figure of the paper's
/// evaluation (see DESIGN.md §3 for the index). They share:
///
///  * a command line: `--quick` (default: scaled-down sizes, seconds per
///    figure) vs `--paper` (UCR-scale sizes, minutes to hours), plus
///    `--series N --length N --queries N --seed S --out DIR --datasets a,b`;
///  * dataset loading (synthetic UCR-like registry, z-normalized);
///  * the evaluation loop of Section 4.1.2 with per-configuration optimal-τ
///    selection for the probabilistic matchers;
///  * table printing and CSV emission.

#ifndef UTS_BENCH_BENCH_COMMON_HPP_
#define UTS_BENCH_BENCH_COMMON_HPP_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/matchers.hpp"
#include "core/report.hpp"
#include "datagen/registry.hpp"
#include "io/csv.hpp"
#include "ts/dataset.hpp"
#include "uncertain/error_spec.hpp"

namespace uts::query {
class EngineContext;
struct EngineContextOptions;
}  // namespace uts::query

namespace uts::bench {

/// \brief Scale and output configuration shared by all harnesses.
struct BenchConfig {
  bool paper_scale = false;        ///< --paper: UCR-scale sizes.
  std::size_t max_series = 48;     ///< Cap on series per dataset (quick).
  std::size_t max_length = 64;     ///< Cap on series length (quick).
  std::size_t max_queries = 12;    ///< Cap on queries per dataset (quick).
  std::size_t ground_truth_k = 10; ///< The paper's 10-NN ground truth.
  std::size_t threads = 1;         ///< --threads: engine workers (0 = auto).
  bool force_scalar = false;       ///< --force-scalar: pin scalar kernels.
  std::uint64_t seed = 42;
  std::string out_dir = ".";       ///< Where CSVs are written.
  std::vector<std::string> datasets;  ///< Empty = all 17.
  bool sweep_tau = true;           ///< Optimal-τ selection (MUNICH/PROUD).
  double proud_sigma = 0.0;        ///< σ told to PROUD (0 = spec default).
  bool dtw_ground_truth = false;   ///< Ground truth under exact DTW.
  std::size_t dtw_ground_truth_band =
      distance::DtwOptions::kNoBand;  ///< Band of the DTW ground truth.

  /// Runner options for one dataset under this config.
  core::RunOptions MakeRunOptions() const;

  /// Options of an engine context the runs of MakeRunOptions() accept:
  /// the same thread count and SIMD mode.
  query::EngineContextOptions MakeContextOptions() const;
};

/// \brief Parse harness arguments; prints usage and exits on --help.
BenchConfig ParseArgs(int argc, char** argv, const std::string& bench_name,
                      const std::string& description);

/// \brief Generate the configured datasets, z-normalized, at the configured
/// scale. Order follows the paper's listing.
std::vector<ts::Dataset> LoadDatasets(const BenchConfig& config);

/// \brief σ grid of the accuracy/timing sweeps: 0.2, 0.4, ..., 2.0
/// ("varying standard deviation within interval [0.2, 2.0]").
std::vector<double> SigmaGrid();

/// \brief Pick the F1-optimal τ for `matcher` under (datasets, spec) — the
/// paper's per-configuration "optimal probabilistic threshold". It pools the
/// first `tune_datasets` datasets: core::SweepTau per dataset on the default
/// grid, then on a 7-point refinement around the coarse optimum, F1 summed
/// in dataset order (first maximum wins). The matcher is left at the chosen
/// τ for the full run.
Result<double> OptimizeTau(const std::vector<ts::Dataset>& datasets,
                           const uncertain::ErrorSpec& spec,
                           core::Matcher& matcher,
                           const core::RunOptions& options,
                           std::size_t tune_datasets = 2);

/// \brief Evaluate matchers over every dataset and pool per-query scores
/// ("we report the average results over the full time series for all
/// datasets"). When `sweep_tau` is set, probabilistic matchers are tuned
/// first via OptimizeTau.
///
/// `engines` is the run-wide shared engine context (one thread pool, one
/// SoA pack and one uncertain engine per evaluation). Null = create one
/// internally for this call; figure drivers looping over configurations
/// pass one so the whole figure shares a single pool.
Result<std::vector<core::MatcherResult>> RunPooled(
    const std::vector<ts::Dataset>& datasets, const uncertain::ErrorSpec& spec,
    std::vector<core::Matcher*> matchers, const BenchConfig& config,
    query::EngineContext* engines = nullptr);

/// \brief Per-dataset results (Figures 8-10, 15-17 are per-dataset bars).
struct PerDatasetRow {
  std::string dataset;
  std::vector<core::MatcherResult> results;  // one per matcher
};

/// \brief Evaluate matchers per dataset, with one shared τ tuned up front.
/// `engines` as in RunPooled.
Result<std::vector<PerDatasetRow>> RunPerDataset(
    const std::vector<ts::Dataset>& datasets, const uncertain::ErrorSpec& spec,
    std::vector<core::Matcher*> matchers, const BenchConfig& config,
    query::EngineContext* engines = nullptr);

/// \brief Print the standard harness banner.
void PrintBanner(const std::string& figure, const std::string& setting,
                 const BenchConfig& config);

/// \brief Write a CSV into config.out_dir, logging the path. Failures are
/// reported to stderr but do not abort the harness.
void EmitCsv(const BenchConfig& config, const std::string& filename,
             const io::CsvWriter& csv);

/// \brief Standard matcher bundles used across figures.
struct MatcherBundle {
  std::unique_ptr<core::EuclideanMatcher> euclidean;
  std::unique_ptr<core::ProudMatcher> proud;
  std::unique_ptr<core::DustMatcher> dust;
  std::unique_ptr<core::FilteredMatcher> uma;
  std::unique_ptr<core::FilteredMatcher> uema;
  std::unique_ptr<core::MunichMatcher> munich;
};

/// \brief Make the (Euclidean, PROUD, DUST) trio of Figures 5-12.
MatcherBundle MakeCoreTrio(double proud_tau = 0.5);

/// \brief Make the (Euclidean, DUST, UMA, UEMA) quartet of Figures 15-17
/// with the paper's defaults (w = 2, λ = 1).
MatcherBundle MakeSectionFiveBundle();

/// \brief Shared driver for the per-dataset F1 bar figures (8, 9, 10 and
/// 15-17): runs `matchers` on every dataset under `spec`, prints one row
/// per dataset with one F1 column per matcher, and writes `csv_name`.
int RunPerDatasetFigure(const std::string& figure,
                        const std::string& setting,
                        const uncertain::ErrorSpec& spec,
                        std::vector<core::Matcher*> matchers,
                        const BenchConfig& config,
                        const std::string& csv_name);

}  // namespace uts::bench

#endif  // UTS_BENCH_BENCH_COMMON_HPP_
