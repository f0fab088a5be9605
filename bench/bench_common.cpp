#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>

#include "prob/special.hpp"
#include "query/engine_context.hpp"

namespace uts::bench {

core::RunOptions BenchConfig::MakeRunOptions() const {
  core::RunOptions options;
  options.ground_truth_k = ground_truth_k;
  options.max_queries = paper_scale ? 0 : max_queries;
  options.seed = seed;
  options.threads = threads;
  options.force_scalar = force_scalar;
  options.proud_sigma = proud_sigma;
  options.dtw_ground_truth = dtw_ground_truth;
  options.dtw_ground_truth_band = dtw_ground_truth_band;
  return options;
}

query::EngineContextOptions BenchConfig::MakeContextOptions() const {
  query::EngineContextOptions options;
  options.threads = threads;
  if (force_scalar) options.simd = distance::SimdMode::kForceScalar;
  return options;
}

namespace {

/// The supplied run-wide engine context, or a local one in `local` built
/// from `config` when the caller did not pass any.
query::EngineContext* EnsureEngines(
    std::optional<query::EngineContext>& local, const BenchConfig& config,
    query::EngineContext* supplied) {
  if (supplied != nullptr) return supplied;
  local.emplace(config.MakeContextOptions());
  return &*local;
}

std::vector<std::string> SplitCommaList(const std::string& arg) {
  std::vector<std::string> out;
  std::stringstream ss(arg);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

[[noreturn]] void PrintUsageAndExit(const std::string& bench_name,
                                    const std::string& description) {
  std::printf(
      "%s — %s\n\n"
      "Usage: %s [options]\n"
      "  --quick          scaled-down sizes, runs in seconds (default)\n"
      "  --paper          UCR-scale sizes (all series, full length/queries)\n"
      "  --series N       cap series per dataset\n"
      "  --length N       cap series length\n"
      "  --queries N      cap queries per dataset\n"
      "  --k N            ground-truth set size (default 10)\n"
      "  --threads N      query-engine worker threads (default 1, 0 = auto);\n"
      "                   results are bit-identical at every setting\n"
      "  --force-scalar   pin the scalar reference kernels (skip the\n"
      "                   runtime-dispatched SIMD level)\n"
      "  --seed S         base RNG seed (default 42)\n"
      "  --out DIR        directory for CSV output (default .)\n"
      "  --datasets a,b   restrict to named datasets\n"
      "  --no-tau-sweep   skip optimal-tau selection\n"
      "  --help           this message\n",
      bench_name.c_str(), description.c_str(), bench_name.c_str());
  std::exit(0);
}

}  // namespace

BenchConfig ParseArgs(int argc, char** argv, const std::string& bench_name,
                      const std::string& description) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      config.paper_scale = false;
    } else if (arg == "--paper") {
      config.paper_scale = true;
    } else if (arg == "--series") {
      config.max_series = std::strtoull(next_value("--series").c_str(),
                                        nullptr, 10);
    } else if (arg == "--length") {
      config.max_length = std::strtoull(next_value("--length").c_str(),
                                        nullptr, 10);
    } else if (arg == "--queries") {
      config.max_queries = std::strtoull(next_value("--queries").c_str(),
                                         nullptr, 10);
    } else if (arg == "--k") {
      config.ground_truth_k = std::strtoull(next_value("--k").c_str(),
                                            nullptr, 10);
    } else if (arg == "--threads") {
      config.threads = std::strtoull(next_value("--threads").c_str(),
                                     nullptr, 10);
    } else if (arg == "--seed") {
      config.seed = std::strtoull(next_value("--seed").c_str(), nullptr, 10);
    } else if (arg == "--out") {
      config.out_dir = next_value("--out");
    } else if (arg == "--datasets") {
      config.datasets = SplitCommaList(next_value("--datasets"));
    } else if (arg == "--no-tau-sweep") {
      config.sweep_tau = false;
    } else if (arg == "--force-scalar") {
      config.force_scalar = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsageAndExit(bench_name, description);
    } else if (arg == "--benchmark_format" || arg.rfind("--benchmark", 0) == 0) {
      // Ignore google-benchmark style flags so `for b in bench/*; do $b;
      // done` loops can pass uniform arguments.
    } else {
      std::fprintf(stderr, "unknown argument '%s' (try --help)\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  return config;
}

std::vector<ts::Dataset> LoadDatasets(const BenchConfig& config) {
  std::vector<ts::Dataset> datasets;
  for (const auto& spec : datagen::UcrLikeSpecs()) {
    if (!config.datasets.empty()) {
      bool wanted = false;
      for (const auto& name : config.datasets) wanted |= (name == spec.name);
      if (!wanted) continue;
    }
    const std::size_t max_series =
        config.paper_scale ? 0 : config.max_series;
    const std::size_t max_length =
        config.paper_scale ? 0 : config.max_length;
    datasets.push_back(
        datagen::GenerateScaled(spec, config.seed, max_series, max_length)
            .ZNormalizedCopy());
  }
  return datasets;
}

std::vector<double> SigmaGrid() {
  return {0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0};
}

Result<double> OptimizeTau(const std::vector<ts::Dataset>& datasets,
                           const uncertain::ErrorSpec& spec,
                           core::Matcher& matcher,
                           const core::RunOptions& options,
                           std::size_t tune_datasets) {
  if (!matcher.has_tau()) {
    return Status::InvalidArgument("matcher has no tau");
  }
  if (datasets.empty()) return Status::InvalidArgument("no datasets");

  // The paper's "optimal probabilistic threshold, determined after repeated
  // experiments" maximizes the reported metric itself, so τ is tuned on the
  // same query set the evaluation uses.
  const std::size_t use = std::min(tune_datasets, datasets.size());
  double best_tau = matcher.tau();
  double best_f1 = -1.0;
  std::size_t best_index = 0;
  // F1 per grid point summed over the tuning datasets (one SweepTau each,
  // in dataset order); the first maximum wins.
  auto search = [&](const std::vector<double>& grid) -> Status {
    std::vector<double> f1(grid.size(), 0.0);
    for (std::size_t d = 0; d < use; ++d) {
      UTS_ASSIGN_OR_RETURN(
          const core::TauSweepResult sweep,
          core::SweepTau(datasets[d], spec, matcher, options, grid));
      for (std::size_t i = 0; i < grid.size(); ++i) f1[i] += sweep.f1s[i];
    }
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (f1[i] > best_f1) {
        best_f1 = f1[i];
        best_tau = grid[i];
        best_index = i;
      }
    }
    return Status::OK();
  };

  // Stage 1: coarse grid.
  const std::vector<double> grid = core::DefaultTauGrid();
  UTS_RETURN_NOT_OK(search(grid));

  // Stage 2: refine between the coarse optimum's neighbors, sampling
  // linearly in ε_limit = Φ⁻¹(τ) space (the decision statistic's scale).
  const double lo_z =
      prob::NormalQuantile(grid[best_index == 0 ? 0 : best_index - 1]);
  const double hi_z =
      prob::NormalQuantile(grid[std::min(best_index + 1, grid.size() - 1)]);
  constexpr int kRefine = 8;
  std::vector<double> refine;
  for (int i = 1; i < kRefine; ++i) {
    refine.push_back(prob::NormalCdf(lo_z + (hi_z - lo_z) * i / kRefine));
  }
  UTS_RETURN_NOT_OK(search(refine));
  matcher.set_tau(best_tau);
  return best_tau;
}

Result<std::vector<core::MatcherResult>> RunPooled(
    const std::vector<ts::Dataset>& datasets,
    const uncertain::ErrorSpec& spec, std::vector<core::Matcher*> matchers,
    const BenchConfig& config, query::EngineContext* engines) {
  core::RunOptions options = config.MakeRunOptions();

  // One engine context for the whole harness call (or the caller's,
  // spanning a whole figure): one thread pool across every dataset, τ grid
  // point and matcher; one SoA pack per distinct perturbed dataset (τ
  // sweeps rebind to bit-identical data and reuse it).
  std::optional<query::EngineContext> local_engines;
  options.engine_context = EnsureEngines(local_engines, config, engines);

  std::vector<std::vector<core::MatcherResult>> parts;
  for (const auto& dataset : datasets) {
    if (config.sweep_tau) {
      // The paper runs "experiments for each dataset separately" with the
      // optimal probabilistic threshold; τ is therefore tuned per dataset.
      const std::vector<ts::Dataset> single{dataset};
      for (core::Matcher* m : matchers) {
        if (m->has_tau()) {
          auto tau = OptimizeTau(single, spec, *m, options, 1);
          if (!tau.ok()) return tau.status();
        }
      }
    }
    auto run = core::RunSimilarityMatching(dataset, spec, matchers, options);
    if (!run.ok()) return run.status();
    parts.push_back(std::move(run).ValueOrDie());
  }

  std::vector<core::MatcherResult> pooled;
  for (std::size_t m = 0; m < matchers.size(); ++m) {
    std::vector<core::MatcherResult> per_matcher;
    for (const auto& p : parts) per_matcher.push_back(p[m]);
    pooled.push_back(
        core::CombineAcrossDatasets(matchers[m]->name(), per_matcher));
  }
  return pooled;
}

Result<std::vector<PerDatasetRow>> RunPerDataset(
    const std::vector<ts::Dataset>& datasets,
    const uncertain::ErrorSpec& spec, std::vector<core::Matcher*> matchers,
    const BenchConfig& config, query::EngineContext* engines) {
  core::RunOptions options = config.MakeRunOptions();

  // One shared engine context per harness call (see RunPooled).
  std::optional<query::EngineContext> local_engines;
  options.engine_context = EnsureEngines(local_engines, config, engines);

  std::vector<PerDatasetRow> rows;
  for (const auto& dataset : datasets) {
    if (config.sweep_tau) {
      const std::vector<ts::Dataset> single{dataset};
      for (core::Matcher* m : matchers) {
        if (m->has_tau()) {
          auto tau = OptimizeTau(single, spec, *m, options, 1);
          if (!tau.ok()) return tau.status();
        }
      }
    }
    auto run = core::RunSimilarityMatching(dataset, spec, matchers, options);
    if (!run.ok()) return run.status();
    rows.push_back({dataset.name(), std::move(run).ValueOrDie()});
  }
  return rows;
}

void PrintBanner(const std::string& figure, const std::string& setting,
                 const BenchConfig& config) {
  std::printf("== %s ==\n", figure.c_str());
  std::printf("setting: %s\n", setting.c_str());
  std::printf("scale:   %s (series<=%zu length<=%zu queries<=%zu k=%zu threads=%zu seed=%llu)\n\n",
              config.paper_scale ? "paper" : "quick",
              config.paper_scale ? std::size_t(0) : config.max_series,
              config.paper_scale ? std::size_t(0) : config.max_length,
              config.paper_scale ? std::size_t(0) : config.max_queries,
              config.ground_truth_k, config.threads,
              static_cast<unsigned long long>(config.seed));
}

void EmitCsv(const BenchConfig& config, const std::string& filename,
             const io::CsvWriter& csv) {
  const std::string path = config.out_dir + "/" + filename;
  const Status st = csv.WriteFile(path);
  if (st.ok()) {
    std::printf("csv: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "csv write failed: %s\n", st.ToString().c_str());
  }
}

MatcherBundle MakeCoreTrio(double proud_tau) {
  MatcherBundle bundle;
  bundle.euclidean = std::make_unique<core::EuclideanMatcher>();
  bundle.proud = std::make_unique<core::ProudMatcher>(proud_tau);
  bundle.dust = std::make_unique<core::DustMatcher>();
  return bundle;
}

MatcherBundle MakeSectionFiveBundle() {
  MatcherBundle bundle;
  bundle.euclidean = std::make_unique<core::EuclideanMatcher>();
  bundle.dust = std::make_unique<core::DustMatcher>();
  bundle.uma = core::MakeUmaMatcher(2);
  bundle.uema = core::MakeUemaMatcher(2, 1.0);
  return bundle;
}

int RunPerDatasetFigure(const std::string& figure, const std::string& setting,
                        const uncertain::ErrorSpec& spec,
                        std::vector<core::Matcher*> matchers,
                        const BenchConfig& config,
                        const std::string& csv_name) {
  const auto datasets = LoadDatasets(config);
  PrintBanner(figure, setting + " [" + spec.Describe() + "]", config);

  auto rows = RunPerDataset(datasets, spec, matchers, config);
  if (!rows.ok()) {
    std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
    return 1;
  }

  std::vector<std::string> header{"dataset"};
  std::vector<std::string> csv_header{"dataset"};
  for (core::Matcher* m : matchers) {
    header.push_back(m->name());
    csv_header.push_back(m->name());
  }
  core::TextTable table(header);
  io::CsvWriter csv(csv_header);

  std::vector<std::vector<core::MatcherResult>> per_matcher(matchers.size());
  for (const auto& row : rows.ValueOrDie()) {
    std::vector<std::string> cells{row.dataset};
    std::vector<double> values;
    for (std::size_t m = 0; m < matchers.size(); ++m) {
      const auto& r = row.results[m];
      cells.push_back(core::TextTable::NumWithCi(r.f1.mean, r.f1.half_width));
      values.push_back(r.f1.mean);
      per_matcher[m].push_back(r);
    }
    table.AddRow(std::move(cells));
    csv.AddKeyedRow(row.dataset, values);
  }

  // Cross-dataset averages, as in the paper's discussion of these figures.
  std::vector<std::string> avg_cells{"AVERAGE"};
  std::vector<double> avg_values;
  for (std::size_t m = 0; m < matchers.size(); ++m) {
    const auto combined =
        core::CombineAcrossDatasets(matchers[m]->name(), per_matcher[m]);
    avg_cells.push_back(
        core::TextTable::NumWithCi(combined.f1.mean, combined.f1.half_width));
    avg_values.push_back(combined.f1.mean);
  }
  table.AddRow(std::move(avg_cells));
  csv.AddKeyedRow("AVERAGE", avg_values);

  std::printf("%s\n", table.ToString().c_str());
  EmitCsv(config, csv_name, csv);
  return 0;
}

}  // namespace uts::bench
