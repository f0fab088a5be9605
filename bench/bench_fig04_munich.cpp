/// \file bench_fig04_munich.cpp
/// \brief Figure 4 — F1 of MUNICH, PROUD, DUST and Euclidean on the
/// truncated Gun Point dataset, varying the error standard deviation, for
/// normal (a), uniform (b) and exponential (c) error distributions.
///
/// Paper setting (Section 4.2.1): "We compare MUNICH, PROUD, DUST and
/// Euclidean on the Gun Point dataset, truncating it to 60 time series of
/// length 6. For each timestamp, we have 5 samples as input for MUNICH.
/// Results are averaged on 5 random queries. For both MUNICH and PROUD we
/// are using the optimal probabilistic threshold τ ... Distance thresholds
/// are chosen such that in the ground truth set they return exactly 10 time
/// series."
///
/// Expected shape: everyone is accurate at σ = 0.2 (MUNICH best); MUNICH
/// collapses for σ > 0.6; exponential error is slightly kinder to MUNICH.

#include <cstdio>

#include "bench_common.hpp"
#include "query/engine_context.hpp"

namespace uts::bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig config = ParseArgs(
      argc, argv, "bench_fig04_munich",
      "Figure 4: F1 vs error stddev on truncated GunPoint (with MUNICH)");

  // The figure's fixed workload: 60 series of length 6, regardless of the
  // quick/paper switch (this experiment is small by design).
  auto spec = datagen::SpecByName("GunPoint").ValueOrDie();
  const ts::Dataset full =
      datagen::GenerateScaled(spec, config.seed, 60, 48).ZNormalizedCopy();
  auto truncated = full.Truncated(60, 6);
  if (!truncated.ok()) {
    std::fprintf(stderr, "%s\n", truncated.status().ToString().c_str());
    return 1;
  }
  const std::vector<ts::Dataset> datasets{truncated.ValueOrDie()};

  BenchConfig run_config = config;
  run_config.paper_scale = false;
  run_config.max_queries = 5;   // "averaged on 5 random queries"
  run_config.ground_truth_k = 10;

  PrintBanner("Figure 4", "truncated GunPoint-like, 60 series x length 6, "
              "5 samples/timestamp, 5 queries", run_config);

  const auto sigmas = SigmaGrid();
  const char* kDistNames[] = {"normal", "uniform", "exponential"};
  const prob::ErrorKind kKinds[] = {prob::ErrorKind::kNormal,
                                    prob::ErrorKind::kUniform,
                                    prob::ErrorKind::kExponential};

  io::CsvWriter csv({"error_distribution", "sigma", "MUNICH", "PROUD", "DUST",
                     "Euclidean"});

  measures::MunichOptions munich_options;
  munich_options.estimator = measures::MunichOptions::Estimator::kAuto;
  munich_options.tau = 0.5;
  core::MunichMatcher munich(munich_options);
  core::ProudMatcher proud(0.5);
  core::DustMatcher dust;
  core::EuclideanMatcher euclid;
  std::vector<core::Matcher*> matchers{&munich, &proud, &dust, &euclid};

  // One engine context for the whole figure: every error distribution, σ
  // grid point, τ tuning run and matcher shares one pool; within one (d, σ)
  // configuration the τ searches and the final run rebind to bit-identical
  // data and reuse the packed engines.
  query::EngineContext engines(run_config.MakeContextOptions());

  for (int d = 0; d < 3; ++d) {
    core::TextTable table({"sigma", "MUNICH", "PROUD", "DUST", "Euclidean"});
    for (double sigma : sigmas) {
      auto err = uncertain::ErrorSpec::Constant(kKinds[d], sigma);
      core::RunOptions options = run_config.MakeRunOptions();
      options.munich_samples_per_point = 5;  // "5 samples as input"
      options.proud_sigma = sigma;
      options.engine_context = &engines;

      if (run_config.sweep_tau) {
        for (core::Matcher* m : {static_cast<core::Matcher*>(&munich),
                                 static_cast<core::Matcher*>(&proud)}) {
          auto tau = OptimizeTau(datasets, err, *m, options, 1);
          if (!tau.ok()) {
            std::fprintf(stderr, "%s\n", tau.status().ToString().c_str());
            return 1;
          }
        }
      }

      auto run =
          core::RunSimilarityMatching(datasets[0], err, matchers, options);
      if (!run.ok()) {
        std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
        return 1;
      }
      const auto& rs = run.ValueOrDie();
      table.AddRow({core::TextTable::Num(sigma, 1),
                    core::TextTable::NumWithCi(rs[0].f1.mean, rs[0].f1.half_width),
                    core::TextTable::NumWithCi(rs[1].f1.mean, rs[1].f1.half_width),
                    core::TextTable::NumWithCi(rs[2].f1.mean, rs[2].f1.half_width),
                    core::TextTable::NumWithCi(rs[3].f1.mean, rs[3].f1.half_width)});
      csv.AddKeyedRow(kDistNames[d], {sigma, rs[0].f1.mean, rs[1].f1.mean,
                                      rs[2].f1.mean, rs[3].f1.mean});
    }
    std::printf("Figure 4(%c) — %s error distribution, F1 vs sigma\n",
                'a' + d, kDistNames[d]);
    std::printf("%s\n", table.ToString().c_str());
  }

  EmitCsv(run_config, "fig04_munich.csv", csv);
  return 0;
}

}  // namespace
}  // namespace uts::bench

int main(int argc, char** argv) { return uts::bench::Run(argc, argv); }
