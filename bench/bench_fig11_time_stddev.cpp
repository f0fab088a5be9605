/// \file bench_fig11_time_stddev.cpp
/// \brief Figure 11 — average CPU time per query for PROUD, DUST and
/// Euclidean, averaged over all datasets, vs the error standard deviation
/// (normal error).
///
/// Paper expectation: σ barely affects any of the three; Euclidean is the
/// fastest and completely flat; DUST sits above it; PROUD (without its
/// wavelet synopsis) is the slowest of the three. MUNICH is excluded from
/// the figure because it "is orders of magnitude more expensive ... in the
/// order of minutes"; this harness prints a one-line MUNICH reference
/// measurement on the Figure 4 workload instead.

#include <cstdio>

#include "bench_common.hpp"
#include "core/timer.hpp"
#include "query/engine_context.hpp"

namespace uts::bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig config = ParseArgs(
      argc, argv, "bench_fig11_time_stddev",
      "Figure 11: CPU time per query vs error stddev (PROUD/DUST/Euclidean)");
  config.sweep_tau = false;  // timing only; τ does not change the work
  const auto datasets = LoadDatasets(config);
  PrintBanner("Figure 11", "per-query time vs sigma, normal error", config);

  MatcherBundle bundle = MakeCoreTrio();
  io::CsvWriter csv({"sigma", "PROUD_ms", "DUST_ms", "Euclidean_ms"});
  core::TextTable table({"sigma", "PROUD (ms)", "DUST (ms)", "Euclidean (ms)"});

  // One engine context (one thread pool) for the whole σ sweep.
  query::EngineContext engines(config.MakeContextOptions());

  for (double sigma : SigmaGrid()) {
    const auto spec =
        uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, sigma);
    std::vector<core::Matcher*> matchers{
        bundle.proud.get(), bundle.dust.get(), bundle.euclidean.get()};
    auto pooled = RunPooled(datasets, spec, matchers, config, &engines);
    if (!pooled.ok()) {
      std::fprintf(stderr, "%s\n", pooled.status().ToString().c_str());
      return 1;
    }
    const auto& rs = pooled.ValueOrDie();
    table.AddRow({core::TextTable::Num(sigma, 1),
                  core::TextTable::Num(rs[0].avg_query_millis, 4),
                  core::TextTable::Num(rs[1].avg_query_millis, 4),
                  core::TextTable::Num(rs[2].avg_query_millis, 4)});
    csv.AddNumericRow({sigma, rs[0].avg_query_millis, rs[1].avg_query_millis,
                       rs[2].avg_query_millis});
  }
  std::printf("%s\n", table.ToString().c_str());

  // MUNICH reference point (the paper's "orders of magnitude" remark),
  // measured on the Figure 4 workload (60 series x length 6, 5 samples).
  {
    auto spec = datagen::SpecByName("GunPoint").ValueOrDie();
    const ts::Dataset full =
        datagen::GenerateScaled(spec, config.seed, 60, 48).ZNormalizedCopy();
    const ts::Dataset d = full.Truncated(60, 6).ValueOrDie();
    measures::MunichOptions mopts;
    core::MunichMatcher munich(mopts);
    core::Matcher* matchers[] = {&munich};
    core::RunOptions options = config.MakeRunOptions();
    options.max_queries = 5;
    options.munich_samples_per_point = 5;
    options.engine_context = &engines;
    auto run = core::RunSimilarityMatching(
        d, uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, 1.0),
        matchers, options);
    if (run.ok()) {
      std::printf(
          "MUNICH reference (60 series x length 6, 5 samples/pt, exact "
          "estimator): %.3f ms/query — orders of magnitude above the three "
          "techniques despite a ~10x shorter series (the paper's reason for "
          "excluding MUNICH from this figure)\n\n",
          run.ValueOrDie()[0].avg_query_millis);
    }
  }

  EmitCsv(config, "fig11_time_stddev.csv", csv);
  return 0;
}

}  // namespace
}  // namespace uts::bench

int main(int argc, char** argv) { return uts::bench::Run(argc, argv); }
