/// \file bench_fig12_time_length.cpp
/// \brief Figure 12 — average CPU time per query for PROUD, DUST and
/// Euclidean vs time-series length (50..1000 points), normal error.
///
/// "Time series of different lengths have been obtained resampling the raw
/// sequences" (Section 4.3). Expectation: "time grows linearly to the time
/// series length" for all three, preserving the Euclidean < DUST < PROUD
/// ordering.

#include <cstdio>

#include "bench_common.hpp"
#include "query/engine_context.hpp"
#include "ts/normalize.hpp"
#include "ts/resample.hpp"

namespace uts::bench {
namespace {

ts::Dataset ResampleDataset(const ts::Dataset& dataset, std::size_t length) {
  ts::Dataset out(dataset.name());
  for (const auto& series : dataset) {
    auto resampled = ts::LinearResample(series, length);
    // Input series always have >= 2 points; resampling cannot fail here.
    out.Add(ts::ZNormalized(std::move(resampled).ValueOrDie()));
  }
  return out;
}

int Run(int argc, char** argv) {
  BenchConfig config = ParseArgs(
      argc, argv, "bench_fig12_time_length",
      "Figure 12: CPU time per query vs series length (resampled)");
  config.sweep_tau = false;
  // Length is the sweep variable; the cap must not interfere.
  config.max_length = 0;
  const auto base = LoadDatasets(config);
  PrintBanner("Figure 12", "per-query time vs length, normal error sigma=1.0",
              config);

  const std::vector<std::size_t> lengths{50, 100, 200, 400, 600, 800, 1000};
  const auto spec =
      uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, 1.0);

  MatcherBundle bundle = MakeCoreTrio();
  io::CsvWriter csv({"length", "PROUD_ms", "DUST_ms", "Euclidean_ms"});
  core::TextTable table(
      {"length", "PROUD (ms)", "DUST (ms)", "Euclidean (ms)"});

  // One engine context (one thread pool) for the whole length sweep.
  query::EngineContext engines(config.MakeContextOptions());

  for (std::size_t length : lengths) {
    std::vector<ts::Dataset> resampled;
    resampled.reserve(base.size());
    for (const auto& d : base) resampled.push_back(ResampleDataset(d, length));

    std::vector<core::Matcher*> matchers{
        bundle.proud.get(), bundle.dust.get(), bundle.euclidean.get()};
    auto pooled = RunPooled(resampled, spec, matchers, config, &engines);
    if (!pooled.ok()) {
      std::fprintf(stderr, "%s\n", pooled.status().ToString().c_str());
      return 1;
    }
    const auto& rs = pooled.ValueOrDie();
    table.AddRow({std::to_string(length),
                  core::TextTable::Num(rs[0].avg_query_millis, 4),
                  core::TextTable::Num(rs[1].avg_query_millis, 4),
                  core::TextTable::Num(rs[2].avg_query_millis, 4)});
    csv.AddNumericRow({static_cast<double>(length), rs[0].avg_query_millis,
                       rs[1].avg_query_millis, rs[2].avg_query_millis});
  }
  std::printf("%s\n", table.ToString().c_str());
  EmitCsv(config, "fig12_time_length.csv", csv);
  return 0;
}

}  // namespace
}  // namespace uts::bench

int main(int argc, char** argv) { return uts::bench::Run(argc, argv); }
