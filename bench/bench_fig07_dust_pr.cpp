/// \file bench_fig07_dust_pr.cpp
/// \brief Figure 7 — precision (a) and recall (b) of DUST, averaged over
/// all datasets, vs error standard deviation, for the three error families.
///
/// Paper expectation: "We observe the same trends as [PROUD], the only
/// difference being that DUST achieves slightly better precision, but lower
/// recall."

#include <cstdio>

#include "bench_common.hpp"

namespace uts::bench {
namespace {

int Run(int argc, char** argv) {
  BenchConfig config = ParseArgs(
      argc, argv, "bench_fig07_dust_pr",
      "Figure 7: DUST precision/recall vs error stddev, all datasets");
  const auto datasets = LoadDatasets(config);
  PrintBanner("Figure 7", "DUST, precision & recall vs sigma", config);

  const char* kDistNames[] = {"uniform", "normal", "exponential"};
  const prob::ErrorKind kKinds[] = {prob::ErrorKind::kUniform,
                                    prob::ErrorKind::kNormal,
                                    prob::ErrorKind::kExponential};
  io::CsvWriter csv(
      {"error_distribution", "sigma", "precision", "recall", "f1"});

  // The lookup tables live in the engine context of each RunPooled call.
  core::DustMatcher dust;

  core::TextTable precision_table(
      {"sigma", "uniform", "normal", "exponential"});
  core::TextTable recall_table({"sigma", "uniform", "normal", "exponential"});

  for (double sigma : SigmaGrid()) {
    std::vector<std::string> p_row{core::TextTable::Num(sigma, 1)};
    std::vector<std::string> r_row{core::TextTable::Num(sigma, 1)};
    for (int d = 0; d < 3; ++d) {
      const auto spec = uncertain::ErrorSpec::Constant(kKinds[d], sigma);
      std::vector<core::Matcher*> matchers{&dust};
      auto pooled = RunPooled(datasets, spec, matchers, config);
      if (!pooled.ok()) {
        std::fprintf(stderr, "%s\n", pooled.status().ToString().c_str());
        return 1;
      }
      const auto& r = pooled.ValueOrDie().front();
      p_row.push_back(
          core::TextTable::NumWithCi(r.precision.mean, r.precision.half_width));
      r_row.push_back(
          core::TextTable::NumWithCi(r.recall.mean, r.recall.half_width));
      csv.AddKeyedRow(kDistNames[d],
                      {sigma, r.precision.mean, r.recall.mean, r.f1.mean});
    }
    precision_table.AddRow(std::move(p_row));
    recall_table.AddRow(std::move(r_row));
  }

  std::printf("Figure 7(a) — DUST precision vs sigma\n%s\n",
              precision_table.ToString().c_str());
  std::printf("Figure 7(b) — DUST recall vs sigma\n%s\n",
              recall_table.ToString().c_str());
  EmitCsv(config, "fig07_dust_pr.csv", csv);
  return 0;
}

}  // namespace
}  // namespace uts::bench

int main(int argc, char** argv) { return uts::bench::Run(argc, argv); }
