/// \file main.cpp
/// \brief `uts_e2e` — one benchmark workload per process.
///
///   uts_e2e --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke]
///           [--out FILE] [--scratch DIR]
///
/// Prints `workload metric value unit` lines, then, as the last line, one
/// JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
/// with `--trace 0`, the per-layer metrics with `--trace 1`.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hpp"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: uts_e2e --workload W [--seed S] [--seconds N] "
               "[--trace 0|1] [--smoke] [--out FILE] [--scratch DIR]\n"
               "workloads: serve_ucr_mixed serve_small_rpc "
               "serve_paged_rebind eval_paper\n");
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  uts::e2e::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    double number = 0.0;
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (!has_value) {
      return Usage();
    } else if (arg == "--workload") {
      args.workload = argv[++i];
    } else if (arg == "--seed" && ParseNumber(argv[i + 1], &number) &&
               number >= 0) {
      args.seed = static_cast<std::uint64_t>(number);
      ++i;
    } else if (arg == "--seconds" && ParseNumber(argv[i + 1], &number) &&
               number > 0) {
      args.seconds = number;
      ++i;
    } else if (arg == "--trace" && ParseNumber(argv[i + 1], &number) &&
               (number == 0 || number == 1)) {
      args.trace = number == 1;
      ++i;
    } else if (arg == "--out") {
      args.out = argv[++i];
    } else if (arg == "--scratch") {
      args.scratch = argv[++i];
    } else {
      return Usage();
    }
  }
  const auto& names = uts::e2e::WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return Usage();
  }
  if (args.smoke) args.seconds = std::min(args.seconds, 2.0);

  // Fixed allocator thresholds. glibc otherwise adapts its mmap threshold
  // to the allocation history, and the serve workloads then split into runs
  // that take ~40k page faults and runs that take 1-2M, a run-to-run swing
  // larger than the metric bounds.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  const uts::e2e::WorkloadResult result =
      args.workload == "eval_paper" ? uts::e2e::RunEval(args)
                                    : uts::e2e::RunServe(args);
  return uts::e2e::Report(args, result) ? 0 : 1;
}
