/// \file harness.hpp
/// \brief Shared plumbing of the end-to-end benchmark driver `uts_e2e`:
/// command line, the metric tables, sample statistics, the RSS sampler and
/// the result printer.
///
/// The driver measures every layer from the outside: it times calls into
/// public functions and reads public `stats()` snapshots. It never calls a
/// per-measure engine method, so the engines can be restructured without
/// editing the benchmark.

#ifndef UTS_BENCH_E2E_HARNESS_HPP_
#define UTS_BENCH_E2E_HARNESS_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"

namespace uts::e2e {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed between two clock readings.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Milliseconds elapsed between two clock readings.
inline double Millis(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// \brief Parsed command line.
struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;  ///< Length of the measured window.
  bool trace = false;     ///< Per-layer run instead of the end-to-end run.
  bool smoke = false;     ///< Short windows, every response verified.
  std::string out;        ///< Optional path of the full JSON result.
  /// Directory for sockets and spill files; each run uses (and removes) a
  /// private subdirectory.
  std::string scratch = "build-e2e/run";
};

/// \brief Everything one workload process measured. Metric values are keyed
/// by the names of the tables in harness.cpp; a per-layer metric a workload
/// bypasses stays unset and is reported as 0.
struct WorkloadResult {
  std::uint64_t attempted = 0;  ///< Operations attempted.
  std::uint64_t failed = 0;     ///< Failed, refused or wrong operations.
  std::map<std::string, double> values;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Report `what` failing and return a result of one failed operation.
WorkloadResult Fail(const char* what, const Status& status);

/// Run the serve_* workload `args.workload` (serve.cpp).
WorkloadResult RunServe(const Args& args);

/// Run the eval_paper workload (eval.cpp).
WorkloadResult RunEval(const Args& args);

/// Print `workload metric value unit` lines and, last, the one-line JSON
/// result; write the full JSON to `args.out` when set. Returns false when a
/// workload left an end-to-end metric unset or set an unknown name.
bool Report(const Args& args, const WorkloadResult& result);

// --- Sample statistics -----------------------------------------------------

/// Arithmetic mean; 0 for no samples.
double Mean(const std::vector<double>& samples);

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double Median(std::vector<double> samples);

/// Nearest-rank quantile q in (0, 1]; 0 for no samples.
double Quantile(std::vector<double> samples, double q);

/// Samples strictly beyond the nearest-rank quantile q.
std::size_t TailCount(std::size_t n, double q);

// --- Resource sampling -----------------------------------------------------

/// Current resident set size in MiB from /proc/self/statm.
double CurrentRssMb();

/// \brief Background thread that records the peak RSS every 10 ms between
/// construction and Stop() (or destruction).
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stop sampling and return the peak in MiB.
  double Stop();

 private:
  std::atomic<bool> stop_{false};
  double peak_mb_ = 0.0;
  std::thread thread_;
};

/// \brief Deterministic 64-bit generator (SplitMix64) for the benchmark's
/// own request schedules; the program under test never sees it.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform integer in [0, n), n > 0.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// STREAM-triad bandwidth of one thread over arrays larger than the
/// last-level cache, in GB/s (best of a few passes).
double TriadPeakGbps();

}  // namespace uts::e2e

#endif  // UTS_BENCH_E2E_HARNESS_HPP_
