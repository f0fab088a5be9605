#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

namespace uts::e2e {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (BENCHMARK.json
// "end_to_end"). They are defined on every workload so that each one has a
// bound on each.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_ops", "1/s"},
    {"latency_p50_ms", "ms"},
};

// Workload-specific end-to-end views, printed by the end-to-end run next to
// the gated metrics (and repeated in the per-layer table), but not gated:
// each exists on only some workloads.
constexpr MetricDef kViews[] = {
    {"latency_p99_ms", "ms"}, {"knn_p50_ms", "ms"},
    {"range_p50_ms", "ms"},   {"prq_p50_ms", "ms"},
    {"sweep_p50_ms", "ms"},   {"bind_p50_ms", "ms"},
    {"munich_qps", "1/s"},    {"error_rate", "ratio"},
    {"bench.p99_tail_samples", "count"},
};

// The per-layer metrics (BENCHMARK.json "per_layer"); a workload that
// bypasses a layer reports 0 for it.
constexpr MetricDef kPerLayer[] = {
    {"query.activate_ms", "ms"},
    {"query.activate_share", "ratio"},
    {"query.engine_ms", "ms"},
    {"distance.bytes_per_req", "B"},
    {"distance.gbps", "GB/s"},
    {"distance.peak_fraction", "ratio"},
    {"index.touched_fraction", "ratio"},
    {"server.transport_ms", "ms"},
    {"server.queue_len_mean", "count"},
    {"server.queue_wait_ms", "ms"},
    {"server.rejected_per_1k", "count"},
    {"ts.faults_per_req", "count"},
    {"ts.pins_per_req", "count"},
    {"ts.hit_ratio", "ratio"},
    {"ts.peak_resident_mb", "MB"},
    {"ts.spilled_mb_per_bind", "MB"},
    {"query.packs_per_bind", "count"},
    {"uncertain.perturb_ms", "ms"},
    {"server.bind_codec_ms", "ms"},
    {"core.tau_search_s", "s"},
    {"core.matching_s", "s"},
    {"core.retrieve_ms_euclid", "ms"},
    {"core.retrieve_ms_dust", "ms"},
    {"core.retrieve_ms_proud", "ms"},
    {"core.retrieve_ms_munich", "ms"},
    {"exec.speedup_2t", "ratio"},
    {"exec.pools_created", "count"},
    {"query.acquire_decline_ratio", "ratio"},
    {"query.dust_table_builds", "count"},
    {"bench.trace_overhead", "ratio"},
    {"bench.writer_lag_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"knn_p50_ms", "ms"},
    {"range_p50_ms", "ms"},
    {"prq_p50_ms", "ms"},
    {"sweep_p50_ms", "ms"},
    {"bind_p50_ms", "ms"},
    {"munich_qps", "1/s"},
    {"error_rate", "ratio"},
    {"bench.p99_tail_samples", "count"},
};

template <std::size_t N>
bool Known(const MetricDef (&table)[N], const std::string& name) {
  return std::any_of(std::begin(table), std::end(table),
                     [&](const MetricDef& d) { return name == d.name; });
}

/// JSON-safe rendering with every significant digit.
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names{
      "serve_ucr_mixed", "serve_small_rpc", "serve_paged_rebind",
      "eval_paper"};
  return names;
}

WorkloadResult Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "uts_e2e: %s: %s\n", what, status.ToString().c_str());
  WorkloadResult out;
  out.attempted = 1;
  out.failed = 1;
  return out;
}

bool Report(const Args& args, const WorkloadResult& input) {
  WorkloadResult result = input;
  bool sound = true;
  for (const auto& [name, value] : result.values) {
    if (!Known(kEndToEnd, name) && !Known(kPerLayer, name)) {
      std::fprintf(stderr, "uts_e2e: unknown metric '%s'\n", name.c_str());
      sound = false;
    }
  }
  result.values["error_rate"] =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);

  std::vector<MetricDef> emit;
  if (args.trace) {
    emit.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    for (const MetricDef& d : kEndToEnd) {
      auto it = result.values.find(d.name);
      if (it == result.values.end() || !std::isfinite(it->second) ||
          it->second <= 0.0) {
        std::fprintf(stderr, "uts_e2e: end-to-end metric '%s' missing or not "
                     "positive\n", d.name);
        sound = false;
      }
      emit.push_back(d);
    }
    for (const MetricDef& d : kViews) {
      if (result.values.count(d.name) > 0) emit.push_back(d);
    }
  }

  const bool correct = sound && result.failed == 0 && result.attempted > 0;
  auto value_of = [&](const MetricDef& d) {
    auto it = result.values.find(d.name);
    return it == result.values.end() ? 0.0 : it->second;
  };
  for (const MetricDef& d : emit) {
    std::printf("%s %s %s %s\n", args.workload.c_str(), d.name,
                Num(value_of(d)).c_str(), d.unit);
  }

  // The contract line carries exactly one table: end-to-end or per-layer.
  auto json = [&](bool gated_only) {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(result.attempted);
    s += ", \"failed\": " + std::to_string(result.failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& d : emit) {
      if (gated_only && !args.trace && !Known(kEndToEnd, d.name)) continue;
      if (!first) s += ", ";
      first = false;
      s += "\"" + std::string(d.name) + "\": {\"value\": " + Num(value_of(d)) +
           ", \"unit\": \"" + d.unit + "\"}";
    }
    return s + "}}";
  };
  if (!args.out.empty()) {
    std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(args.out.c_str(), "w"),
                                            &std::fclose);
    if (f == nullptr) {
      std::fprintf(stderr, "uts_e2e: cannot write %s\n", args.out.c_str());
      return false;
    }
    std::fprintf(f.get(), "%s\n", json(false).c_str());
  }
  std::printf("%s\n", json(true).c_str());
  std::fflush(stdout);
  return sound;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

std::size_t TailCount(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

double CurrentRssMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

RssSampler::RssSampler() : peak_mb_(CurrentRssMb()) {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      peak_mb_ = std::max(peak_mb_, CurrentRssMb());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

RssSampler::~RssSampler() { Stop(); }

double RssSampler::Stop() {
  if (thread_.joinable()) {
    stop_.store(true);
    thread_.join();
    peak_mb_ = std::max(peak_mb_, CurrentRssMb());
  }
  return peak_mb_;
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double TriadPeakGbps() {
  // 3 × 16 MiB: well beyond any last-level cache of the hosts this runs on.
  constexpr std::size_t kN = std::size_t{2} << 20;
  std::vector<double> a(kN, 0.0), b(kN, 1.0), c(kN, 2.0);
  double best = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto start = Clock::now();
    const double scalar = 3.0 + pass;
    for (std::size_t i = 0; i < kN; ++i) a[i] = b[i] + scalar * c[i];
    const double s = Seconds(start, Clock::now());
    best = std::max(best, 3.0 * sizeof(double) * kN / s / 1e9);
  }
  // Keep the stores observable.
  volatile double sink = a[kN / 2];
  (void)sink;
  return best;
}

}  // namespace uts::e2e
