/// \file bench_micro_kernels.cpp
/// \brief google-benchmark microbenchmarks of the distance kernels backing
/// the paper's timing claims (Figures 11/12): Euclidean vs DUST vs PROUD
/// per-pair cost, DTW, MUNICH estimators, the moving-average filters, and
/// the Haar transform — plus the query-engine kernels: SoA-batched vs
/// AoS-callback Euclidean scans and the threads-scaling sweep of the k-NN
/// ground-truth build.
///
/// Every run also writes its results as JSON (default
/// `micro_kernels.json`, override with --benchmark_out=...) so successive
/// PRs can track the perf trajectory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "distance/batch.hpp"
#include "distance/simd.hpp"
#include "distance/dtw.hpp"
#include "distance/lp.hpp"
#include "measures/dust.hpp"
#include "measures/munich.hpp"
#include "measures/proud.hpp"
#include "prob/rng.hpp"
#include "query/engine.hpp"
#include "query/search.hpp"
#include "query/uncertain_engine.hpp"
#include "ts/buffer_pool.hpp"
#include "ts/dataset.hpp"
#include "ts/filters.hpp"
#include "ts/store_view.hpp"
#include "uncertain/perturb.hpp"
#include "wavelet/haar.hpp"

namespace {

using namespace uts;

/// Build type of *this* binary. The stock google-benchmark JSON context key
/// "library_build_type" describes how the benchmark *library* was built
/// (distro packages often report "debug" there even for -O3 benchmark
/// binaries); what matters for kernel timings is this value.
const char* UtsBuildType() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// STREAM-like triad peak (a[i] = b[i] + s*c[i], 24 bytes/element) measured
/// in this binary over three 64 MiB arrays, best of three passes: the
/// memory-bandwidth ceiling that peak_fraction counters are normalized
/// against. The arrays far exceed the LLC, so the loop is bandwidth-bound
/// and its ISA (baseline, not AVX2) barely matters.
double TriadPeakGBps() {
  static const double peak = [] {
    const std::size_t n = std::size_t{8} << 20;  // 8 Mi doubles per array
    std::vector<double> a(n, 1.0), b(n, 2.0), c(n, 3.0);
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const double s = 0.42;
      for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
      benchmark::DoNotOptimize(a.data());
      const auto t1 = std::chrono::steady_clock::now();
      const double sec = std::chrono::duration<double>(t1 - t0).count();
      if (sec > 0.0) {
        best = std::max(best, 24.0 * static_cast<double>(n) / sec / 1e9);
      }
    }
    return best;
  }();
  return peak;
}

/// Attach the per-kernel bandwidth counters: achieved_GBps (memory traffic
/// the kernel streams per second) and peak_fraction (that traffic divided by
/// the in-binary triad peak). `bytes_per_iteration` counts the candidate
/// rows plus outputs one benchmark iteration touches.
void SetBandwidthCounters(benchmark::State& state, double bytes_per_iteration) {
  using benchmark::Counter;
  state.counters["achieved_GBps"] =
      Counter(bytes_per_iteration / 1e9, Counter::kIsIterationInvariantRate);
  state.counters["peak_fraction"] =
      Counter(bytes_per_iteration / (TriadPeakGBps() * 1e9),
              Counter::kIsIterationInvariantRate);
}

std::vector<double> RandomSeries(std::size_t n, std::uint64_t seed) {
  prob::Rng rng(seed);
  std::vector<double> xs(n);
  for (double& v : xs) v = rng.Gaussian();
  return xs;
}

uncertain::UncertainSeries RandomUncertain(std::size_t n, std::uint64_t seed,
                                           prob::ErrorKind kind) {
  auto err = prob::MakeError(kind, 0.5);
  return uncertain::UncertainSeries(
      RandomSeries(n, seed),
      std::vector<prob::ErrorDistributionPtr>(n, err));
}

void BM_Euclidean(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomSeries(n, 1);
  const auto b = RandomSeries(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance::Euclidean(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Euclidean)->Arg(64)->Arg(290)->Arg(1024);

void BM_EuclideanEarlyAbandon(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomSeries(n, 3);
  const auto b = RandomSeries(n, 4);
  const double threshold_sq = 0.1 * distance::SquaredEuclidean(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        distance::SquaredEuclideanEarlyAbandon(a, b, threshold_sq));
  }
}
BENCHMARK(BM_EuclideanEarlyAbandon)->Arg(290);

void BM_ProudPair(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomSeries(n, 5);
  const auto b = RandomSeries(n, 6);
  measures::Proud proud({.tau = 0.9, .sigma = 0.5});
  for (auto _ : state) {
    benchmark::DoNotOptimize(proud.MatchProbability(a, b, 3.0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ProudPair)->Arg(64)->Arg(290)->Arg(1024);

void BM_DustPairClosedForm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = RandomUncertain(n, 7, prob::ErrorKind::kNormal);
  const auto y = RandomUncertain(n, 8, prob::ErrorKind::kNormal);
  measures::Dust dust;
  (void)dust.Distance(x, y);  // warm the table cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(dust.Distance(x, y));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DustPairClosedForm)->Arg(64)->Arg(290)->Arg(1024);

void BM_DustPairTableLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = RandomUncertain(n, 9, prob::ErrorKind::kUniform);
  const auto y = RandomUncertain(n, 10, prob::ErrorKind::kUniform);
  measures::Dust dust;
  (void)dust.Distance(x, y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dust.Distance(x, y));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DustPairTableLookup)->Arg(290);

void BM_DustTableBuild(benchmark::State& state) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  auto err = prob::MakeUniformError(0.5);
  measures::DustOptions options;
  options.table_size = cells;
  for (auto _ : state) {
    auto table = measures::DustTable::Build(*err, *err, options);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_DustTableBuild)->Arg(256)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_DtwFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomSeries(n, 11);
  const auto b = RandomSeries(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance::Dtw(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_DtwFull)->Arg(64)->Arg(290);

void BM_DtwBanded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomSeries(n, 13);
  const auto b = RandomSeries(n, 14);
  distance::DtwOptions options;
  options.band_radius = n / 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance::Dtw(a, b, options));
  }
}
BENCHMARK(BM_DtwBanded)->Arg(290);

void BM_MunichExact(benchmark::State& state) {
  // The paper's Figure 4 configuration: length 6, 5 samples/timestamp.
  const ts::TimeSeries exact(RandomSeries(6, 15));
  const auto spec =
      uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, 0.5);
  const auto x = uncertain::PerturbMultiSample(exact, spec, 5, 16);
  const auto y = uncertain::PerturbMultiSample(exact, spec, 5, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        measures::Munich::ExactMatchProbability(x, y, 2.0));
  }
}
BENCHMARK(BM_MunichExact)->Unit(benchmark::kMillisecond);

void BM_MunichMonteCarlo(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const ts::TimeSeries exact(RandomSeries(64, 18));
  const auto spec =
      uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, 0.5);
  const auto x = uncertain::PerturbMultiSample(exact, spec, 5, 19);
  const auto y = uncertain::PerturbMultiSample(exact, spec, 5, 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measures::Munich::MonteCarloMatchProbability(
        x, y, 8.0, samples, 21));
  }
}
BENCHMARK(BM_MunichMonteCarlo)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_MunichBounds(benchmark::State& state) {
  const ts::TimeSeries exact(RandomSeries(290, 22));
  const auto spec =
      uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, 0.5);
  const auto x = uncertain::PerturbMultiSample(exact, spec, 5, 23);
  const auto y = uncertain::PerturbMultiSample(exact, spec, 5, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(measures::Munich::EuclideanBounds(x, y));
  }
}
BENCHMARK(BM_MunichBounds);

void BM_UmaFilter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto values = RandomSeries(n, 25);
  const std::vector<double> sigmas(n, 0.5);
  ts::FilterOptions options;
  options.half_window = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ts::UncertainMovingAverage(values, sigmas, options));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UmaFilter)->Arg(290)->Arg(1024);

void BM_UemaFilter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto values = RandomSeries(n, 26);
  const std::vector<double> sigmas(n, 0.5);
  ts::FilterOptions options;
  options.half_window = 2;
  options.lambda = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ts::UncertainExponentialMovingAverage(values, sigmas, options));
  }
}
BENCHMARK(BM_UemaFilter)->Arg(290);

void BM_HaarTransform(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto values = RandomSeries(n, 27);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wavelet::HaarTransform(values));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HaarTransform)->Arg(256)->Arg(1024);

// --- Query-engine kernels: SoA-batched vs AoS-callback ----------------------

ts::Dataset RandomDataset(std::size_t n_series, std::size_t length,
                          std::uint64_t seed) {
  ts::Dataset d("bench");
  for (std::size_t i = 0; i < n_series; ++i) {
    d.Add(ts::TimeSeries(RandomSeries(length, seed + i)));
  }
  return d;
}

// A resident store of the dataset's rows, packed the way the engines pack.
ts::SoaStore Pack(const ts::Dataset& d) {
  return ts::SoaStore::FromRows(
             d.size(), d[0].size(),
             [&d](std::size_t r, std::span<double> out) {
               std::copy(d[r].begin(), d[r].end(), out.begin());
             })
      .ValueOrDie();
}

// Pack()'s stores are resident, so their single block's pin is a plain
// pointer copy and the returned RowBlock outlives the guard.
ts::RowBlock Block(const ts::SoaStore& store) {
  const ts::StoreView view(store);
  return ts::PinOrAbort(view, 0).block();
}

// The seed's scan: vector-of-vectors storage, one std::function dispatch
// and one scalar Euclidean (with sqrt) per candidate.
void BM_ScanEuclideanCallbackAoS(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 512;
  const ts::Dataset d = RandomDataset(n, len, 100);
  const ts::TimeSeries& query = d[0];
  const query::DistanceToFn distance_to = [&](std::size_t i) {
    return distance::Euclidean(query.values(), d[i].values());
  };
  std::vector<double> out(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) out[i] = distance_to(i);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * len);
}
BENCHMARK(BM_ScanEuclideanCallbackAoS)->Arg(64)->Arg(290)->Arg(1024);

// The engine's scan: contiguous SoA rows through the blocked batch kernel.
void BM_ScanEuclideanBatchSoA(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 512;
  const ts::Dataset d = RandomDataset(n, len, 100);
  const ts::SoaStore store = Pack(d);
  const ts::RowBlock block = Block(store);
  std::vector<double> out(n);
  for (auto _ : state) {
    distance::SquaredEuclideanBatch(block.row(0), store, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * len);
  SetBandwidthCounters(state, 8.0 * static_cast<double>(n * len + n));
}
BENCHMARK(BM_ScanEuclideanBatchSoA)->Arg(64)->Arg(290)->Arg(1024);

// The all-pairs building block: kQueryBlock queries share each candidate
// row load, overlapping the per-pair FP-add chains.
void BM_ScanEuclideanMultiQueryBatchSoA(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 512;
  const ts::Dataset d = RandomDataset(n, len, 100);
  const ts::SoaStore store = Pack(d);
  const ts::RowBlock block = Block(store);
  std::vector<double> out(distance::kQueryBlock * n);
  for (auto _ : state) {
    distance::SquaredEuclideanMultiQueryBatch(block, 0,
                                              distance::kQueryBlock, block,
                                              0, n, out, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * distance::kQueryBlock * n *
                          len);
  SetBandwidthCounters(
      state, 8.0 * static_cast<double>(n * len + distance::kQueryBlock * n));
}
BENCHMARK(BM_ScanEuclideanMultiQueryBatchSoA)->Arg(64)->Arg(290)->Arg(1024);

void BM_ScanEuclideanEarlyAbandonBatchSoA(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 512;
  const ts::Dataset d = RandomDataset(n, len, 100);
  const ts::SoaStore store = Pack(d);
  const ts::RowBlock block = Block(store);
  std::vector<double> full(n);
  distance::SquaredEuclideanBatch(block.row(0), store, full);
  std::vector<double> sorted = full;
  std::sort(sorted.begin(), sorted.end());
  const double threshold_sq = sorted[n / 10];  // keep ~10% of candidates
  std::vector<double> out(n);
  for (auto _ : state) {
    distance::SquaredEuclideanEarlyAbandonBatch(block.row(0), store,
                                                threshold_sq, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * len);
}
BENCHMARK(BM_ScanEuclideanEarlyAbandonBatchSoA)->Arg(290);

// --- Kernel dispatch: scalar reference vs runtime-resolved AVX2 -------------
// One benchmark per kernel family and level, same data, driven through the
// distance::KernelDispatch tables the engines execute. The *_Avx2 variants
// skip (with an error note in the JSON) on hardware without AVX2+FMA, so a
// baseline recorded on wider hardware never silently compares scalar runs.

bool RequireAvx2(benchmark::State& state) {
  if (distance::ResolveDispatch(distance::SimdMode::kAuto).level !=
      distance::SimdLevel::kAvx2) {
    state.SkipWithError("AVX2 unavailable (hardware or UNCERTTS_FORCE_SCALAR)");
    return false;
  }
  return true;
}

void ScanEuclideanKernel(benchmark::State& state,
                         const distance::KernelDispatch& table) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const ts::Dataset d = RandomDataset(n, len, 100);
  const ts::SoaStore store = Pack(d);
  const ts::RowBlock block = Block(store);
  std::vector<double> out(n);
  for (auto _ : state) {
    table.squared_euclidean_range(block.row(0), block, 0, n, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * len);
  SetBandwidthCounters(state, 8.0 * static_cast<double>(n * len + n));
}

// The acceptance-gate pair: blocked 1-vs-all squared Euclidean at length
// 1024, single-threaded, scalar vs AVX2; tools/check_bench_regression.py
// enforces the minimum speedup between the two. Args are {length,
// candidate count}. The gated shape keeps the candidate block at 1 MiB —
// L2-resident, the same block size (kCandidateTileBytes) the engine's
// tiled all-pairs path replays from cache — so it measures kernel
// throughput. The 512-candidate shape (4 MiB, streamed from uncore) is
// also recorded: there both levels converge toward the machine's memory
// bandwidth, which is the honest ceiling for cold one-shot scans.
void BM_ScanEuclideanBatchSoA_Scalar(benchmark::State& state) {
  ScanEuclideanKernel(state, distance::ScalarDispatch());
}
BENCHMARK(BM_ScanEuclideanBatchSoA_Scalar)
    ->Args({1024, 128})
    ->Args({1024, 512})
    ->Args({64, 512});

void BM_ScanEuclideanBatchSoA_Avx2(benchmark::State& state) {
  if (!RequireAvx2(state)) return;
  ScanEuclideanKernel(state, distance::Avx2Dispatch());
}
BENCHMARK(BM_ScanEuclideanBatchSoA_Avx2)
    ->Args({1024, 128})
    ->Args({1024, 512})
    ->Args({64, 512});

void MultiQueryKernel(benchmark::State& state,
                      const distance::KernelDispatch& table) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 512;
  const ts::Dataset d = RandomDataset(n, len, 100);
  const ts::SoaStore store = Pack(d);
  const ts::RowBlock block = Block(store);
  std::vector<double> out(distance::kQueryBlock * n);
  for (auto _ : state) {
    table.squared_euclidean_multi_query(block, 0, distance::kQueryBlock,
                                        block, 0, n, out, n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * distance::kQueryBlock * n *
                          len);
  SetBandwidthCounters(
      state, 8.0 * static_cast<double>(n * len + distance::kQueryBlock * n));
}

void BM_ScanEuclideanMultiQuery_Scalar(benchmark::State& state) {
  MultiQueryKernel(state, distance::ScalarDispatch());
}
BENCHMARK(BM_ScanEuclideanMultiQuery_Scalar)->Arg(1024);

void BM_ScanEuclideanMultiQuery_Avx2(benchmark::State& state) {
  if (!RequireAvx2(state)) return;
  MultiQueryKernel(state, distance::Avx2Dispatch());
}
BENCHMARK(BM_ScanEuclideanMultiQuery_Avx2)->Arg(1024);

void DustClosedFormKernel(benchmark::State& state,
                          const distance::KernelDispatch& table) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 512;
  const ts::Dataset d = RandomDataset(n, len, 101);
  const ts::SoaStore store = Pack(d);
  const ts::RowBlock block = Block(store);
  distance::DustLut lut;
  lut.scale = 1.0;  // values == nullptr => closed form, no table loads
  std::vector<double> out(n);
  for (auto _ : state) {
    table.dust_range(block.row(0), block, lut, 0, n, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * len);
  SetBandwidthCounters(state, 8.0 * static_cast<double>(n * len + n));
}

void BM_DustKernelClosedForm_Scalar(benchmark::State& state) {
  DustClosedFormKernel(state, distance::ScalarDispatch());
}
BENCHMARK(BM_DustKernelClosedForm_Scalar)->Arg(1024);

void BM_DustKernelClosedForm_Avx2(benchmark::State& state) {
  if (!RequireAvx2(state)) return;
  DustClosedFormKernel(state, distance::Avx2Dispatch());
}
BENCHMARK(BM_DustKernelClosedForm_Avx2)->Arg(1024);

void DustLookupKernel(benchmark::State& state,
                      const distance::KernelDispatch& table) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 512;
  const ts::Dataset d = RandomDataset(n, len, 102);
  const ts::SoaStore store = Pack(d);
  const ts::RowBlock block = Block(store);
  const std::size_t cells = 2048;
  std::vector<double> values(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    values[i] = 0.1 + 0.001 * static_cast<double>(i);
  }
  distance::DustLut lut;
  lut.values = values.data();
  lut.size = cells;
  lut.delta_max = 16.0;
  lut.step = lut.delta_max / static_cast<double>(cells - 1);
  std::vector<double> out(n);
  for (auto _ : state) {
    table.dust_range(block.row(0), block, lut, 0, n, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * len);
  SetBandwidthCounters(state, 8.0 * static_cast<double>(n * len + n));
}

void BM_DustKernelLookup_Scalar(benchmark::State& state) {
  DustLookupKernel(state, distance::ScalarDispatch());
}
BENCHMARK(BM_DustKernelLookup_Scalar)->Arg(1024);

void BM_DustKernelLookup_Avx2(benchmark::State& state) {
  if (!RequireAvx2(state)) return;
  DustLookupKernel(state, distance::Avx2Dispatch());
}
BENCHMARK(BM_DustKernelLookup_Avx2)->Arg(1024);

void ProudMomentKernel(benchmark::State& state,
                       const distance::KernelDispatch& table) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 512;
  const ts::Dataset d = RandomDataset(n, len, 103);
  const ts::SoaStore store = Pack(d);
  const ts::RowBlock block = Block(store);
  std::vector<double> mean(n), var(n);
  for (auto _ : state) {
    table.proud_moment_range(block.row(0), block, 0.5, 0, n, mean, var);
    benchmark::DoNotOptimize(mean.data());
    benchmark::DoNotOptimize(var.data());
  }
  state.SetItemsProcessed(state.iterations() * n * len);
  SetBandwidthCounters(state, 8.0 * static_cast<double>(n * len + 2 * n));
}

void BM_ProudMomentKernel_Scalar(benchmark::State& state) {
  ProudMomentKernel(state, distance::ScalarDispatch());
}
BENCHMARK(BM_ProudMomentKernel_Scalar)->Arg(1024);

void BM_ProudMomentKernel_Avx2(benchmark::State& state) {
  if (!RequireAvx2(state)) return;
  ProudMomentKernel(state, distance::Avx2Dispatch());
}
BENCHMARK(BM_ProudMomentKernel_Avx2)->Arg(1024);

// The bandwidth ceiling itself as a benchmark: its achieved_GBps is what
// every peak_fraction counter is normalized by (to within run-to-run noise;
// the normalization uses the cached best-of-three TriadPeakGBps pass).
void BM_StreamTriadPeak(benchmark::State& state) {
  const std::size_t n = std::size_t{8} << 20;
  std::vector<double> a(n, 1.0), b(n, 2.0), c(n, 3.0);
  const double s = 0.42;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    benchmark::DoNotOptimize(a.data());
  }
  SetBandwidthCounters(state, 24.0 * static_cast<double>(n));
}
BENCHMARK(BM_StreamTriadPeak)->Unit(benchmark::kMillisecond);

// End-to-end 10-NN ground-truth build (every series as a query), the
// dominant cost of the paper's evaluation loop — seed path vs engine.
void BM_GroundTruthKnnSeedPath(benchmark::State& state) {
  const ts::Dataset d = RandomDataset(256, 128, 200);
  for (auto _ : state) {
    for (std::size_t q = 0; q < d.size(); ++q) {
      const ts::TimeSeries& query = d[q];
      benchmark::DoNotOptimize(query::KNearest(
          d.size(), q, 10, [&](std::size_t i) {
            return distance::Euclidean(query.values(), d[i].values());
          }));
    }
  }
  state.SetItemsProcessed(state.iterations() * d.size() * d.size() * 128);
}
BENCHMARK(BM_GroundTruthKnnSeedPath)->Unit(benchmark::kMillisecond);

// Threads-scaling sweep of the same build on the engine (Arg = threads).
void BM_GroundTruthKnnEngineThreads(benchmark::State& state) {
  const ts::Dataset d = RandomDataset(256, 128, 200);
  query::EngineOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  const auto engine =
      query::DistanceMatrixEngine::Create(d, options).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.AllKNearestEuclidean(10));
  }
  state.SetItemsProcessed(state.iterations() * d.size() * d.size() * 128);
}
BENCHMARK(BM_GroundTruthKnnEngineThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Storage-tier twin of the single-thread build above: the same dataset
// with the SoA store split into 32-row (32 KiB) blocks and paged through a
// ts::BufferPool whose budget keeps 2 of the 8 blocks resident, so every
// sweep pins, evicts and re-faults blocks from the spill log. The
// regression gate pairs this against BM_GroundTruthKnnEngineThreads/1 —
// the paged/resident time ratio bounds the pool's pin+fault overhead
// independent of machine speed — and holds a floor under the exported
// faults_per_iter counter, so a run that silently stopped paging (budget
// misapplied, store built resident) cannot pass as "cheap".
void BM_GroundTruthKnnEnginePaged(benchmark::State& state) {
  const ts::Dataset d = RandomDataset(256, 128, 200);
  ts::BufferPool::Options pool_options;
  pool_options.budget_bytes = std::size_t{64} << 10;
  auto pool = ts::BufferPool::Create(pool_options).ValueOrDie();
  query::EngineOptions options;
  options.threads = 1;
  options.buffer_pool = pool;
  options.block_rows = 32;  // packed dataset is 256 KiB = 8 such blocks
  const auto engine =
      query::DistanceMatrixEngine::Create(d, options).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.AllKNearestEuclidean(10));
  }
  state.SetItemsProcessed(state.iterations() * d.size() * d.size() * 128);
  state.counters["faults_per_iter"] =
      static_cast<double>(pool->stats().faults) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_GroundTruthKnnEnginePaged)->Unit(benchmark::kMillisecond);

// --- Index cascade: prune-before-score 10-NN on structured data --------------

// Random walks concentrate their energy in the low-frequency Haar
// coefficients, so the synopsis prefix captures most of each pairwise
// distance — the regime the index targets (iid noise, by contrast, leaves
// nothing for a 16-coefficient prefix to prune). The indexed/unindexed twin
// runs share one dataset so their time ratio isolates the cascade, and the
// indexed run exports its pruned_fraction: the regression gate
// (tools/check_bench_regression.py) holds a floor under it, so an index
// that silently stops pruning — or stops being built — fails CI loudly.
ts::Dataset RandomWalkDataset(std::size_t n_series, std::size_t length,
                              std::uint64_t seed) {
  prob::Rng rng(seed);
  ts::Dataset d("bench-walk");
  for (std::size_t i = 0; i < n_series; ++i) {
    std::vector<double> values(length);
    double level = rng.Gaussian();
    for (double& v : values) {
      level += rng.Gaussian();
      v = level;
    }
    d.Add(ts::TimeSeries(std::move(values)));
  }
  return d;
}

void BM_GroundTruthKnnEngineWalk(benchmark::State& state) {
  const ts::Dataset d = RandomWalkDataset(256, 512, 210);
  const auto engine = query::DistanceMatrixEngine::Create(d).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.AllKNearestEuclidean(10));
  }
  state.SetItemsProcessed(state.iterations() * d.size() * d.size() * d[0].size());
}
BENCHMARK(BM_GroundTruthKnnEngineWalk)->Unit(benchmark::kMillisecond);

void BM_GroundTruthKnnEngineWalkIndexed(benchmark::State& state) {
  const ts::Dataset d = RandomWalkDataset(256, 512, 210);
  query::EngineOptions options;
  options.index.enabled = true;
  const auto engine =
      query::DistanceMatrixEngine::Create(d, options).ValueOrDie();
  // The cascade is deterministic, so one pre-loop run yields the exact
  // per-iteration work accounting without perturbing the timed loop.
  index::SearchCost cost;
  benchmark::DoNotOptimize(engine.AllKNearestEuclidean(10, 0, &cost));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.AllKNearestEuclidean(10));
  }
  state.SetItemsProcessed(state.iterations() * d.size() * d.size() * d[0].size());
  const double total = static_cast<double>(cost.candidates_total);
  state.counters["pruned_fraction"] =
      static_cast<double>(cost.pruned_lower_bound) / total;
  state.counters["touched_fraction"] =
      static_cast<double>(cost.candidates_touched) / total;
}
BENCHMARK(BM_GroundTruthKnnEngineWalkIndexed)->Unit(benchmark::kMillisecond);

// --- Uncertain-measure sweeps: scalar path vs UncertainEngine ----------------

uncertain::UncertainDataset RandomUncertainDataset(std::size_t n_series,
                                                   std::size_t length,
                                                   std::uint64_t seed,
                                                   prob::ErrorKind kind,
                                                   double sigma) {
  auto err = prob::MakeError(kind, sigma);
  uncertain::UncertainDataset d;
  d.name = "bench-uncertain";
  for (std::size_t i = 0; i < n_series; ++i) {
    d.series.emplace_back(
        RandomSeries(length, seed + i),
        std::vector<prob::ErrorDistributionPtr>(length, err));
  }
  return d;
}

// The pre-engine path: one Dust::Distance call per candidate, per-point
// memoized table resolution, vector-of-vectors storage.
void BM_DustScanScalarClosedForm(benchmark::State& state) {
  const std::size_t n = 512, len = 290;
  const auto d =
      RandomUncertainDataset(n, len, 300, prob::ErrorKind::kNormal, 0.5);
  measures::Dust dust;
  (void)dust.Distance(d[0], d[1]);  // warm the table cache
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(dust.Distance(d[0], d[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() * n * len);
}
BENCHMARK(BM_DustScanScalarClosedForm)->Unit(benchmark::kMillisecond);

// The engine's sweep: SoA rows through the closed-form DustBatchRange fast
// path (dust(Δ) = |Δ| / sqrt(2(σx²+σy²)), no table loads).
void BM_DustScanEngineClosedForm(benchmark::State& state) {
  const std::size_t n = 512, len = 290;
  const auto d =
      RandomUncertainDataset(n, len, 300, prob::ErrorKind::kNormal, 0.5);
  measures::Dust dust;
  auto engine = query::UncertainEngine::Create(d).ValueOrDie();
  if (!engine->BuildDustTables(dust).ok()) state.SkipWithError("table build");
  const query::Query sweep{.measure = query::Measure::kDust,
                           .kind = query::QueryKind::kSweep};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Answer(sweep));
  }
  state.SetItemsProcessed(state.iterations() * n * len);
}
BENCHMARK(BM_DustScanEngineClosedForm)->Unit(benchmark::kMillisecond);

// Table-lookup flavor (uniform error => numeric tables): scalar vs the
// blocked DustLut batch kernel.
void BM_DustScanScalarLookup(benchmark::State& state) {
  const std::size_t n = 512, len = 290;
  const auto d =
      RandomUncertainDataset(n, len, 301, prob::ErrorKind::kUniform, 0.5);
  measures::Dust dust;
  (void)dust.Distance(d[0], d[1]);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(dust.Distance(d[0], d[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() * n * len);
}
BENCHMARK(BM_DustScanScalarLookup)->Unit(benchmark::kMillisecond);

void BM_DustScanEngineLookup(benchmark::State& state) {
  const std::size_t n = 512, len = 290;
  const auto d =
      RandomUncertainDataset(n, len, 301, prob::ErrorKind::kUniform, 0.5);
  measures::Dust dust;
  auto engine = query::UncertainEngine::Create(d).ValueOrDie();
  if (!engine->BuildDustTables(dust).ok()) state.SkipWithError("table build");
  const query::Query sweep{.measure = query::Measure::kDust,
                           .kind = query::QueryKind::kSweep};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Answer(sweep));
  }
  state.SetItemsProcessed(state.iterations() * n * len);
}
BENCHMARK(BM_DustScanEngineLookup)->Unit(benchmark::kMillisecond);

// PROUD ε_norm sweep: per-candidate scalar MatchProbability calls vs the
// fused constant-σ moment batch kernel over the SoA store.
void BM_ProudScanScalar(benchmark::State& state) {
  const std::size_t n = 512, len = 290;
  const auto d =
      RandomUncertainDataset(n, len, 302, prob::ErrorKind::kNormal, 0.5);
  measures::Proud proud({.tau = 0.9, .sigma = 0.5});
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(
          proud.MatchProbability(d[0].observations(), d[i].observations(),
                                 8.0));
    }
  }
  state.SetItemsProcessed(state.iterations() * n * len);
}
BENCHMARK(BM_ProudScanScalar)->Unit(benchmark::kMillisecond);

void BM_ProudScanEngineMomentBatch(benchmark::State& state) {
  const std::size_t n = 512, len = 290;
  const auto d =
      RandomUncertainDataset(n, len, 302, prob::ErrorKind::kNormal, 0.5);
  query::UncertainEngineOptions options;
  options.proud_sigma = 0.5;
  auto engine = query::UncertainEngine::Create(d, options).ValueOrDie();
  const query::Query sweep{.measure = query::Measure::kProud,
                           .kind = query::QueryKind::kSweep,
                           .epsilon = 8.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Answer(sweep));
  }
  state.SetItemsProcessed(state.iterations() * n * len);
}
BENCHMARK(BM_ProudScanEngineMomentBatch)->Unit(benchmark::kMillisecond);

// MUNICH bounds filter: per-pair interval rescans vs the engine's
// precomputed min/max columns (both feed the same estimator afterwards).
void BM_MunichBoundsFromColumns(benchmark::State& state) {
  const std::size_t n = 64, len = 290;
  ts::Dataset exact("bench");
  for (std::size_t i = 0; i < n; ++i) {
    exact.Add(ts::TimeSeries(RandomSeries(len, 304 + i)));
  }
  const auto spec =
      uncertain::ErrorSpec::Constant(prob::ErrorKind::kNormal, 0.5);
  const auto pdf = uncertain::PerturbDataset(exact, spec, 305);
  const auto samples =
      uncertain::PerturbDatasetMultiSample(exact, spec, 5, 306);
  query::UncertainEngineOptions options;
  // ε = 0 keeps every pair out of reach: the sweep cost is the bounds
  // filter alone (certain-reject for all candidates).
  auto engine = query::UncertainEngine::Create(pdf, options).ValueOrDie();
  if (!engine->AttachSamples(samples).ok()) state.SkipWithError("attach");
  const query::Query sweep{.measure = query::Measure::kMunich,
                           .kind = query::QueryKind::kSweep};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Answer(sweep));
  }
  state.SetItemsProcessed(state.iterations() * n * len);
}
BENCHMARK(BM_MunichBoundsFromColumns)->Unit(benchmark::kMillisecond);

void BM_PerturbSeries(benchmark::State& state) {
  const ts::TimeSeries exact(RandomSeries(290, 28));
  const auto spec = uncertain::ErrorSpec::MixedSigma(prob::ErrorKind::kNormal);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(uncertain::PerturbSeries(exact, spec, ++seed));
  }
}
BENCHMARK(BM_PerturbSeries);

}  // namespace

int main(int argc, char** argv) {
  // Tolerate the harness-style flags the bench loop passes uniformly.
  std::vector<char*> filtered;
  bool has_out = false;
  bool has_format = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick" || arg == "--paper") continue;
    if (arg == "--force-scalar") {
      // Engines and ResolveDispatch(kAuto) consult the override at
      // construction/resolve time, so one env flip pins every benchmark
      // (the *_Avx2 kernel variants then skip with an error note).
      setenv("UNCERTTS_FORCE_SCALAR", "1", 1);
      continue;
    }
    if (arg.rfind("--benchmark_out=", 0) == 0) has_out = true;
    if (arg.rfind("--benchmark_out_format=", 0) == 0) has_format = true;
    filtered.push_back(argv[i]);
  }
  // Always leave an artifact behind so perf is trackable across PRs; never
  // override flags the caller passed explicitly.
  std::string default_out = "--benchmark_out=micro_kernels.json";
  std::string default_fmt = "--benchmark_out_format=json";
  if (!has_out) filtered.push_back(default_out.data());
  if (!has_format) filtered.push_back(default_fmt.data());
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  // The stock "library_build_type" context key describes how the
  // google-benchmark *library* was built (distro packages often say "debug"
  // there even under -O3). Emit the same key for this binary's own build
  // type: AddCustomContext appends it after the stock one, and JSON parsers
  // that keep the last duplicate key (e.g. Python's json.load, used by
  // tools/check_bench_regression.py) see the value that actually matters
  // for kernel timings.
  benchmark::AddCustomContext("library_build_type", UtsBuildType());
  benchmark::AddCustomContext("uts_build_type", UtsBuildType());
  benchmark::AddCustomContext(
      "uts_simd_level",
      distance::SimdLevelName(
          distance::ResolveDispatch(distance::SimdMode::kAuto).level));
  benchmark::AddCustomContext("triad_peak_GBps",
                              std::to_string(TriadPeakGBps()));
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
