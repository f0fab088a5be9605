#include "query/uncertain_engine.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "exec/parallel_for.hpp"
#include "index/cascade.hpp"
#include "prob/rng.hpp"
#include "prob/special.hpp"

namespace uts::query {

UncertainEngine::UncertainEngine(UncertainEngineOptions options)
    : options_(options),
      dispatch_(&distance::ResolveDispatch(options.simd)) {
  if (options_.grain == 0) options_.grain = 1;
  proud_v_ = 2.0 * options_.proud_sigma * options_.proud_sigma;
  if (options_.shared_pool != nullptr) {
    pool_ = options_.shared_pool;
    return;
  }
  std::size_t threads = options_.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads > 1) {
    owned_pool_ = std::make_unique<exec::ThreadPool>(threads);
    pool_ = owned_pool_.get();
  }
}

UncertainEngine::~UncertainEngine() = default;

std::size_t UncertainEngine::threads() const {
  return pool_ ? pool_->size() : 1;
}

detail::ScanTarget UncertainEngine::Target() const {
  return {ts::StoreView(store_), dispatch_, pool_, options_.grain,
          synopsis_index_.get()};
}

Status UncertainEngine::CheckShape(const uncertain::UncertainDataset& pdf) {
  if (pdf.size() == 0) {
    return Status::InvalidArgument("uncertain engine needs a non-empty "
                                   "dataset");
  }
  const std::size_t len = pdf[0].size();
  if (len == 0) {
    return Status::InvalidArgument("uncertain engine needs non-empty series");
  }
  for (const uncertain::UncertainSeries& series : pdf.series) {
    if (series.size() != len) {
      return Status::InvalidArgument(
          "uncertain engine needs series of uniform length");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<UncertainEngine>> UncertainEngine::Create(
    const uncertain::UncertainDataset& pdf, UncertainEngineOptions options) {
  UTS_RETURN_NOT_OK(CheckShape(pdf));
  const std::size_t n = pdf.size();
  const std::size_t len = pdf[0].size();

  std::unique_ptr<UncertainEngine> engine(
      new UncertainEngine(std::move(options)));

  // --- Pack observations + error-class ids ---------------------------------
  // Class resolution is layered like measures::Dust's table cache: a
  // last-seen-pointer memo (consecutive points usually share one
  // distribution), then a pointer-keyed map, and only for a never-seen
  // pointer the semantic string key — so a dataset pays one Key() call per
  // distinct model object (ErrorSpec::Assign builds a few per series), not
  // one per point.
  std::vector<double> values;
  values.reserve(n * len);
  std::map<std::string, std::uint16_t> class_of;
  std::map<const void*, std::uint16_t> class_of_ptr;
  const prob::ErrorDistribution* last_ptr = nullptr;
  std::uint16_t last_id = 0;
  engine->class_ids_.resize(n * len);
  for (std::size_t s = 0; s < n; ++s) {
    const uncertain::UncertainSeries& series = pdf[s];
    for (std::size_t t = 0; t < len; ++t) {
      values.push_back(series.observation(t));
      const auto& err = series.error(t);
      if (err.get() != last_ptr) {
        auto pit = class_of_ptr.find(err.get());
        if (pit == class_of_ptr.end()) {
          auto [it, inserted] = class_of.emplace(
              err->Key(),
              static_cast<std::uint16_t>(engine->class_dists_.size()));
          if (inserted) {
            if (engine->class_dists_.size() >= 0xffff) {
              return Status::NotSupported(
                  "uncertain engine supports at most 65535 distinct error "
                  "models");
            }
            engine->class_dists_.push_back(err);
          }
          pit = class_of_ptr.emplace(err.get(), it->second).first;
        }
        last_ptr = err.get();
        last_id = pit->second;
      }
      engine->class_ids_[s * len + t] = last_id;
    }
  }
  engine->num_classes_ = engine->class_dists_.size();
  auto store = ts::SoaStore::FromPacked(std::move(values), len,
                                        engine->options_.buffer_pool,
                                        engine->options_.block_rows);
  if (!store.ok()) return store.status();
  engine->store_ = std::move(store).ValueOrDie();
  if (engine->options_.index.enabled) {
    engine->synopsis_index_ = std::make_unique<index::SynopsisIndex>(
        engine->store_, engine->options_.index.synopsis_coefficients);
  }
  return engine;
}

// --- Euclidean ---------------------------------------------------------------

std::vector<Neighbor> UncertainEngine::KNearestEuclidean(
    std::size_t query, std::size_t k, index::SearchCost* cost) const {
  assert(query < size());
  return detail::KNearestEuclidean(Target(), query, k, cost);
}

std::vector<std::size_t> UncertainEngine::RangeSearchEuclidean(
    std::size_t query, double epsilon, index::SearchCost* cost) const {
  assert(query < size());
  return detail::RangeSearchEuclidean(Target(), query, epsilon, cost);
}

double UncertainEngine::EuclideanDistance(std::size_t query,
                                          std::size_t candidate) const {
  assert(query < size() && candidate < size());
  return detail::EuclideanDistance(Target(), query, candidate);
}

// --- DUST --------------------------------------------------------------------

Status UncertainEngine::BuildDustTables(measures::Dust& cache) {
  if (dust_ready_) return Status::OK();
  const std::size_t k = num_classes_;
  dust_luts_.assign(k * k, distance::DustLut{});
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a; b < k; ++b) {
      // The cache canonicalizes pair order internally (Dust::TableFor), so
      // borrowed tables are bitwise the ones the scalar measure serves. The
      // lookup is by key: a persistent cache must not keep the models of
      // every dataset it ever served alive.
      auto table = cache.TableByKey(*class_dists_[a], *class_dists_[b]);
      if (!table.ok()) return table.status();
      const distance::DustLut lut = table.ValueOrDie()->Lut();
      dust_luts_[a * k + b] = lut;
      dust_luts_[b * k + a] = lut;
    }
  }
  // Minorant of every table: turns the synopsis Euclidean bounds into DUST
  // bounds. Harmless when no index was built; invalid maps simply disable
  // the DUST cascade.
  dust_bound_ = index::DustLowerBoundMap::FromLuts(dust_luts_);
  dust_ready_ = true;
  return Status::OK();
}

Status UncertainEngine::RequireDustTables() const {
  if (dust_ready_) return Status::OK();
  return Status::InvalidArgument(
      "DUST tables not built; call BuildDustTables first");
}

detail::ChunkScorer UncertainEngine::DustScorer(
    std::size_t query, std::span<const double> qrow) const {
  if (num_classes_ == 1) {
    const distance::DustLut* lut = &dust_luts_.front();
    return [this, qrow, lut](const ts::RowChunk& chunk,
                             const ts::StoreView::PinnedBlock& pin,
                             std::span<double> out) {
      const std::size_t begin = chunk.begin - pin.first_row();
      dispatch_->dust_range(qrow, pin.block(), *lut, begin,
                            begin + out.size(), out);
    };
  }
  // Row t: the K luts pairing the query's class at t with each class.
  const std::size_t len = length();
  std::vector<const distance::DustLut*> qluts(len);
  for (std::size_t t = 0; t < len; ++t) {
    qluts[t] = &dust_luts_[class_ids_[query * len + t] * num_classes_];
  }
  return [this, qrow, len, qluts = std::move(qluts)](
             const ts::RowChunk& chunk, const ts::StoreView::PinnedBlock& pin,
             std::span<double> out) {
    const std::size_t begin = chunk.begin - pin.first_row();
    const std::span<const std::uint16_t> block_ids =
        std::span<const std::uint16_t>(class_ids_)
            .subspan(pin.first_row() * len, pin.block().rows() * len);
    dispatch_->dust_classed_range(qrow, pin.block(), qluts, block_ids, begin,
                                  begin + out.size(), out);
  };
}

Result<std::vector<double>> UncertainEngine::DustDistances(
    std::size_t query) const {
  assert(query < size());
  UTS_RETURN_NOT_OK(RequireDustTables());
  const auto query_pin = ts::PinRowOrAbort(ts::StoreView(store_), query);
  return detail::ScanRows(Target(), DustScorer(query, query_pin.row()));
}

Result<double> UncertainEngine::DustDistance(std::size_t query,
                                             std::size_t candidate) const {
  assert(query < size() && candidate < size());
  UTS_RETURN_NOT_OK(RequireDustTables());
  const ts::StoreView view(store_);
  const auto query_pin = ts::PinRowOrAbort(view, query);
  return detail::ScoreRow(view, candidate, DustScorer(query, query_pin.row()));
}

std::vector<double> UncertainEngine::DustCascadeLowerBounds(
    std::span<const double> qrow) const {
  // Stage-1 bounds: Haar-synopsis Euclidean lower bounds on the observation
  // rows, mapped through the table minorant into the DUST metric.
  std::vector<double> bounds(size(), 0.0);
  synopsis_index_->EuclideanLowerBounds(synopsis_index_->Synopsize(qrow),
                                        bounds);
  for (double& b : bounds) b = dust_bound_(b);
  return bounds;
}

Result<std::vector<Neighbor>> UncertainEngine::KNearestDust(
    std::size_t query, std::size_t k, index::SearchCost* cost) const {
  UTS_RETURN_NOT_OK(RequireDustTables());
  const ts::StoreView view(store_);
  const auto query_pin = ts::PinRowOrAbort(view, query);
  const detail::ChunkScorer score = DustScorer(query, query_pin.row());
  if (dust_index_enabled()) {
    return index::CascadeKNearest(
        DustCascadeLowerBounds(query_pin.row()), query, k,
        [&](std::size_t row, double) {
          return detail::ScoreRow(view, row, score);
        },
        cost);
  }
  detail::ChargeFullScan(cost, size() - 1);
  return detail::SelectKSmallest(detail::ScanRows(Target(), score), query, k);
}

Result<std::vector<std::size_t>> UncertainEngine::RangeSearchDust(
    std::size_t query, double epsilon, index::SearchCost* cost) const {
  UTS_RETURN_NOT_OK(RequireDustTables());
  const ts::StoreView view(store_);
  const auto query_pin = ts::PinRowOrAbort(view, query);
  const detail::ChunkScorer score = DustScorer(query, query_pin.row());
  if (dust_index_enabled()) {
    return index::CascadeRangeSearch(
        DustCascadeLowerBounds(query_pin.row()), query, epsilon,
        [&](std::size_t row, double) {
          return detail::ScoreRow(view, row, score);
        },
        cost);
  }
  detail::ChargeFullScan(cost, size() - 1);
  return detail::SelectThreshold(detail::ScanRows(Target(), score), query,
                                 epsilon, detail::Keep::kAtMost);
}

// --- PROUD -------------------------------------------------------------------

namespace {

/// Constant-σ PROUD chunk scorer of row `qrow` (pinned by the caller): each
/// candidate's distance mean goes to its scan slot, its variance to `var`.
auto ProudMomentScorer(const distance::KernelDispatch* dispatch, double v,
                       std::span<const double> qrow,
                       std::vector<double>& var) {
  return [dispatch, v, qrow, &var](const ts::RowChunk& chunk,
                                   const ts::StoreView::PinnedBlock& pin,
                                   std::span<double> out) {
    const std::size_t begin = chunk.begin - pin.first_row();
    dispatch->proud_moment_range(
        qrow, pin.block(), v, begin, begin + out.size(), out,
        std::span<double>(var).subspan(chunk.begin, out.size()));
  };
}

}  // namespace

std::vector<double> UncertainEngine::ProudMatchProbabilities(
    std::size_t query, double epsilon) const {
  assert(query < size());
  std::vector<double> var(size(), 0.0);
  const auto query_pin = ts::PinRowOrAbort(ts::StoreView(store_), query);
  const auto moments =
      ProudMomentScorer(dispatch_, proud_v_, query_pin.row(), var);
  return detail::ScanRows(
      Target(), [&](const ts::RowChunk& chunk,
                    const ts::StoreView::PinnedBlock& pin,
                    std::span<double> out) {
        moments(chunk, pin, out);
        // The chunk's distance means become match probabilities at ε.
        for (std::size_t i = 0; i < out.size(); ++i) {
          out[i] = measures::Proud::ProbabilityFromStats(
              {out[i], var[chunk.begin + i]}, epsilon);
        }
      });
}

std::vector<std::size_t> UncertainEngine::ProbabilisticRangeSearchProud(
    std::size_t query, double epsilon, double tau) const {
  return std::move(ProbabilisticRangeSearchProud(
      query, epsilon, std::span<const double>(&tau, 1)).front());
}

std::vector<std::vector<std::size_t>>
UncertainEngine::ProbabilisticRangeSearchProud(
    std::size_t query, double epsilon, std::span<const double> taus) const {
  assert(query < size());
  const std::size_t n = size();
  std::vector<double> var(n, 0.0);
  const auto query_pin = ts::PinRowOrAbort(ts::StoreView(store_), query);
  const std::vector<double> mean = detail::ScanRows(
      Target(), ProudMomentScorer(dispatch_, proud_v_, query_pin.row(), var));
  // ε_limit = Φ⁻¹(τ) once per τ; each candidate's margin is scored once and
  // decided against every limit, in ascending candidate order.
  std::vector<double> limits(taus.size());
  for (std::size_t t = 0; t < taus.size(); ++t) {
    limits[t] = prob::NormalQuantile(taus[t]);
  }
  std::vector<std::vector<std::size_t>> matches(taus.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i == query) continue;
    const measures::ProudMargin margin =
        measures::Proud::MarginFromStats({mean[i], var[i]}, epsilon);
    for (std::size_t t = 0; t < limits.size(); ++t) {
      if (margin.Decide(limits[t])) matches[t].push_back(i);
    }
  }
  return matches;
}

std::vector<Neighbor> UncertainEngine::KNearestProud(std::size_t query,
                                                     double epsilon,
                                                     std::size_t k) const {
  return detail::SelectKLargest(ProudMatchProbabilities(query, epsilon),
                                query, k);
}

// --- MUNICH ------------------------------------------------------------------

Status UncertainEngine::AttachSamples(
    const uncertain::MultiSampleDataset& samples) {
  if (samples.size() != size()) {
    return Status::InvalidArgument(
        "sample-model dataset size does not match the pdf dataset");
  }
  const std::size_t n = size();
  const std::size_t len = length();
  std::vector<double> lo(n * len), hi(n * len);
  for (std::size_t s = 0; s < n; ++s) {
    const uncertain::MultiSampleSeries& series = samples[s];
    if (series.size() != len) {
      return Status::InvalidArgument(
          "sample-model series length does not match the pdf dataset");
    }
    for (std::size_t t = 0; t < len; ++t) {
      if (series.num_samples(t) == 0) {
        return Status::InvalidArgument("timestamp without observations");
      }
      std::tie(lo[s * len + t], hi[s * len + t]) = series.BoundingInterval(t);
    }
  }
  auto lo_store = ts::SoaStore::FromPacked(std::move(lo), len,
                                           options_.buffer_pool,
                                           options_.block_rows);
  if (!lo_store.ok()) return lo_store.status();
  auto hi_store = ts::SoaStore::FromPacked(std::move(hi), len,
                                           options_.buffer_pool,
                                           options_.block_rows);
  if (!hi_store.ok()) return hi_store.status();
  sample_lo_ = std::move(lo_store).ValueOrDie();
  sample_hi_ = std::move(hi_store).ValueOrDie();
  samples_ = &samples;
  return Status::OK();
}

Result<double> UncertainEngine::MunichPairProbability(
    std::size_t qi, std::size_t ci, double epsilon,
    const measures::MunichOptions& munich) const {
  const uncertain::MultiSampleSeries& x = (*samples_)[qi];
  const uncertain::MultiSampleSeries& y = (*samples_)[ci];
  measures::MunichOptions options = munich;
  if (options.use_bounds_filter) {
    const ts::StoreView lo_view(sample_lo_), hi_view(sample_hi_);
    const auto qlo = ts::PinRowOrAbort(lo_view, qi);
    const auto qhi = ts::PinRowOrAbort(hi_view, qi);
    const auto clo = ts::PinRowOrAbort(lo_view, ci);
    const auto chi = ts::PinRowOrAbort(hi_view, ci);
    const measures::DistanceBounds bounds =
        measures::Munich::EuclideanBoundsFromIntervals(
            qlo.row(), qhi.row(), clo.row(), chi.row());
    if (bounds.upper <= epsilon) return 1.0;
    if (bounds.lower > epsilon) return 0.0;
    // The filter did not decide; hand the estimator a filter-free matcher
    // so the bounds are not recomputed from the raw samples.
    options.use_bounds_filter = false;
  }
  // Counter-based: the stream of pair (qi, ci) depends only on the pair
  // counter and the engine seed — never on evaluation order or thread
  // placement — and the evaluation matchers derive it the same way.
  return measures::Munich(options).MatchProbability(
      x, y, epsilon, prob::PairStreamSeed(options_.seed, qi, ci, size()));
}

Result<std::vector<double>> UncertainEngine::MunichMatchProbabilities(
    std::size_t query, double epsilon,
    const measures::MunichOptions& munich) const {
  assert(query < size());
  if (samples_ == nullptr) {
    return Status::InvalidArgument(
        "no sample-model dataset attached (required by MUNICH)");
  }
  const std::size_t n = size();
  std::vector<double> probs(n, 0.0);
  std::vector<Status> statuses(exec::NumChunks(n, options_.grain),
                               Status::OK());
  exec::ParallelFor(pool_, n, options_.grain,
                    [&](std::size_t begin, std::size_t end) {
                      Status& status = statuses[begin / options_.grain];
                      for (std::size_t i = begin; i < end; ++i) {
                        if (i == query) continue;
                        auto p =
                            MunichPairProbability(query, i, epsilon, munich);
                        if (!p.ok()) {
                          status = p.status();
                          return;
                        }
                        probs[i] = p.ValueOrDie();
                      }
                    });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return probs;
}

Result<std::vector<std::size_t>> UncertainEngine::ProbabilisticRangeSearchMunich(
    std::size_t query, double epsilon, double tau,
    const measures::MunichOptions& munich) const {
  auto probs = MunichMatchProbabilities(query, epsilon, munich);
  if (!probs.ok()) return probs.status();
  return detail::SelectThreshold(probs.ValueOrDie(), query, tau,
                                 detail::Keep::kAtLeast);
}

Result<std::vector<Neighbor>> UncertainEngine::KNearestMunich(
    std::size_t query, double epsilon, std::size_t k,
    const measures::MunichOptions& munich) const {
  auto probs = MunichMatchProbabilities(query, epsilon, munich);
  if (!probs.ok()) return probs.status();
  return detail::SelectKLargest(probs.ValueOrDie(), query, k);
}

}  // namespace uts::query
