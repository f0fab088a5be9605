#include "query/uncertain_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

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

namespace {

/// `pdf` in flat form: its observations, and its error models interned by
/// Key() in first-seen row-major order. A last-seen-pointer memo
/// (consecutive points usually share one model object) and a pointer-keyed
/// map keep the string key to one call per distinct model object.
/// Precondition: CheckShape(pdf) passed.
Result<uncertain::UncertainPack> PackObjects(
    const uncertain::UncertainDataset& pdf) {
  uncertain::UncertainPack pack;
  pack.rows = pdf.size();
  pack.length = pdf[0].size();
  pack.observations.reserve(pack.rows * pack.length);
  pack.class_ids.resize(pack.rows * pack.length);
  std::map<std::string, std::uint16_t> class_of;
  std::map<const void*, std::uint16_t> class_of_ptr;
  const prob::ErrorDistribution* last_ptr = nullptr;
  std::uint16_t last_id = 0;
  for (std::size_t s = 0; s < pack.rows; ++s) {
    const uncertain::UncertainSeries& series = pdf[s];
    for (std::size_t t = 0; t < pack.length; ++t) {
      pack.observations.push_back(series.observation(t));
      const auto& err = series.error(t);
      if (err.get() != last_ptr) {
        auto pit = class_of_ptr.find(err.get());
        if (pit == class_of_ptr.end()) {
          auto [it, inserted] = class_of.emplace(
              err->Key(), static_cast<std::uint16_t>(pack.classes.size()));
          if (inserted) {
            if (pack.classes.size() >= 0xffff) {
              return Status::NotSupported(
                  "uncertain engine supports at most 65535 distinct error "
                  "models");
            }
            pack.classes.push_back(err);
          }
          pit = class_of_ptr.emplace(err.get(), it->second).first;
        }
        last_ptr = err.get();
        last_id = pit->second;
      }
      pack.class_ids[s * pack.length + t] = last_id;
    }
  }
  return pack;
}

}  // namespace

Result<std::unique_ptr<UncertainEngine>> UncertainEngine::Create(
    const uncertain::UncertainDataset& pdf, UncertainEngineOptions options) {
  UTS_RETURN_NOT_OK(CheckShape(pdf));
  UTS_ASSIGN_OR_RETURN(uncertain::UncertainPack pack, PackObjects(pdf));
  return Create(std::move(pack), std::move(options));
}

Result<std::unique_ptr<UncertainEngine>> UncertainEngine::Create(
    uncertain::UncertainPack pack, UncertainEngineOptions options) {
  if (pack.rows == 0 || pack.length == 0) {
    return Status::InvalidArgument("uncertain engine needs a non-empty "
                                   "dataset of non-empty series");
  }
  if (pack.observations.size() != pack.rows * pack.length ||
      pack.class_ids.size() != pack.observations.size()) {
    return Status::InvalidArgument(
        "uncertain pack needs one observation and one class id per point");
  }
  for (const std::uint16_t id : pack.class_ids) {
    if (id >= pack.classes.size()) {
      return Status::InvalidArgument("uncertain pack class id out of range");
    }
  }
  std::unique_ptr<UncertainEngine> engine(
      new UncertainEngine(std::move(options)));
  engine->class_ids_ = std::move(pack.class_ids);
  engine->class_dists_ = std::move(pack.classes);
  engine->num_classes_ = engine->class_dists_.size();
  UTS_ASSIGN_OR_RETURN(
      engine->store_,
      ts::SoaStore::FromPacked(std::move(pack.observations), pack.length,
                               engine->options_.buffer_pool,
                               engine->options_.block_rows));
  if (engine->options_.index.enabled) {
    engine->synopsis_index_ = std::make_unique<index::SynopsisIndex>(
        engine->store_, engine->options_.index.synopsis_coefficients);
  }
  return engine;
}

// --- Measure state -----------------------------------------------------------

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
  // Same stride and block rows as the observation store, so the interval
  // columns block exactly like the rows a scan partitions.
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

// --- Measure plug-ins --------------------------------------------------------

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
      return Status::OK();
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
    return Status::OK();
  };
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Constant-σ PROUD chunk scorer of row `qrow` (pinned by the caller): each
/// candidate's Pr(distance <= ε), or with `margin` its ε_norm — ±∞ for a
/// degenerate (σ = 0) pair, so `ε_norm >= Φ⁻¹(τ)` is ProudMargin::Decide
/// for every τ in (0, 1).
detail::ChunkScorer ProudScorer(const distance::KernelDispatch* dispatch,
                                double v, std::span<const double> qrow,
                                double epsilon, bool margin) {
  return [=](const ts::RowChunk& chunk, const ts::StoreView::PinnedBlock& pin,
             std::span<double> out) {
    std::vector<double> var(out.size());
    const std::size_t begin = chunk.begin - pin.first_row();
    dispatch->proud_moment_range(qrow, pin.block(), v, begin,
                                 begin + out.size(), out, var);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const measures::ProudStats stats{out[i], var[i]};
      if (!margin) {
        out[i] = measures::Proud::ProbabilityFromStats(stats, epsilon);
        continue;
      }
      const measures::ProudMargin m =
          measures::Proud::MarginFromStats(stats, epsilon);
      out[i] = !m.degenerate ? m.eps_norm : m.within ? kInf : -kInf;
    }
    return Status::OK();
  };
}

/// MUNICH chunk scorer of series `query` over the lower interval column's
/// blocks: the bounds filter from the interval rows (the query's are
/// `qlo`/`qhi`, pinned by the caller), then the estimator on the samples.
/// The self slot stays 0. A refused pair fails the chunk.
detail::ChunkScorer MunichScorer(const uncertain::MultiSampleDataset& samples,
                                 ts::StoreView hi_column,
                                 std::span<const double> qlo,
                                 std::span<const double> qhi,
                                 std::size_t query, double epsilon,
                                 const measures::MunichOptions& munich,
                                 std::uint64_t seed) {
  // Pairs the filter leaves undecided go to a filter-free estimator, so
  // the bounds are not recomputed from the raw samples.
  measures::MunichOptions unfiltered = munich;
  unfiltered.use_bounds_filter = false;
  return [&samples, hi_column, qlo, qhi, query, epsilon,
          filter = munich.use_bounds_filter,
          estimator = measures::Munich(unfiltered),
          seed](const ts::RowChunk& chunk,
                const ts::StoreView::PinnedBlock& lo_pin,
                std::span<double> out) -> Status {
    UTS_ASSIGN_OR_RETURN(const ts::StoreView::PinnedBlock hi_pin,
                         hi_column.Pin(chunk.block));
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::size_t c = chunk.begin + i;
      if (c == query) continue;
      if (filter) {
        const std::size_t local = c - lo_pin.first_row();
        const measures::DistanceBounds bounds =
            measures::Munich::EuclideanBoundsFromIntervals(
                qlo, qhi, lo_pin.block().row(local),
                hi_pin.block().row(local));
        if (bounds.upper <= epsilon) {
          out[i] = 1.0;
          continue;
        }
        if (bounds.lower > epsilon) {
          out[i] = 0.0;
          continue;
        }
      }
      // Counter-based: the stream of pair (query, c) depends only on the
      // pair counter and the engine seed — never on evaluation order or
      // thread placement — and the evaluation matchers derive it the same
      // way.
      UTS_ASSIGN_OR_RETURN(
          out[i], estimator.MatchProbability(
                      samples[query], samples[c], epsilon,
                      prob::PairStreamSeed(seed, query, c, samples.size())));
    }
    return Status::OK();
  };
}

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kKnn: return "knn";
    case QueryKind::kRange: return "range";
    case QueryKind::kPrq: return "prq";
    case QueryKind::kSweep: return "sweep";
    case QueryKind::kScore: return "score";
  }
  return "query";
}

bool ScoresProbability(Measure measure) {
  return measure == Measure::kProud || measure == Measure::kMunich;
}

}  // namespace

detail::ScanTarget UncertainEngine::Target() const {
  return {ts::StoreView(store_), dispatch_, pool_, options_.grain};
}

Result<detail::MeasureScan> UncertainEngine::Scan(
    const Query& q, index::SearchCost* cost) const {
  // Only kNN and range select through the index cascade.
  const bool cascade = q.kind == QueryKind::kKnn || q.kind == QueryKind::kRange;
  if (q.measure == Measure::kEuclidean) {
    detail::ScanTarget target = Target();
    if (cascade) target.synopsis = synopsis_index_.get();
    return detail::EuclideanScan(target, q.query, cost);
  }
  detail::MeasureScan scan{Target()};
  scan.descending = ScoresProbability(q.measure);
  if (q.measure == Measure::kMunich) {
    scan.target.view = ts::StoreView(sample_lo_);
    for (const ts::SoaStore* column : {&sample_lo_, &sample_hi_}) {
      UTS_ASSIGN_OR_RETURN(ts::StoreView::PinnedRow pin,
                           ts::StoreView(*column).PinRow(q.query));
      scan.pins.push_back(std::move(pin));
    }
    scan.score = MunichScorer(*samples_, ts::StoreView(sample_hi_),
                              scan.pins[0].row(), scan.pins[1].row(), q.query,
                              q.epsilon, q.munich, options_.seed);
    return scan;
  }
  UTS_ASSIGN_OR_RETURN(ts::StoreView::PinnedRow pin,
                       scan.target.view.PinRow(q.query));
  const std::span<const double> qrow = pin.row();
  scan.pins.push_back(std::move(pin));
  if (q.measure == Measure::kProud) {
    scan.score = ProudScorer(dispatch_, proud_v_, qrow, q.epsilon,
                             q.kind == QueryKind::kPrq);
    return scan;
  }
  scan.score = DustScorer(q.query, qrow);
  if (cascade && dust_index_enabled()) {
    // Stage-1 bounds: Haar-synopsis Euclidean lower bounds on the
    // observation rows, mapped through the table minorant into the DUST
    // metric.
    scan.lower_bounds = [this, qrow] {
      std::vector<double> bounds(size(), 0.0);
      synopsis_index_->EuclideanLowerBounds(synopsis_index_->Synopsize(qrow),
                                            bounds);
      for (double& b : bounds) b = dust_bound_(b);
      return bounds;
    };
  }
  return scan;
}

Status UncertainEngine::Check(const Query& q) const {
  const bool probability = ScoresProbability(q.measure);
  const auto invalid = [&q](const std::string& what) {
    return Status::InvalidArgument(std::string(KindName(q.kind)) + ": " +
                                   what);
  };
  if (q.kind == QueryKind::kRange && probability) {
    return invalid("PROUD/MUNICH are probabilistic — use PRQ");
  }
  if (q.kind == QueryKind::kPrq && !probability) {
    return invalid(
        "only the probabilistic measures (PROUD, MUNICH) answer PRQ");
  }
  const std::size_t last =
      q.kind == QueryKind::kScore ? std::max(q.query, q.candidate) : q.query;
  if (last >= size()) {
    return invalid("series index " + std::to_string(last) +
                   " out of range (" + std::to_string(size()) + " series)");
  }
  if (q.kind == QueryKind::kKnn && q.k == 0) return invalid("k must be >= 1");
  if ((probability || q.kind == QueryKind::kRange) &&
      !(std::isfinite(q.epsilon) && q.epsilon >= 0.0)) {
    return invalid("epsilon must be finite and >= 0");
  }
  if (q.kind == QueryKind::kPrq) {
    // Φ⁻¹(τ) is ∓inf at 0 and 1: every candidate would match, or none.
    for (const double tau : q.taus) {
      if (!(tau > 0.0 && tau < 1.0)) return invalid("tau must lie in (0, 1)");
    }
  }
  if (q.measure == Measure::kDust && !dust_ready_) {
    return invalid("DUST tables not built; call BuildDustTables first");
  }
  if (q.measure == Measure::kMunich && samples_ == nullptr) {
    return invalid("no sample-model dataset attached (required by MUNICH)");
  }
  return Status::OK();
}

Result<QueryAnswer> UncertainEngine::Answer(const Query& q) const {
  UTS_RETURN_NOT_OK(Check(q));
  QueryAnswer answer;
  // Only the distance measures report work accounting.
  index::SearchCost* cost =
      ScoresProbability(q.measure) ? nullptr : &answer.cost;
  UTS_ASSIGN_OR_RETURN(const detail::MeasureScan scan, Scan(q, cost));
  switch (q.kind) {
    case QueryKind::kKnn: {
      UTS_ASSIGN_OR_RETURN(answer.neighbors,
                           detail::KBest(scan, q.query, q.k, cost));
      break;
    }
    case QueryKind::kRange: {
      UTS_ASSIGN_OR_RETURN(
          std::vector<std::size_t> matches,
          detail::WithinRange(scan, q.query, q.epsilon, cost));
      answer.matches.push_back(std::move(matches));
      break;
    }
    case QueryKind::kPrq: {
      // One scan decides every τ: PROUD scores ε_norm against Φ⁻¹(τ)
      // (Eq. 10), MUNICH its probability against τ.
      UTS_ASSIGN_OR_RETURN(const std::vector<double> scores,
                           detail::ScanRows(scan.target, scan.score));
      for (const double tau : q.taus) {
        const double limit =
            q.measure == Measure::kProud ? prob::NormalQuantile(tau) : tau;
        answer.matches.push_back(detail::SelectThreshold(
            scores, q.query, limit, detail::Keep::kAtLeast));
      }
      break;
    }
    case QueryKind::kSweep: {
      UTS_ASSIGN_OR_RETURN(answer.scores,
                           detail::ScanRows(scan.target, scan.score));
      break;
    }
    case QueryKind::kScore: {
      UTS_ASSIGN_OR_RETURN(
          const double score,
          detail::ScoreRow(scan.target.view, q.candidate, scan.score));
      answer.scores.push_back(score);
      break;
    }
  }
  return answer;
}

}  // namespace uts::query
