#include "query/engine_context.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "distance/dtw.hpp"
#include "exec/parallel_for.hpp"
#include "query/engine.hpp"

namespace uts::query {

namespace {

/// FNV-1a mixing of one 64-bit word.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void Mix(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  void MixDouble(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
};

/// Series per fingerprint task on the context's pool.
constexpr std::size_t kSeriesPerChunk = 16;

/// Mix `count` per-series hashes into `f` in series order.
/// `hash_range(begin, end, hashes)` fills hashes[begin, end) and runs as one
/// ParallelFor chunk — on the pool's workers when there is a pool, inline
/// otherwise. Each series hashes on its own and the fold is sequential, so
/// the value is the same at every pool width.
template <typename HashRange>
void MixSeriesHashes(Fnv& f, exec::ThreadPool* pool, std::size_t count,
                     const HashRange& hash_range) {
  std::vector<std::uint64_t> hashes(count);
  exec::ParallelFor(pool, count, kSeriesPerChunk,
                    [&](std::size_t begin, std::size_t end) {
                      hash_range(begin, end, hashes);
                    });
  f.Mix(count);
  for (std::uint64_t h : hashes) f.Mix(h);
}

/// Content fingerprint of one run's engine-relevant state: the run
/// parameters baked into engines (seed, PROUD σ), every pdf observation and
/// its error model, and every sample-model value. Error models are hashed
/// by semantic Key(), so equal models held by different objects fingerprint
/// equally. A last-pointer memo skips the lookup while consecutive points
/// share one model object; only a pointer change reaches the pointer →
/// Key()-hash map, which is local to its chunk of series. A dataset built
/// by ErrorSpec::Assign therefore pays one Key() call per distinct model
/// per series, and no per-point map lookup.
std::uint64_t FingerprintRunData(
    const uncertain::UncertainDataset& pdf,
    const std::optional<uncertain::MultiSampleDataset>& samples,
    std::uint64_t seed, double proud_sigma, exec::ThreadPool* pool) {
  Fnv f;
  f.Mix(seed);
  f.MixDouble(proud_sigma);
  MixSeriesHashes(
      f, pool, pdf.size(),
      [&pdf](std::size_t begin, std::size_t end,
             std::vector<std::uint64_t>& hashes) {
        std::unordered_map<const prob::ErrorDistribution*, std::uint64_t>
            key_hash_of;
        const prob::ErrorDistribution* last_ptr = nullptr;
        std::uint64_t last_hash = 0;
        for (std::size_t s = begin; s < end; ++s) {
          const uncertain::UncertainSeries& series = pdf[s];
          Fnv h;
          h.Mix(series.size());
          for (std::size_t t = 0; t < series.size(); ++t) {
            h.MixDouble(series.observation(t));
            const prob::ErrorDistribution* err = series.error(t).get();
            if (err != last_ptr) {
              auto [it, inserted] = key_hash_of.try_emplace(err, 0);
              if (inserted) it->second = std::hash<std::string>{}(err->Key());
              last_ptr = err;
              last_hash = it->second;
            }
            h.Mix(last_hash);
          }
          hashes[s] = h.h;
        }
      });
  if (samples.has_value()) {
    f.Mix(1);
    MixSeriesHashes(
        f, pool, samples->size(),
        [&samples](std::size_t begin, std::size_t end,
                   std::vector<std::uint64_t>& hashes) {
          for (std::size_t s = begin; s < end; ++s) {
            const uncertain::MultiSampleSeries& series = (*samples)[s];
            Fnv h;
            h.Mix(series.size());
            for (std::size_t t = 0; t < series.size(); ++t) {
              // Delimit each timestep's sample vector so differently shaped
              // layouts with identical flattened values cannot collide.
              h.Mix(series.samples(t).size());
              for (double v : series.samples(t)) h.MixDouble(v);
            }
            hashes[s] = h.h;
          }
        });
  } else {
    f.Mix(0);
  }
  return f.h;
}

/// Content fingerprint of the exact dataset a ground truth is swept over,
/// folded per series like FingerprintRunData.
std::uint64_t FingerprintDataset(const ts::Dataset& dataset,
                                 exec::ThreadPool* pool) {
  Fnv f;
  MixSeriesHashes(f, pool, dataset.size(),
                  [&dataset](std::size_t begin, std::size_t end,
                             std::vector<std::uint64_t>& hashes) {
                    for (std::size_t s = begin; s < end; ++s) {
                      const auto& values = dataset[s].values();
                      Fnv h;
                      h.Mix(values.size());
                      for (double v : values) h.MixDouble(v);
                      hashes[s] = h.h;
                    }
                  });
  return f.h;
}

}  // namespace

EngineContext::EngineContext(EngineContextOptions options)
    : options_(options) {
  threads_ = options_.threads;
  if (threads_ == 0) {
    threads_ = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
}

EngineContext::~EngineContext() = default;

exec::ThreadPool* EngineContext::pool() {
  if (threads_ <= 1) return nullptr;
  if (options_.shared_pool != nullptr) {
    // Borrowed executor: partitioning still follows threads_, so results
    // match an owned pool of the same width bit for bit.
    return options_.shared_pool;
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<exec::ThreadPool>(threads_);
    ++stats_.pools_created;
  }
  return pool_.get();
}

std::shared_ptr<ts::BufferPool> EngineContext::buffer_pool() {
  auto pool = StoragePool();
  return pool.ok() ? std::move(pool).ValueOrDie() : nullptr;
}

Result<std::shared_ptr<ts::BufferPool>> EngineContext::StoragePool() {
  if (options_.buffer_pool != nullptr) return options_.buffer_pool;
  if (options_.memory_budget_bytes == 0 || owned_buffer_pool_ != nullptr) {
    return owned_buffer_pool_;  // null unless already created
  }
  ts::BufferPool::Options pool_options;
  pool_options.budget_bytes = options_.memory_budget_bytes;
  pool_options.spill_dir = options_.spill_dir;
  UTS_ASSIGN_OR_RETURN(owned_buffer_pool_,
                       ts::BufferPool::Create(pool_options));
  ++stats_.buffer_pools_created;
  return owned_buffer_pool_;
}

Status EngineContext::BindData(
    uncertain::UncertainDataset pdf,
    std::optional<uncertain::MultiSampleDataset> samples, std::uint64_t seed,
    double proud_sigma) {
  UTS_RETURN_NOT_OK(UncertainEngine::CheckShape(pdf));
  const std::uint64_t fingerprint =
      FingerprintRunData(pdf, samples, seed, proud_sigma, pool());
  if (bound_ && fingerprint == data_fingerprint_) {
    // Bit-identical rebind (the repeated-run pattern): keep every engine and
    // cache; the freshly perturbed copies are discarded.
    ++stats_.data_rebind_hits;
    return Status::OK();
  }
  pdf_ = std::move(pdf);
  samples_ = std::move(samples);
  seed_ = seed;
  proud_sigma_ = proud_sigma;
  data_fingerprint_ = fingerprint;
  bound_ = true;
  // A direct bind is anonymous; ActivateResident re-labels it afterwards.
  active_resident_.clear();
  // Engine state is data-specific; drop it and rebuild lazily. The DUST
  // table cache survives on purpose — tables depend only on the error
  // models, not the observations.
  uncertain_.reset();
  ++stats_.data_binds;
  return Status::OK();
}

Status EngineContext::AddResident(
    const std::string& name, uncertain::UncertainDataset pdf,
    std::optional<uncertain::MultiSampleDataset> samples, std::uint64_t seed,
    double proud_sigma) {
  UTS_RETURN_NOT_OK(UncertainEngine::CheckShape(pdf));
  Resident resident;
  resident.pdf = std::move(pdf);
  resident.samples = std::move(samples);
  resident.seed = seed;
  resident.proud_sigma = proud_sigma;
  residents_[name] = std::move(resident);
  ++stats_.resident_adds;
  return Status::OK();
}

Status EngineContext::ActivateResident(const std::string& name) {
  auto it = residents_.find(name);
  if (it == residents_.end()) {
    return Status::NotFound("no resident dataset named '" + name + "'");
  }
  // BindData takes ownership, so hand it copies; re-activating the dataset
  // that is already bound fingerprints identically and keeps every engine.
  UTS_RETURN_NOT_OK(BindData(it->second.pdf, it->second.samples,
                             it->second.seed, it->second.proud_sigma));
  active_resident_ = name;
  ++stats_.resident_activations;
  return Status::OK();
}

std::vector<std::string> EngineContext::ResidentNames() const {
  std::vector<std::string> names;
  names.reserve(residents_.size());
  for (const auto& [name, resident] : residents_) names.push_back(name);
  return names;
}

Status EngineContext::DropResident(const std::string& name) {
  auto it = residents_.find(name);
  if (it == residents_.end()) {
    return Status::NotFound("no resident dataset named '" + name + "'");
  }
  // The active binding owns its copies, so dropping the entry never
  // invalidates bound engines; only the label goes away.
  if (active_resident_ == name) active_resident_.clear();
  residents_.erase(it);
  return Status::OK();
}

const uncertain::UncertainDataset* EngineContext::ResidentPdf(
    const std::string& name) const {
  auto it = residents_.find(name);
  return it == residents_.end() ? nullptr : &it->second.pdf;
}

Result<std::vector<Neighbor>> EngineContext::GroundTruth(
    const ts::Dataset& exact, std::size_t k, std::size_t num_queries,
    std::optional<std::size_t> dtw_band) {
  UTS_RETURN_NOT_OK(DistanceMatrixEngine::CheckShape(exact));
  const std::size_t n = exact.size();
  if (k == 0 || k >= n) {
    return Status::InvalidArgument("ground truth needs 1 <= k < " +
                                   std::to_string(n) + " (got k = " +
                                   std::to_string(k) + ")");
  }
  if (num_queries == 0 || num_queries > n) {
    return Status::InvalidArgument(
        "ground truth needs 1 <= num_queries <= " + std::to_string(n) +
        " (got " + std::to_string(num_queries) + ")");
  }
  const GroundTruthKey key{FingerprintDataset(exact, pool()), n,
                           exact[0].size(), k, dtw_band};
  auto it = ground_truth_.find(key);
  const std::size_t have =
      it == ground_truth_.end() ? 0 : it->second.size() / k;
  if (have >= num_queries) {
    ++stats_.certain_reuses;
    return std::vector<Neighbor>(
        it->second.begin(),
        it->second.begin() + static_cast<long>(num_queries * k));
  }

  // Sweep rows [have, num_queries) on a transient certain engine; rows do
  // not depend on the rows swept with them, so appending them to the memo's
  // prefix equals one sweep of [0, num_queries).
  EngineOptions options;
  options.threads = threads_;
  options.shared_pool = pool();
  options.simd = options_.simd;
  // One exact DTW is O(length²): a small grain spreads one query's
  // candidates over the pool.
  if (dtw_band.has_value()) options.grain = 16;
  options.index = options_.index;
  UTS_ASSIGN_OR_RETURN(options.buffer_pool, StoragePool());
  options.block_rows = options_.block_rows;
  UTS_ASSIGN_OR_RETURN(const DistanceMatrixEngine engine,
                       DistanceMatrixEngine::Create(exact, options));
  ++stats_.certain_packs;
  std::vector<Neighbor> rows(num_queries * k);
  if (have > 0) std::copy(it->second.begin(), it->second.end(), rows.begin());
  if (!dtw_band.has_value()) {
    UTS_RETURN_NOT_OK(engine.KNearestEuclideanRows(
        have, num_queries, k, std::span(rows).subspan(have * k)));
  } else {
    distance::DtwOptions dtw;
    dtw.band_radius = *dtw_band;
    for (std::size_t q = have; q < num_queries; ++q) {
      const std::vector<Neighbor> nearest =
          engine.KNearest(n, q, k, [&](std::size_t i) {
            return distance::Dtw(exact[q].values(), exact[i].values(), dtw);
          });
      std::copy(nearest.begin(), nearest.end(),
                rows.begin() + static_cast<long>(q * k));
    }
  }
  std::vector<Neighbor>& memo = ground_truth_[key];
  memo = std::move(rows);
  return memo;
}

Result<UncertainEngine*> EngineContext::EnsureUncertain() {
  if (!bound_) {
    return Status::InvalidArgument("engine context has no bound dataset; "
                                   "call BindData first");
  }
  if (uncertain_ != nullptr) return uncertain_.get();
  UncertainEngineOptions options;
  options.threads = threads_;
  options.shared_pool = pool();
  options.simd = options_.simd;
  options.index = options_.index;
  UTS_ASSIGN_OR_RETURN(options.buffer_pool, StoragePool());
  options.block_rows = options_.block_rows;
  options.seed = seed_;
  options.proud_sigma = proud_sigma_;
  UTS_ASSIGN_OR_RETURN(uncertain_,
                       UncertainEngine::Create(pdf_, std::move(options)));
  ++stats_.pdf_packs;
  return uncertain_.get();
}

Result<UncertainEngine*> EngineContext::Acquire(Measure measure) {
  Result<UncertainEngine*> engine = [&]() -> Result<UncertainEngine*> {
    UTS_ASSIGN_OR_RETURN(UncertainEngine * shared, EnsureUncertain());
    if (measure == Measure::kDust && !shared->dust_ready()) {
      const std::size_t tables_before = dust_cache_.CacheSize();
      UTS_RETURN_NOT_OK(shared->BuildDustTables(dust_cache_));
      if (dust_cache_.CacheSize() != tables_before) ++stats_.dust_table_builds;
    }
    if (measure == Measure::kMunich && !shared->has_samples()) {
      if (!samples_.has_value()) {
        return Status::NotSupported(
            "the bound dataset has no sample model (required by MUNICH)");
      }
      UTS_RETURN_NOT_OK(shared->AttachSamples(*samples_));
      ++stats_.sample_attaches;
    }
    return shared;
  }();
  ++(engine.ok() ? stats_.acquires_served : stats_.acquires_declined);
  return engine;
}

}  // namespace uts::query
