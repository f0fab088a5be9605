/// \file engine_context.hpp
/// \brief The run-wide shared engine context: one thread pool, one SoA pack
/// of each dataset, one engine per evaluation, one ground truth per exact
/// dataset.
///
/// Every figure of the paper compares MUNICH / PROUD / DUST on the *same*
/// uncertain dataset, yet a naive binding builds one `UncertainEngine` per
/// matcher — packing the identical pdf observations into SoA three times
/// and holding three thread pools per run. `EngineContext` is the single
/// resource root the matchers of a run share instead, and the binding every
/// matcher reads its data from (`core::Matcher::Bind`):
///
///  * **one executor** — a lazily created `exec::ThreadPool` every engine
///    of the run borrows (`EngineOptions::shared_pool`), so a full
///    multi-matcher evaluation constructs at most one pool (none when
///    `threads <= 1`; everything runs inline on the caller);
///  * **one pdf pack, bound one of two ways** — `BindRun`, the evaluation
///    runner's path, keys a run by its inputs and perturbs a new one
///    straight into the flat `UncertainPack` the shared `UncertainEngine`
///    adopts, so the run builds no model reference per point unless a
///    matcher asks `pdf()` for the object form. `BindData`, under the
///    residency table (the server's path), takes an object-form dataset,
///    keys it by content fingerprint and builds the engine on the first
///    `Acquire`; residents keep this path until they become immutable
///    snapshots (ROADMAP item 6). Every query then goes through the
///    engine's one entry point, `UncertainEngine::Answer`;
///  * **lazy, cached measure state** — DUST lookup tables (built through a
///    context-persistent `measures::Dust` cache with the default options,
///    so re-binding across datasets under one error spec reuses
///    already-integrated tables) and the MUNICH sample attachment are each
///    built on first use and cached for the rest of the run;
///  * **one ground truth per exact dataset** — `GroundTruth` memoizes the
///    k-NN rows of the *exact* series for the context's lifetime, keyed by
///    the dataset's content, shape, k and distance (Euclidean or a DTW
///    band). Every σ, error model and τ swept over one dataset shares that
///    ground truth (the paper's §4.1.2), so a request the memo covers is a
///    copy; a longer one builds a transient certain engine
///    (`DistanceMatrixEngine`, never indexed) that sweeps only the missing
///    rows. Serving never computes ground truth, so residency keeps no
///    certain view of the observations.
///
/// Determinism: the context only changes *where* resources live, never what
/// is computed — all engine results remain bit-identical to fresh
/// per-measure engines at every thread count, whichever way the data was
/// bound.
///
/// Thread-safety: the context is a setup-time object mutated by `Bind`
/// calls; it is not thread-safe itself. The engines it hands out follow
/// their own documented rules (const queries are concurrency-safe).

#ifndef UTS_QUERY_ENGINE_CONTEXT_HPP_
#define UTS_QUERY_ENGINE_CONTEXT_HPP_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "exec/thread_pool.hpp"
#include "measures/dust.hpp"
#include "query/search.hpp"
#include "query/uncertain_engine.hpp"
#include "ts/dataset.hpp"
#include "uncertain/error_spec.hpp"
#include "uncertain/uncertain_series.hpp"

namespace uts::query {

/// \brief An exact dataset borrowed together with its content fingerprint,
/// hashed once by `EngineContext::Keyed` and read by `BindRun` and
/// `GroundTruth`. The dataset must outlive the handle and stay unchanged
/// while it is used.
class KeyedDataset {
 public:
  /// The borrowed dataset.
  const ts::Dataset& dataset() const { return *dataset_; }

  /// Content fingerprint of every value, folded per series.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  friend class EngineContext;
  KeyedDataset(const ts::Dataset& dataset, std::uint64_t fingerprint)
      : dataset_(&dataset), fingerprint_(fingerprint) {}

  const ts::Dataset* dataset_;
  std::uint64_t fingerprint_;
};

/// \brief Execution configuration of an EngineContext. The shared
/// execution fields (`threads`, `simd`, `shared_pool`, `index`,
/// `buffer_pool`, `block_rows`) live in the inherited query::ExecOptions —
/// their names and meanings are unchanged; `shared_pool` here is the
/// server's `--pool-policy=shared` mode (many contexts, one pool;
/// `pools_created` stays 0, `threads` still controls partitioning so
/// results stay bit-identical to an owned pool of the same width).
struct EngineContextOptions : ExecOptions {
  /// Memory budget of the run's storage tier, in bytes. 0 (default) =
  /// fully-resident stores, exactly the classic behavior. Non-zero makes
  /// the context create a ts::BufferPool with this budget and build every
  /// engine store (values, MUNICH interval columns) as paged blocks under
  /// it — datasets larger than the budget page through the pool's spill
  /// log with results bitwise identical to the resident run. Ignored when
  /// `buffer_pool` is set explicitly.
  std::size_t memory_budget_bytes = 0;

  /// Spill directory of the context-created buffer pool (empty = $TMPDIR,
  /// else /tmp). Only consulted when `memory_budget_bytes` > 0.
  std::string spill_dir;
};

/// \brief Owns the shared execution resources of one evaluation run: the
/// thread pool, the perturbed datasets, the packed engines and their lazy
/// measure-specific caches.
///
/// Matchers acquire borrowed engine views at Bind time (`Acquire`). Every
/// acquisition of a bound context serves the one shared engine; it fails
/// only when the engine or its measure state cannot be built (no sample
/// model for MUNICH, a failed pack, spill or table build). Views are
/// invalidated by the next `BindData` that actually replaces the data;
/// matchers must re-acquire at every Bind.
class EngineContext {
 public:
  /// Resource-lifecycle counters, asserted by the context tests and useful
  /// for diagnosing accidental re-packs in new call sites.
  struct Stats {
    std::size_t pools_created = 0;     ///< Shared ThreadPool constructions.
    std::size_t pdf_packs = 0;         ///< UncertainEngine builds (SoA packs).
    std::size_t certain_packs = 0;     ///< Transient DistanceMatrixEngine
                                       ///< builds: GroundTruth requests
                                       ///< that swept missing rows.
    std::size_t data_binds = 0;        ///< BindData / BindRun calls that
                                       ///< replaced data.
    std::size_t data_rebind_hits = 0;  ///< BindData / BindRun calls that
                                       ///< kept data.
    std::size_t certain_reuses = 0;    ///< GroundTruth requests the memo
                                       ///< served whole.
    std::size_t dust_table_builds = 0;  ///< DUST acquisitions that added
                                       ///< tables to the DUST cache.
    std::size_t sample_attaches = 0;   ///< MUNICH acquisitions that
                                       ///< attached the sample dataset.
    std::size_t acquires_served = 0;   ///< Acquire calls that returned the
                                       ///< shared engine.
    std::size_t acquires_declined = 0; ///< Acquire calls that failed.
    std::size_t resident_adds = 0;     ///< AddResident calls that stored or
                                       ///< replaced an entry.
    std::size_t resident_activations = 0;  ///< ActivateResident calls that
                                           ///< went through BindData.
    std::size_t buffer_pools_created = 0;  ///< Context-owned ts::BufferPool
                                           ///< constructions (at most 1).
    std::size_t object_forms = 0;  ///< pdf() calls that built the object
                                   ///< form of a BindRun binding.
  };

  /// Create a context; no pool or engine is built until first use.
  explicit EngineContext(EngineContextOptions options = {});

  /// Drops every owned engine, then joins the shared pool, if any.
  ~EngineContext();

  EngineContext(const EngineContext&) = delete;  ///< Not copyable.
  EngineContext& operator=(const EngineContext&) = delete;  ///< Not copyable.

  /// Resolved worker-thread count (>= 1).
  std::size_t threads() const { return threads_; }

  /// Kernel selection every engine of this context is built with.
  distance::SimdMode simd() const { return options_.simd; }

  /// The shared executor, created lazily on first request; null when
  /// `threads() == 1` (all engines then run inline).
  exec::ThreadPool* pool();

  /// The storage-tier buffer pool every engine of this context pages its
  /// stores through: the explicit `ExecOptions::buffer_pool` when set, a
  /// lazily created pool when `memory_budget_bytes > 0`, null otherwise
  /// (fully-resident stores). Also null while the pool cannot be created
  /// (an unwritable spill dir); BindRun, a GroundTruth sweep and the
  /// acquisitions then fail with that error instead of dropping the budget.
  std::shared_ptr<ts::BufferPool> buffer_pool();

  /// \name Run data
  /// \{

  /// `exact` with its content fingerprint, hashed on the context's pool,
  /// one pass per series folded in series order (the same value at every
  /// thread count). Hash a dataset once per run and hand the handle to
  /// `BindRun` and `GroundTruth`.
  KeyedDataset Keyed(const ts::Dataset& exact);

  /// Bind one evaluation run by its inputs: the perturbation of `exact`
  /// under `spec` with base seed `seed` (series i draws from
  /// DeriveSeed(seed, i), exactly as uncertain::PerturbDataset), plus, when
  /// `samples_per_point > 0`, the repeated-observations model with that
  /// many samples per point drawn from DeriveSeed(seed, 0xface). `seed`
  /// also feeds the MUNICH pair streams and `proud_sigma` the constant-σ
  /// PROUD kernels.
  ///
  /// Keyed by the inputs: the content fingerprint and shape of `exact`,
  /// `spec.Key()`, `seed`, `samples_per_point` and the bits of
  /// `proud_sigma`. Perturbation is a pure function of them, so an equal
  /// key to the bound run's is a hit that perturbs nothing and keeps every
  /// engine and cache. A new key drops the bound data, perturbs on the pool
  /// straight into an `uncertain::UncertainPack` and builds the shared
  /// engine by adopting it (one `pdf_packs`); the object form is built
  /// later only if `pdf()` asks for it. InvalidArgument for data
  /// DistanceMatrixEngine::CheckShape rejects (nothing changes then); a
  /// failed engine build (an unusable spill dir, a failed spill) is
  /// returned and leaves the context unbound.
  Status BindRun(const KeyedDataset& exact, const uncertain::ErrorSpec& spec,
                 std::uint64_t seed, std::size_t samples_per_point,
                 double proud_sigma);

  /// Take ownership of an object-form run: the perturbed datasets plus the
  /// run-level parameters baked into engine state (`seed` feeds the MUNICH
  /// pair streams, `proud_sigma` the constant-σ PROUD kernels).
  /// InvalidArgument for data the engines cannot pack
  /// (UncertainEngine::CheckShape). When the incoming data and parameters
  /// fingerprint identically to what a previous BindData bound, the call is
  /// a no-op that keeps every engine and cache (the repeated-run fast
  /// path); otherwise the uncertain engine and its measure state are
  /// dropped and rebuilt lazily against the new data.
  ///
  /// The fingerprint is one pass per series, on the context's pool when
  /// there is one: each series hashes its observations, its error models
  /// (by `Key()`, so equal models in distinct objects match) and its
  /// samples on its own, and the per-series hashes fold in series order.
  /// Hit or miss is therefore the same at every thread count.
  Status BindData(uncertain::UncertainDataset pdf,
                  std::optional<uncertain::MultiSampleDataset> samples,
                  std::uint64_t seed, double proud_sigma);

  /// The bound pdf-model dataset in object form. A BindData binding owns
  /// it; for a BindRun binding it is built from the engine's rows and
  /// error classes on the first call (counted by `Stats::object_forms`),
  /// with observations bitwise PerturbDataset's, the reported models equal
  /// by `Key()`, and no labels or ids. InvalidArgument before the first
  /// bind; the error of a row that cannot be pinned.
  Result<const uncertain::UncertainDataset*> pdf();

  /// The bound repeated-observations dataset; null when absent.
  const uncertain::MultiSampleDataset* samples() const {
    return bound_ && samples_.has_value() ? &*samples_ : nullptr;
  }

  /// The base seed of the bound run (0 before the first bind): the seed of
  /// the MUNICH pair streams.
  std::uint64_t seed() const { return seed_; }

  /// The constant σ reported to PROUD by the bound run (1.0 before the
  /// first bind): the σ of the shared engine's PROUD kernels.
  double proud_sigma() const { return proud_sigma_; }

  /// Fingerprint of the bound data and run parameters (0 before the first
  /// bind): BindData's content fingerprint, or a hash of BindRun's key.
  /// Equal across binds that kept the data.
  std::uint64_t data_fingerprint() const { return data_fingerprint_; }
  /// \}

  /// \name Multi-dataset residency (the server front end)
  /// A long-running service keeps several evaluations' datasets alive in one
  /// context and switches between them per request. Residency stores each
  /// dataset (pdf model, optional sample model, run parameters) under a
  /// caller-chosen name;
  /// `ActivateResident` routes through `BindData`, so re-activating the
  /// dataset that is already bound is a fingerprint rebind hit that keeps
  /// every engine and cache, while switching to a different resident drops
  /// only the data-specific engine state (the DUST table cache survives by
  /// design). Like the rest of the context, residency is setup-time state:
  /// calls are not thread-safe against concurrent queries.
  /// \{

  /// Store (or replace) a resident dataset under `name`. The data is copied
  /// into the residency table — the context does not borrow — and the
  /// active binding is untouched until `ActivateResident(name)`. Rejects
  /// the shapes `BindData` rejects.
  Status AddResident(const std::string& name, uncertain::UncertainDataset pdf,
                     std::optional<uncertain::MultiSampleDataset> samples,
                     std::uint64_t seed, double proud_sigma);

  /// Bind the named resident as the context's active dataset (see
  /// `BindData` for the rebind semantics). NotFound when absent. BindData
  /// takes ownership, so every activation copies the resident (one
  /// shared_ptr per point), fingerprints the copy and, on a hit, frees it;
  /// those three passes are the activation's whole cost.
  Status ActivateResident(const std::string& name);

  /// True iff a resident named `name` is stored.
  bool HasResident(const std::string& name) const {
    return residents_.count(name) > 0;
  }

  /// Names of every stored resident, sorted.
  std::vector<std::string> ResidentNames() const;

  /// The name of the resident currently bound via ActivateResident; null
  /// when the active binding did not come from the residency table.
  const std::string* active_resident() const {
    return active_resident_.empty() ? nullptr : &active_resident_;
  }

  /// Drop the named resident. The active binding (and its engines) stays
  /// usable even when it came from the dropped entry — the context owns the
  /// bound copies. NotFound when absent.
  Status DropResident(const std::string& name);

  /// The resident's pdf-model run parameters, exported for servers that
  /// need to echo them per request; null when absent.
  const uncertain::UncertainDataset* ResidentPdf(const std::string& name) const;
  /// \}

  /// \name Ground truth (the exact series' k nearest neighbors)
  /// \{

  /// The k nearest exact neighbors of queries [0, num_queries) of `exact`,
  /// self excluded: query q's at [q * k, (q + 1) * k), ascending by
  /// distance, ties by index. The distance is Euclidean, or exact DTW under
  /// the Sakoe–Chiba band `dtw_band` (distance::DtwOptions::kNoBand =
  /// unconstrained) when set. InvalidArgument for data
  /// DistanceMatrixEngine::CheckShape rejects, k outside [1, series) or
  /// num_queries outside [1, series].
  ///
  /// Memoized for the context's lifetime per (content fingerprint and
  /// shape of `exact`, k, distance): a request the memo covers is a copy of
  /// its first rows; a longer one builds a transient DistanceMatrixEngine
  /// on the shared pool (and storage tier) that sweeps only the missing
  /// rows. That engine is never indexed, whatever `ExecOptions::index`
  /// says: every Euclidean row comes from the multi-query sweep's one
  /// accumulation chain per pair, where an indexed engine's per-query
  /// cascades can order a near tie differently under AVX2. A row does not
  /// depend on the rows swept with it
  /// (DistanceMatrixEngine::KNearestEuclideanRows), so the result is
  /// bitwise that of one fresh unindexed sweep over [0, num_queries), in
  /// whatever order requests arrive and whether or not the context
  /// indexes. Fails as the sweep does (an unusable spill dir, a failed
  /// pin), leaving the memo as it was.
  Result<std::vector<Neighbor>> GroundTruth(
      const KeyedDataset& exact, std::size_t k, std::size_t num_queries,
      std::optional<std::size_t> dtw_band = std::nullopt);
  /// \}

  /// The shared UncertainEngine (one per run, lazily built) with the
  /// state `measure` needs, built on first use and cached: the DUST
  /// lookup tables for every distinct error-class pair, or the MUNICH
  /// sample attachment (Euclidean and constant-σ PROUD at `proud_sigma()`
  /// need none). DUST tables come from the context's persistent
  /// `measures::Dust` cache (default `measures::DustOptions`), so a later
  /// BindData under the same error models reuses them instead of
  /// re-running the numeric integration. Fails with InvalidArgument before
  /// the first BindData, NotSupported for MUNICH when the bound run has no
  /// sample model, and with the error of whatever could not be built (the
  /// engine's pack or spill, the DUST tables, the sample attachment).
  Result<UncertainEngine*> Acquire(Measure measure);

  /// The lifecycle counters (see Stats).
  const Stats& stats() const { return stats_; }

 private:
  /// One stored resident: the datasets plus the run parameters BindData
  /// bakes into engine state.
  struct Resident {
    uncertain::UncertainDataset pdf;                     ///< PDF model.
    std::optional<uncertain::MultiSampleDataset> samples;  ///< Sample model.
    std::uint64_t seed = 0;    ///< MUNICH pair-stream base seed.
    double proud_sigma = 1.0;  ///< Constant σ reported to PROUD.
  };

  /// The shared UncertainEngine over the bound pdf dataset, built if not
  /// done yet; the error when unbound or when the build fails.
  Result<UncertainEngine*> EnsureUncertain();

  /// The options of this context's shared engine for a run with `seed` and
  /// `proud_sigma`; the error of a storage pool that cannot be created.
  Result<UncertainEngineOptions> UncertainOptions(std::uint64_t seed,
                                                  double proud_sigma);

  /// `buffer_pool()`'s pool, or the error that keeps it from being created.
  Result<std::shared_ptr<ts::BufferPool>> StoragePool();

  EngineContextOptions options_;
  std::size_t threads_ = 1;
  std::unique_ptr<exec::ThreadPool> pool_;

  /// Context-created storage-tier pool (memory_budget_bytes > 0). Engines
  /// and their stores hold it by shared_ptr, so destruction order is safe:
  /// a store drops its pages before releasing its pool reference.
  std::shared_ptr<ts::BufferPool> owned_buffer_pool_;

  /// What a BindRun binding was perturbed from.
  struct RunKey {
    std::uint64_t fingerprint = 0;  ///< Content of the exact dataset.
    std::size_t rows = 0;           ///< Its series count.
    std::size_t length = 0;         ///< Its series length.
    std::string spec;               ///< ErrorSpec::Key().
    std::uint64_t seed = 0;
    std::size_t samples_per_point = 0;
    std::uint64_t proud_sigma_bits = 0;
    auto operator<=>(const RunKey&) const = default;
  };

  /// Forget the bound data and its engine (the DUST cache stays).
  void Unbind();

  // Bound run data (owned) + its fingerprint. The object form is absent
  // for a BindRun binding until pdf() builds it.
  bool bound_ = false;
  std::optional<RunKey> run_key_;  ///< Set iff BindRun made the binding.
  std::optional<uncertain::UncertainDataset> pdf_;
  std::optional<uncertain::MultiSampleDataset> samples_;
  std::uint64_t seed_ = 0;
  double proud_sigma_ = 1.0;
  std::uint64_t data_fingerprint_ = 0;

  // The shared uncertain engine + its lazy measure state.
  std::unique_ptr<UncertainEngine> uncertain_;
  /// Persistent DUST table cache (survives rebinds).
  measures::Dust dust_cache_;

  // Residency table of the server front end.
  std::map<std::string, Resident> residents_;
  std::string active_resident_;  ///< Empty when the binding is not a resident.

  /// What one ground-truth memo entry answers.
  struct GroundTruthKey {
    std::uint64_t fingerprint = 0;  ///< Content of the exact dataset.
    std::size_t rows = 0;           ///< Its series count.
    std::size_t length = 0;         ///< Its series length.
    std::size_t k = 0;              ///< Neighbors per query.
    std::optional<std::size_t> dtw_band;  ///< nullopt = Euclidean.
    auto operator<=>(const GroundTruthKey&) const = default;
  };

  /// The ground-truth memo: per key, the rows of queries [0, m) as one flat
  /// array of m * k neighbors, allocated on the calling thread.
  std::map<GroundTruthKey, std::vector<Neighbor>> ground_truth_;

  Stats stats_;
};

}  // namespace uts::query

#endif  // UTS_QUERY_ENGINE_CONTEXT_HPP_
