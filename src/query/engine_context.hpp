/// \file engine_context.hpp
/// \brief The run-wide shared engine context: one thread pool, one SoA pack
/// of each dataset, one engine per evaluation.
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
///  * **one pdf pack** — `BindData` takes ownership of the perturbed
///    datasets of the evaluation; the shared `UncertainEngine` over them is
///    built lazily on the first acquisition and reused by every subsequent
///    one, whatever the measure;
///  * **lazy, cached measure state** — DUST lookup tables (built through a
///    context-persistent `measures::Dust` cache with the default options,
///    so re-binding across datasets under one error spec reuses
///    already-integrated tables) and the MUNICH sample attachment are each
///    built on first use and cached for the rest of the run;
///  * **one certain engine** — the `DistanceMatrixEngine` driving the
///    ground-truth sweeps over *exact* data owns its packed rows and is
///    cached across runs keyed by the dataset's content, so repeated runs
///    over one dataset (a τ search and the final run at the tuned τ) pack
///    it once, whichever copy of the data they pass. Residency keeps no
///    certain view of the observations.
///
/// Re-binding with bit-identical data (the repeated-run pattern: every run
/// re-perturbs deterministically to the same observations) is detected by
/// content fingerprint and keeps all engines and caches.
///
/// Determinism: the context only changes *where* resources live, never what
/// is computed — all engine results remain bit-identical to fresh
/// per-measure engines at every thread count.
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
#include "query/engine.hpp"
#include "query/uncertain_engine.hpp"
#include "ts/dataset.hpp"
#include "uncertain/uncertain_series.hpp"

namespace uts::query {

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
/// Matchers acquire borrowed engine views at Bind time (`AcquireEuclidean`,
/// `AcquireDust`, `AcquireMunich`). Every acquisition of a bound context
/// serves the one shared engine; it fails only when the engine or its
/// measure state cannot be built (no sample model for MUNICH, a failed
/// pack, spill or table build). Views are invalidated by the next
/// `BindData` that actually replaces the data; matchers must re-acquire at
/// every Bind.
class EngineContext {
 public:
  /// Resource-lifecycle counters, asserted by the context tests and useful
  /// for diagnosing accidental re-packs in new call sites.
  struct Stats {
    std::size_t pools_created = 0;     ///< Shared ThreadPool constructions.
    std::size_t pdf_packs = 0;         ///< UncertainEngine builds (SoA packs).
    std::size_t certain_packs = 0;     ///< DistanceMatrixEngine builds.
    std::size_t data_binds = 0;        ///< BindData calls that replaced data.
    std::size_t data_rebind_hits = 0;  ///< BindData calls that kept data.
    std::size_t certain_reuses = 0;    ///< Certain() calls served from cache.
    std::size_t dust_table_builds = 0;  ///< AcquireDust calls that added
                                       ///< tables to the DUST cache.
    std::size_t sample_attaches = 0;   ///< AcquireMunich calls that
                                       ///< attached the sample dataset.
    std::size_t acquires_served = 0;   ///< Acquire* calls that returned the
                                       ///< shared engine.
    std::size_t acquires_declined = 0; ///< Acquire* calls that failed.
    std::size_t resident_adds = 0;     ///< AddResident calls that stored or
                                       ///< replaced an entry.
    std::size_t resident_activations = 0;  ///< ActivateResident calls that
                                           ///< went through BindData.
    std::size_t buffer_pools_created = 0;  ///< Context-owned ts::BufferPool
                                           ///< constructions (at most 1).
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
  /// (an unwritable spill dir); `Certain` and the acquisitions then fail
  /// with that error instead of dropping the budget.
  std::shared_ptr<ts::BufferPool> buffer_pool();

  /// \name Run data
  /// \{

  /// Take ownership of this evaluation's perturbed datasets plus the
  /// run-level parameters baked into engine state (`seed` feeds the MUNICH
  /// pair streams, `proud_sigma` the constant-σ PROUD kernels).
  /// InvalidArgument for data the engines cannot pack
  /// (UncertainEngine::CheckShape). When the
  /// incoming data and parameters fingerprint identically to what is
  /// already bound, the call is a no-op that keeps every engine and cache
  /// (the repeated-run fast path); otherwise the uncertain engine and its
  /// measure state are dropped and rebuilt lazily against the new data.
  ///
  /// The fingerprint is one pass per series, on the context's pool when
  /// there is one: each series hashes its observations, its error models
  /// (by `Key()`, so equal models in distinct objects match) and its
  /// samples on its own, and the per-series hashes fold in series order.
  /// Hit or miss is therefore the same at every thread count.
  Status BindData(uncertain::UncertainDataset pdf,
                  std::optional<uncertain::MultiSampleDataset> samples,
                  std::uint64_t seed, double proud_sigma);

  /// The bound pdf-model dataset; null before the first BindData.
  const uncertain::UncertainDataset* pdf() const {
    return bound_ ? &pdf_ : nullptr;
  }

  /// The bound repeated-observations dataset; null when absent.
  const uncertain::MultiSampleDataset* samples() const {
    return bound_ && samples_.has_value() ? &*samples_ : nullptr;
  }

  /// The base seed of the bound run (0 before the first BindData): the
  /// seed of the MUNICH pair streams.
  std::uint64_t seed() const { return seed_; }

  /// The constant σ reported to PROUD by the bound run (1.0 before the
  /// first BindData): the σ of the shared engine's PROUD kernels.
  double proud_sigma() const { return proud_sigma_; }

  /// Content fingerprint of the bound data and run parameters (0 before
  /// the first BindData): equal across binds of bit-identical data.
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

  /// \name Certain engine (ground truth / calibration sweeps)
  /// \{

  /// The shared DistanceMatrixEngine over `exact`, scheduled on the shared
  /// pool. Cached across calls keyed by the content fingerprint of `exact`
  /// and by `grain` (0 = default), so repeated runs over equal data pack it
  /// once. The engine owns its rows, so `exact` is only read during the
  /// call. Fails as DistanceMatrixEngine::Create does (empty or ragged
  /// data, a failed spill); the view stays valid until the next Certain()
  /// call that packs.
  Result<const DistanceMatrixEngine*> Certain(const ts::Dataset& exact,
                                              std::size_t grain = 0);
  /// \}

  /// \name Uncertain engine acquisition (one per run, lazily built)
  /// All three return the same underlying engine, plus the measure state
  /// they name, built on first use. They fail with InvalidArgument before
  /// the first BindData, and with the error of whatever could not be built
  /// (the engine's pack or spill, the DUST tables, the MUNICH sample
  /// attachment).
  /// \{

  /// The engine alone: Euclidean over the observations and constant-σ
  /// PROUD at `proud_sigma()` need no measure state.
  Result<UncertainEngine*> AcquireEuclidean();

  /// DUST: engine + lookup tables for every distinct error-class pair.
  /// Tables are built through the context's persistent `measures::Dust`
  /// cache (default `measures::DustOptions`), so a later BindData under
  /// the same error models reuses them instead of re-running the numeric
  /// integration.
  Result<UncertainEngine*> AcquireDust();

  /// MUNICH: engine + attached sample dataset. NotSupported when the bound
  /// run has no sample model. The estimator configuration is an argument
  /// of each MUNICH query, not engine state.
  Result<UncertainEngine*> AcquireMunich();
  /// \}

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

  /// `engine` counted as a served or failed acquisition.
  Result<UncertainEngine*> Count(Result<UncertainEngine*> engine);

  /// `buffer_pool()`'s pool, or the error that keeps it from being created.
  Result<std::shared_ptr<ts::BufferPool>> StoragePool();

  EngineContextOptions options_;
  std::size_t threads_ = 1;
  std::unique_ptr<exec::ThreadPool> pool_;

  /// Context-created storage-tier pool (memory_budget_bytes > 0). Engines
  /// and their stores hold it by shared_ptr, so destruction order is safe:
  /// a store drops its pages before releasing its pool reference.
  std::shared_ptr<ts::BufferPool> owned_buffer_pool_;

  // Bound run data (owned) + its content fingerprint.
  bool bound_ = false;
  uncertain::UncertainDataset pdf_;
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

  // The cached certain engine, keyed by content fingerprint + grain.
  std::optional<DistanceMatrixEngine> certain_;
  std::uint64_t certain_fingerprint_ = 0;
  std::size_t certain_key_grain_ = 0;  ///< Certain()'s `grain` argument.

  Stats stats_;
};

}  // namespace uts::query

#endif  // UTS_QUERY_ENGINE_CONTEXT_HPP_
