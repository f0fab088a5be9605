/// \file uncertain_engine.hpp
/// \brief The batched, multi-threaded query engine for the *uncertain*
/// measures — MUNICH, PROUD and DUST — the techniques every reported figure
/// of the paper (Fig. 4–17) is driven by.
///
/// `UncertainEngine` is the uncertain-measure sibling of
/// `DistanceMatrixEngine` (engine.hpp): it answers 1-vs-all sweeps — dense
/// distance/probability vectors, k-NN lists, range queries RQ and
/// probabilistic range queries PRQ(Q,C,ε,τ) (Eq. 2) — over parallel blocks
/// of candidates scheduled on an `exec::ThreadPool`, streaming contiguous
/// `ts::SoaStore` snapshots instead of per-series heap allocations. Each
/// sweep is a chunk scorer on the shared store scan (scan.hpp). Euclidean
/// queries over the observations run scan.hpp's Euclidean measure, so one
/// engine serves all four measures and no certain-dataset copy is kept.
///
/// Per measure, the engine precomputes at build time:
///
///  * **DUST** — a thread-shared lookup-table matrix: one
///    `measures::DustTable` per distinct (error-class, error-class) pair,
///    borrowed once by `BuildDustTables` from the caller's `measures::Dust`
///    cache and immutable afterwards, exposed to the blocked batch kernels
///    of distance/batch.hpp as `distance::DustLut` views. The
///    all-normal-error case takes the closed form
///    dust(Δ) = Δ / sqrt(2(σx² + σy²)) — no table loads at all.
///  * **PROUD** — nothing beyond the observation rows: the paper-faithful
///    constant-σ sweep is a single fused pass over them.
///  * **MUNICH** — per-series bounding-interval columns (min/max per
///    timestamp) for the certain-accept / certain-reject filter, plus
///    deterministic *counter-based* RNG seeding: the Monte Carlo stream of
///    pair (q, c) is seeded by the pure function
///    `DeriveSeed(seed, q·n + c + 0x9a1)` of the pair counter alone, so
///    parallel and sequential runs draw identical materializations. The
///    estimator configuration is an argument of each query, so every
///    MUNICH caller of a run shares the one engine.
///
/// A run's matchers (core/matchers.hpp) borrow this engine from the run's
/// query::EngineContext and have no retrieval path besides it; the scalar
/// measure APIs named below stay as the references the tests compare it
/// against.
///
/// Determinism guarantee: results are bit-identical to the scalar measure
/// APIs (measures::Dust::Distance, measures::Proud::Matches,
/// measures::Munich::MatchProbability with the same per-pair seeds) at every
/// thread count. The ingredients are the shared store scan's (scan.hpp) plus
/// two structural ones: every batch kernel accumulates in exactly the scalar
/// measure's operation order (distance/batch.hpp documents each identity),
/// and the scalar measures themselves evaluate through the very code the
/// kernels use (DustTable::Dust == DustLut::Eval; Proud decisions go through
/// Proud::DecideFromStats; MUNICH bounds go through
/// Munich::EuclideanBoundsFromIntervals).

#ifndef UTS_QUERY_UNCERTAIN_ENGINE_HPP_
#define UTS_QUERY_UNCERTAIN_ENGINE_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "distance/batch.hpp"
#include "distance/simd.hpp"
#include "exec/thread_pool.hpp"
#include "index/cascade.hpp"
#include "measures/dust.hpp"
#include "measures/munich.hpp"
#include "measures/proud.hpp"
#include "query/exec_options.hpp"
#include "query/scan.hpp"
#include "query/search.hpp"
#include "ts/soa_store.hpp"
#include "ts/store_view.hpp"
#include "uncertain/uncertain_series.hpp"

namespace uts::query {

/// \brief Execution + measure configuration of an UncertainEngine. The
/// shared execution fields (`threads`, `simd`, `shared_pool`, `index`,
/// `buffer_pool`, `block_rows`) live in the inherited query::ExecOptions —
/// their names and meanings are unchanged. Engine-specific notes: DUST
/// results are bitwise identical at every SIMD level, PROUD sweeps are
/// within the pinned tolerance of distance/simd.hpp, MUNICH never touches
/// the dispatch; the index cascade routes only the Euclidean and DUST k-NN
/// / range paths (PROUD/MUNICH match probabilities are not provably
/// monotone in the observation distance).
struct UncertainEngineOptions : ExecOptions {
  /// Candidate rows per parallel chunk of a single query's sweep. Smaller
  /// than DistanceMatrixEngine's default because MUNICH estimators cost
  /// orders of magnitude more per candidate than a Euclidean row.
  std::size_t grain = 64;

  /// The constant per-point σ PROUD is told (its "a priori knowledge").
  double proud_sigma = 1.0;

  /// Base seed of the MUNICH Monte Carlo pair streams; the same value used
  /// with the scalar API reproduces engine results bit-exactly.
  std::uint64_t seed = 0x5eed;
};

/// \brief Batched parallel MUNICH / PROUD / DUST query execution over one
/// pdf-model dataset (plus an optional sample-model dataset for MUNICH).
///
/// The engine packs the pdf dataset's observations at `Create` and owns
/// them; it borrows the sample-model dataset of `AttachSamples` and the
/// table cache of `BuildDustTables`, which must outlive it. All query
/// methods are const and safe to call concurrently once construction (and
/// `BuildDustTables`, if used) is done.
class UncertainEngine {
 public:
  /// Build the engine: packs the observations into a SoA store and assigns
  /// error-class ids. Fails as `CheckShape` does on data of another shape.
  /// Measure-specific precomputations are explicit setup steps so callers
  /// only pay for what they query: `BuildDustTables` before the DUST
  /// queries (PROUD needs none; MUNICH needs `AttachSamples`).
  static Result<std::unique_ptr<UncertainEngine>> Create(
      const uncertain::UncertainDataset& pdf,
      UncertainEngineOptions options = {});

  /// The shape `Create` requires: InvalidArgument for an empty dataset, an
  /// empty series or series of different lengths.
  static Status CheckShape(const uncertain::UncertainDataset& pdf);

  /// Joins the owned pool, if any.
  ~UncertainEngine();

  UncertainEngine(const UncertainEngine&) = delete;  ///< Not copyable.
  UncertainEngine& operator=(const UncertainEngine&) =
      delete;  ///< Not copyable.

  /// Number of series.
  std::size_t size() const { return store_.rows(); }

  /// Shared series length.
  std::size_t length() const { return store_.stride(); }

  /// Resolved worker-thread count (>= 1).
  std::size_t threads() const;

  /// The options the engine was created with.
  const UncertainEngineOptions& options() const { return options_; }

  /// Kernel level the DUST/PROUD sweeps execute at (resolved once from
  /// UncertainEngineOptions::simd at construction).
  distance::SimdLevel simd_level() const { return dispatch_->level; }

  /// Euclidean k nearest neighbors of `query` over the observations, self
  /// excluded, ascending: bitwise DistanceMatrixEngine's answer over the
  /// same observations, `cost` (incremented when non-null) included.
  std::vector<Neighbor> KNearestEuclidean(
      std::size_t query, std::size_t k,
      index::SearchCost* cost = nullptr) const;

  /// Euclidean RQ(Q, C, ε) over the observations, self excluded, ascending;
  /// bitwise DistanceMatrixEngine's answer, like KNearestEuclidean.
  std::vector<std::size_t> RangeSearchEuclidean(
      std::size_t query, double epsilon,
      index::SearchCost* cost = nullptr) const;

  /// Euclidean distance of one pair over the observations, through the
  /// scan's kernel: bitwise the value the two queries above compare for
  /// `candidate`, so an ε taken from it keeps `candidate` in range.
  double EuclideanDistance(std::size_t query, std::size_t candidate) const;

  /// \name DUST
  /// \{

  /// Borrow one lookup table per unordered pair of error classes from
  /// `cache`, the scalar measure's table cache, which builds any it lacks
  /// (so canonicalization and construction live in measures::Dust alone).
  /// Re-binding to new data with the same error models then reuses the
  /// tables already built instead of re-running the numeric integration.
  /// Tables are looked up by model key (`Dust::TableByKey`), so the cache
  /// keeps none of this dataset's error models alive.
  /// `cache` must outlive this engine; it is append-only, so borrowed
  /// table addresses stay valid. The cache's DustOptions decide the tables.
  /// Idempotent; must complete before the DUST queries below. Not
  /// thread-safe against concurrent queries (call during setup).
  Status BuildDustTables(measures::Dust& cache);

  /// True once BuildDustTables has succeeded.
  bool dust_ready() const { return dust_ready_; }

  /// True iff the DUST k-NN / range paths will route through the cascade:
  /// the synopsis index was built (UncertainEngineOptions::index enabled)
  /// AND the built tables admit a positive distance minorant.
  bool dust_index_enabled() const {
    return synopsis_index_ != nullptr && dust_ready_ && dust_bound_.valid;
  }

  /// Dense DUST(query, ·) sweep over every series (self slot included).
  Result<std::vector<double>> DustDistances(std::size_t query) const;

  /// DUST distance of one pair, through the same tables/kernels.
  Result<double> DustDistance(std::size_t query, std::size_t candidate) const;

  /// k nearest neighbors under DUST, self excluded; ascending distance,
  /// ties by index (the legacy comparator). `cost`, when non-null, is
  /// incremented with the query's work accounting (an unindexed sweep
  /// reports every eligible candidate as touched).
  Result<std::vector<Neighbor>> KNearestDust(
      std::size_t query, std::size_t k,
      index::SearchCost* cost = nullptr) const;

  /// RQ(Q, C, ε) under DUST: indices with distance <= epsilon, self
  /// excluded, ascending.
  Result<std::vector<std::size_t>> RangeSearchDust(
      std::size_t query, double epsilon,
      index::SearchCost* cost = nullptr) const;
  /// \}

  /// \name PROUD (paper-faithful constant-σ model)
  /// \{

  /// Dense Pr(distance(query, ·) ≤ ε) sweep (self slot included).
  std::vector<double> ProudMatchProbabilities(std::size_t query,
                                              double epsilon) const;

  /// PRQ(Q, C, ε, τ) via the ε_norm ≥ Φ⁻¹(τ) test — bit-identical to
  /// measures::Proud::Matches per candidate. Self excluded, ascending. The
  /// one-τ case of the multi-τ scan below.
  std::vector<std::size_t> ProbabilisticRangeSearchProud(std::size_t query,
                                                         double epsilon,
                                                         double tau) const;

  /// PRQ(Q, C, ε, τ) for every τ of `taus` from one moment pass: each
  /// candidate's ε_norm is scored once and Φ⁻¹(τ) is evaluated once per τ.
  /// `result[i]` is bit-identical to the single-τ call at `taus[i]`.
  std::vector<std::vector<std::size_t>> ProbabilisticRangeSearchProud(
      std::size_t query, double epsilon, std::span<const double> taus) const;

  /// k candidates with the highest match probability at ε, self excluded;
  /// descending probability, ties by index. `Neighbor::distance` carries
  /// the probability.
  std::vector<Neighbor> KNearestProud(std::size_t query, double epsilon,
                                      std::size_t k) const;
  /// \}

  /// \name MUNICH (requires AttachSamples)
  /// Each query takes the estimator configuration `munich` it runs (its τ
  /// is never read: PRQ takes τ explicitly), so matchers with different
  /// estimators share one engine.
  /// \{

  /// Attach the repeated-observations dataset and precompute its
  /// bounding-interval columns. Series count and lengths must match the
  /// pdf dataset.
  Status AttachSamples(const uncertain::MultiSampleDataset& samples);

  /// True once a sample-model dataset is attached.
  bool has_samples() const { return samples_ != nullptr; }

  /// Dense Pr(distance(query, ·) ≤ ε) sweep via the estimator of `munich`
  /// with the interval-bounds filter applied first (when enabled). The self
  /// slot is 0 (never evaluated). Bit-identical to
  /// measures::Munich(munich).MatchProbability with prob::PairStreamSeed
  /// per pair.
  Result<std::vector<double>> MunichMatchProbabilities(
      std::size_t query, double epsilon,
      const measures::MunichOptions& munich) const;

  /// PRQ(Q, C, ε, τ): probability ≥ τ, self excluded, ascending.
  Result<std::vector<std::size_t>> ProbabilisticRangeSearchMunich(
      std::size_t query, double epsilon, double tau,
      const measures::MunichOptions& munich) const;

  /// k candidates with the highest MUNICH match probability at ε, self
  /// excluded; descending probability, ties by index.
  Result<std::vector<Neighbor>> KNearestMunich(
      std::size_t query, double epsilon, std::size_t k,
      const measures::MunichOptions& munich) const;
  /// \}

 private:
  explicit UncertainEngine(UncertainEngineOptions options);

  /// MUNICH probability of one pair (bounds filter + estimator), reading
  /// the precomputed interval columns.
  Result<double> MunichPairProbability(
      std::size_t qi, std::size_t ci, double epsilon,
      const measures::MunichOptions& munich) const;

  /// The scan target over the observation store.
  detail::ScanTarget Target() const;

  /// InvalidArgument until BuildDustTables has succeeded.
  Status RequireDustTables() const;

  /// DUST chunk scorer of series `query` (row `qrow`, pinned by the caller
  /// for the scorer's lifetime): single-lut or classed kernel.
  detail::ChunkScorer DustScorer(std::size_t query,
                                 std::span<const double> qrow) const;

  /// Stage-1 bounds of the DUST cascade: synopsis Euclidean bounds of
  /// `qrow` mapped through dust_bound_. Requires dust_index_enabled().
  std::vector<double> DustCascadeLowerBounds(
      std::span<const double> qrow) const;

  UncertainEngineOptions options_;
  /// Kernel table resolved from options_.simd at construction; never null.
  const distance::KernelDispatch* dispatch_;

  ts::SoaStore store_;  ///< Packed observations.
  double proud_v_ = 2.0;  ///< v = 2σ² of the constant-σ PROUD model.

  std::vector<std::uint16_t> class_ids_;  ///< rows×stride error-class ids.
  std::vector<prob::ErrorDistributionPtr> class_dists_;  ///< Representatives.
  std::size_t num_classes_ = 0;

  /// The K×K lut matrix, viewing the tables of the cache BuildDustTables
  /// borrowed from; immutable afterwards.
  std::vector<distance::DustLut> dust_luts_;
  bool dust_ready_ = false;

  /// Synopsis pack over the observation rows; null unless
  /// UncertainEngineOptions::index.enabled.
  std::unique_ptr<const index::SynopsisIndex> synopsis_index_;
  /// Euclidean-to-DUST bound map; rebuilt by BuildDustTables.
  index::DustLowerBoundMap dust_bound_;

  const uncertain::MultiSampleDataset* samples_ = nullptr;  ///< Borrowed.
  ts::SoaStore sample_lo_, sample_hi_;  ///< Bounding-interval columns.

  std::unique_ptr<exec::ThreadPool> owned_pool_;  ///< Null when borrowed/inline.
  exec::ThreadPool* pool_ = nullptr;  ///< Executor view; null = run inline.
};

}  // namespace uts::query

#endif  // UTS_QUERY_UNCERTAIN_ENGINE_HPP_
