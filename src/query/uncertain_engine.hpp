/// \file uncertain_engine.hpp
/// \brief The batched, multi-threaded query engine for the *uncertain*
/// measures — MUNICH, PROUD and DUST — the techniques every reported figure
/// of the paper (Fig. 4–17) is driven by, plus Euclidean over their
/// observations.
///
/// `UncertainEngine` answers every query through one entry point,
/// `Answer(const Query&)`: a measure (Euclidean, DUST, PROUD, MUNICH) and a
/// kind — k-NN lists, range queries RQ (Eq. 1), probabilistic range queries
/// PRQ(Q,C,ε,τ) (Eq. 2) over a list of τ, dense 1-vs-all sweeps, and the
/// score of one pair for calibration. `Answer` checks the whole query in
/// one place — indices, k, ε where the query reads it, every τ, a supported
/// (measure, kind) pair and the measure's state — and returns every failure
/// as a `Status`: a bad parameter, a block that cannot be pinned, an
/// estimator that refuses a pair. It never returns a partial answer.
///
/// Each measure plugs into the shared store scan (scan.hpp) as a chunk
/// scorer, an optional lower-bound map for the index cascade, and its order
/// (ascending distance or descending probability); the kind picks the
/// selection. The scans stream contiguous `ts::SoaStore` blocks over
/// parallel chunks of candidates on an `exec::ThreadPool`, so one engine
/// serves all four measures and no certain-dataset copy is kept.
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
///    constant-σ sweep is a single fused pass over them. Its PRQ thresholds
///    ε_norm at Φ⁻¹(τ) (Eq. 10); a degenerate σ = 0 margin scores ±∞.
///  * **MUNICH** — per-series bounding-interval columns (min/max per
///    timestamp) for the certain-accept / certain-reject filter, which the
///    scan reads block by block, plus deterministic *counter-based* RNG
///    seeding: the Monte Carlo stream of pair (q, c) is seeded by the pure
///    function `DeriveSeed(seed, q·n + c + 0x9a1)` of the pair counter
///    alone, so parallel and sequential runs draw identical
///    materializations. The estimator configuration is a field of each
///    query, so every MUNICH caller of a run shares the one engine.
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
/// Proud::MarginFromStats; MUNICH bounds go through
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

/// \brief The measure a Query scores with.
enum class Measure {
  kEuclidean,  ///< Euclidean distance over the observations.
  kDust,       ///< DUST distance; needs the DUST tables.
  kProud,      ///< PROUD Pr(distance <= ε) under the constant-σ model.
  kMunich,     ///< MUNICH Pr(distance <= ε); needs the sample model.
};

/// \brief What a Query selects from its measure's scores. Euclidean and
/// DUST score distances, PROUD and MUNICH match probabilities at ε.
enum class QueryKind {
  kKnn,    ///< The k best candidates: nearest, or most probable.
  kRange,  ///< RQ (Eq. 1): distance <= ε. Distance measures only.
  kPrq,    ///< PRQ (Eq. 2) at every τ of the list. Probability measures only.
  kSweep,  ///< Every series' score, the self slot included.
  kScore,  ///< One candidate's score (ε calibration).
};

/// \brief One engine query. A field the kind does not read is ignored and
/// not checked.
struct Query {
  Measure measure = Measure::kEuclidean;  ///< The scoring measure.
  QueryKind kind = QueryKind::kKnn;       ///< The selection.
  std::size_t query = 0;                  ///< The query series.
  std::size_t candidate = 0;              ///< The candidate of kScore.
  std::size_t k = 0;                      ///< Neighbours of kKnn (>= 1).
  /// The range threshold of kRange, and the ε of every PROUD and MUNICH
  /// probability; finite and >= 0 where read.
  double epsilon = 0.0;
  std::vector<double> taus{};  ///< The PRQ thresholds, each in (0, 1).
  /// The estimator of MUNICH queries; its τ is never read.
  measures::MunichOptions munich{};
};

/// \brief What Answer returns. Only the fields of the query's kind are
/// filled; self is excluded from every selection.
struct QueryAnswer {
  /// kKnn: best first (ascending distance, descending probability), ties
  /// by index. `Neighbor::distance` carries the score.
  std::vector<Neighbor> neighbors;
  /// kRange: one list; kPrq: one list per τ, in order. Indices ascend.
  std::vector<std::vector<std::size_t>> matches;
  /// kSweep: one score per series (MUNICH's self slot is 0); kScore: one.
  std::vector<double> scores;
  /// Work accounting of Euclidean and DUST kNN and range queries: an
  /// unindexed scan reports every eligible candidate as touched.
  index::SearchCost cost;
};

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

/// \brief Batched parallel Euclidean / DUST / PROUD / MUNICH query
/// execution over one pdf-model dataset (plus an optional sample-model
/// dataset for MUNICH).
///
/// The engine packs the pdf dataset's observations at `Create` and owns
/// them; it borrows the sample-model dataset of `AttachSamples` and the
/// table cache of `BuildDustTables`, which must outlive it. `Answer` is
/// const and safe to call concurrently once construction (and
/// `BuildDustTables`, if used) is done.
class UncertainEngine {
 public:
  /// Build the engine over the object form: packs it into the flat form
  /// (observations plus error-class ids, the models interned by `Key()`)
  /// and adopts that as the `UncertainPack` overload does. Fails as
  /// `CheckShape` does on data of another shape, and with NotSupported past
  /// 65535 distinct models. Measure-specific precomputations are explicit
  /// setup steps so callers only pay for what they query:
  /// `BuildDustTables` before the DUST queries (PROUD needs none; MUNICH
  /// needs `AttachSamples`).
  static Result<std::unique_ptr<UncertainEngine>> Create(
      const uncertain::UncertainDataset& pdf,
      UncertainEngineOptions options = {});

  /// Build the engine by adopting `pack`: its observations become the
  /// store without a copy (a paged store copies them into its blocks) and
  /// its class ids and table become the engine's error classes.
  /// InvalidArgument for an empty pack, sizes that do not match its shape
  /// or a class id past its table.
  static Result<std::unique_ptr<UncertainEngine>> Create(
      uncertain::UncertainPack pack, UncertainEngineOptions options = {});

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

  /// The observation rows (pin one with `PinRow`), paged like the store.
  ts::StoreView observations() const { return ts::StoreView(store_); }

  /// The error class of every point, row-major (rows × length).
  std::span<const std::uint16_t> class_ids() const { return class_ids_; }

  /// The reported model of each error class: distinct by `Key()`, in the
  /// order the classes first occur row-major.
  std::span<const prob::ErrorDistributionPtr> error_classes() const {
    return class_dists_;
  }

  /// Resolved worker-thread count (>= 1).
  std::size_t threads() const;

  /// The options the engine was created with.
  const UncertainEngineOptions& options() const { return options_; }

  /// Kernel level the Euclidean/DUST/PROUD scans execute at (resolved once
  /// from UncertainEngineOptions::simd at construction).
  distance::SimdLevel simd_level() const { return dispatch_->level; }

  /// Borrow one lookup table per unordered pair of error classes from
  /// `cache`, the scalar measure's table cache, which builds any it lacks
  /// (so canonicalization and construction live in measures::Dust alone).
  /// Re-binding to new data with the same error models then reuses the
  /// tables already built instead of re-running the numeric integration.
  /// Tables are looked up by model key (`Dust::TableByKey`), so the cache
  /// keeps none of this dataset's error models alive.
  /// `cache` must outlive this engine; it is append-only, so borrowed
  /// table addresses stay valid. The cache's DustOptions decide the tables.
  /// Idempotent; must complete before DUST queries. Not thread-safe
  /// against concurrent queries (call during setup).
  Status BuildDustTables(measures::Dust& cache);

  /// True once BuildDustTables has succeeded.
  bool dust_ready() const { return dust_ready_; }

  /// True iff the DUST k-NN / range queries route through the cascade:
  /// the synopsis index was built (UncertainEngineOptions::index enabled)
  /// AND the built tables admit a positive distance minorant.
  bool dust_index_enabled() const {
    return synopsis_index_ != nullptr && dust_ready_ && dust_bound_.valid;
  }

  /// Attach the repeated-observations dataset MUNICH queries read and
  /// precompute its bounding-interval columns. Series count and lengths
  /// must match the pdf dataset.
  Status AttachSamples(const uncertain::MultiSampleDataset& samples);

  /// True once a sample-model dataset is attached.
  bool has_samples() const { return samples_ != nullptr; }

  /// Answer `query`. InvalidArgument, naming the kind ("knn: k must be
  /// >= 1"), for: a query index (or kScore candidate) past the rows; k = 0
  /// on kNN; a non-finite or negative ε where the query reads it (range,
  /// and every PROUD and MUNICH query); a τ outside (0, 1) on PRQ; range on
  /// PROUD or MUNICH; PRQ on Euclidean or DUST; DUST before
  /// BuildDustTables; MUNICH before AttachSamples. A block that cannot be
  /// pinned or a MUNICH estimator that refuses a pair fails with that
  /// status (the lowest failing chunk's at every thread count).
  Result<QueryAnswer> Answer(const Query& query) const;

 private:
  explicit UncertainEngine(UncertainEngineOptions options);

  /// Answer's validation: OK or the InvalidArgument it documents.
  Status Check(const Query& query) const;

  /// The measure of `query` as a scan: its chunk scorer, order and, for the
  /// indexed Euclidean and DUST kNN and range, the cascade's inputs. A
  /// non-null `cost` receives the cascade's abandon counts.
  Result<detail::MeasureScan> Scan(const Query& query,
                                   index::SearchCost* cost) const;

  /// The scan target over the observation store.
  detail::ScanTarget Target() const;

  /// DUST chunk scorer of series `query` (row `qrow`, pinned by the caller
  /// for the scorer's lifetime): single-lut or classed kernel.
  detail::ChunkScorer DustScorer(std::size_t query,
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
  /// Bounding-interval columns, blocked like the observation store.
  ts::SoaStore sample_lo_, sample_hi_;

  std::unique_ptr<exec::ThreadPool> owned_pool_;  ///< Null when borrowed/inline.
  exec::ThreadPool* pool_ = nullptr;  ///< Executor view; null = run inline.
};

}  // namespace uts::query

#endif  // UTS_QUERY_UNCERTAIN_ENGINE_HPP_
