/// \file service.hpp
/// \brief Request execution over the shared query::EngineContext.
///
/// `Service` is the single-threaded heart of the server: the dispatcher
/// thread (see server.hpp) feeds it one admitted request at a time, and it
/// translates each into engine calls on one `EngineContext` — one thread
/// pool, one SoA pack per resident dataset, cached engines. Serializing
/// engine access here is what keeps the context's setup-time mutation rules
/// intact while still extracting full parallelism: each individual query
/// fans out over the context's shared `exec::ThreadPool` through the
/// engines' deterministic `ParallelFor` partitions, so responses are
/// bitwise identical to in-process engine calls at every pool width.
///
/// Every query request takes one path: activate the resident, acquire the
/// engine for the measure, `UncertainEngine::Answer`, which validates the
/// whole query. A failure on that path — a bad parameter, a missing
/// measure state, a block whose spill log cannot be read, an estimator
/// that refuses a pair — becomes that one request's error response.
///
/// API fence: the end-to-end benchmark (bench/e2e/serve.cpp) calls
/// `Knn`, `Range`, `Prq` and `MeasureSweep` with their
/// `(const QueryRequest&, std::uint64_t)` signatures, plus `context()`,
/// and reaches a shard's service through `Server::shard_service`. Keep the
/// four handlers as separate public methods with these signatures; do not
/// collapse them into one public handler.
///
/// Thread-safety: all methods must be called from one thread at a time
/// (the dispatcher). `stats()` is the exception — it snapshots under a lock
/// so tests and monitoring can read concurrently.

#ifndef UTS_SERVER_SERVICE_HPP_
#define UTS_SERVER_SERVICE_HPP_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>

#include "common/result.hpp"
#include "measures/munich.hpp"
#include "query/engine_context.hpp"
#include "server/wire.hpp"

namespace uts::server {

/// \brief Engine-side configuration of a Service.
struct ServiceOptions {
  /// Worker threads of the shared pool (EngineContextOptions::threads);
  /// 1 = queries run inline on the dispatcher.
  std::size_t threads = 1;

  /// Kernel selection shared by every engine (EngineContextOptions::simd).
  distance::SimdMode simd = distance::SimdMode::kAuto;

  /// Prune-before-score index cascade shared by every engine.
  index::IndexOptions index;

  /// MUNICH estimator configuration of every MUNICH request (τ excluded:
  /// PRQ requests carry their own).
  measures::MunichOptions munich;

  /// Borrowed executor handed through to the context
  /// (EngineContextOptions::shared_pool): the server's `shared` pool policy
  /// lends one pool to every shard's service. Must be at least `threads`
  /// wide and outlive the service. Null = the context owns its pool.
  exec::ThreadPool* shared_pool = nullptr;

  /// Storage-tier budget handed through to the context
  /// (EngineContextOptions::memory_budget_bytes). 0 = fully-resident
  /// stores; non-zero pages every bound dataset's stores through a
  /// per-shard ts::BufferPool with responses bitwise identical either way.
  std::size_t memory_budget_bytes = 0;

  /// Spill directory of the shard's buffer pool
  /// (EngineContextOptions::spill_dir); empty = $TMPDIR, else /tmp.
  std::string spill_dir;
};

/// \brief The dataset a request payload addresses, used to route it to the
/// per-dataset shard whose dispatcher owns that dataset's EngineContext.
///
/// Every dataset-carrying request schema leads with its dataset name
/// (`BindDatasetRequest::name`, `QueryRequest::dataset`), so routing decodes
/// only the leading string — not the full payload. Pings route by
/// `PingRequest::dataset`. Everything else — and any payload too malformed
/// to yield its leading string — returns "" (the control shard), whose full
/// decode produces the authoritative error response.
std::string ShardKeyOf(MessageType type, std::span<const std::uint8_t> payload);

/// \brief Executes wire requests against the shared engine context.
class Service {
 public:
  /// Execution counters; snapshot via stats().
  struct Stats {
    std::uint64_t binds = 0;        ///< BindDataset requests served.
    std::uint64_t queries = 0;      ///< Knn/Range/Prq/MeasureSweep served.
    std::uint64_t sweep_items = 0;  ///< Per-query k-NN lists computed by
                                    ///< KnnSweep requests. The reconnect
                                    ///< test pins this to prove completed
                                    ///< work is never re-run.
  };

  /// Create the service and its private EngineContext.
  explicit Service(ServiceOptions options);

  /// The underlying context (tests compare server responses against direct
  /// calls on an identically configured private context).
  query::EngineContext& context() { return context_; }

  /// Perturb the uploaded exact dataset deterministically and make it
  /// resident under `request.name` (pdf model and optional sample model;
  /// Euclidean requests read the pdf model's observations). InvalidArgument
  /// for an empty or ragged dataset, a non-finite value, and — when the
  /// constant regime reads it (`mixed_sigma == 0`) — a non-finite or
  /// non-positive σ.
  Result<BindOkResponse> Bind(const BindDatasetRequest& request,
                              std::uint64_t request_seq);

  /// Names of the resident datasets.
  DatasetListResponse List(std::uint64_t request_seq);

  /// \name Query handlers
  /// Each runs the one shared path — activate the dataset (NotFound for an
  /// unknown name or a query index past its series), acquire the engine
  /// for the measure (NotSupported, so kUnavailable on the wire, for
  /// MUNICH without a sample model), then query::UncertainEngine::Answer,
  /// whose InvalidArgument messages name the handler ("knn: k must be
  /// >= 1") — and maps the answer to its response type.
  /// \{

  /// k-NN under the requested measure. For the probability measures the
  /// neighbor `distance` field carries the match probability at ε.
  Result<KnnResponse> Knn(const QueryRequest& request,
                          std::uint64_t request_seq);

  /// Range query: Euclidean or DUST distance <= ε.
  Result<IndexListResponse> Range(const QueryRequest& request,
                                  std::uint64_t request_seq);

  /// Probabilistic range query: PROUD or MUNICH Pr(dist <= ε) >= τ.
  Result<IndexListResponse> Prq(const QueryRequest& request,
                                std::uint64_t request_seq);

  /// Dense per-candidate sweep: DUST distances or PROUD/MUNICH match
  /// probabilities at ε. InvalidArgument for Euclidean.
  Result<SweepResponse> MeasureSweep(const QueryRequest& request,
                                     std::uint64_t request_seq);
  /// \}

  /// Record one completed per-query k-NN list of a KnnSweep (called by the
  /// dispatcher as it streams sweep items).
  void NoteSweepItem();

  /// Counter snapshot (thread-safe).
  Stats stats() const;

 private:
  /// Activate `name` and fail with NotFound/InvalidArgument when absent or
  /// the query index is out of range.
  Status Activate(const std::string& name, std::uint32_t query);

  /// The handlers' shared path: activate, acquire, answer `kind`.
  Result<query::QueryAnswer> Answer(const QueryRequest& request,
                                    query::QueryKind kind);

  ServiceOptions options_;
  query::EngineContext context_;

  mutable std::mutex stats_mutex_;
  Stats stats_;
};

}  // namespace uts::server

#endif  // UTS_SERVER_SERVICE_HPP_
