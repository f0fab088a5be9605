/// \file exec_options.hpp
/// \brief The execution fields every query engine shares.
///
/// `EngineOptions`, `UncertainEngineOptions` and `EngineContextOptions`
/// used to repeat the same four knobs (threads, SIMD mode, borrowed pool,
/// index cascade); they now all embed `ExecOptions` by public inheritance,
/// so the historical field names (`options.threads`, `.simd`,
/// `.shared_pool`, `.index`) keep working verbatim while there is exactly
/// one definition — and exactly one place to thread a new knob, which is
/// how the storage tier's `buffer_pool` reaches every engine.

#ifndef UTS_QUERY_EXEC_OPTIONS_HPP_
#define UTS_QUERY_EXEC_OPTIONS_HPP_

#include <cstddef>
#include <memory>

#include "distance/simd.hpp"
#include "exec/thread_pool.hpp"
#include "index/synopsis_index.hpp"
#include "ts/buffer_pool.hpp"

namespace uts::query {

/// \brief Execution knobs shared by every engine and by the context that
/// builds them. Engine- and context-specific options structs inherit this,
/// so the fields read exactly as they always have.
struct ExecOptions {
  /// Worker threads; 1 = run inline on the caller (sequential reference
  /// path), 0 = std::thread::hardware_concurrency().
  std::size_t threads = 1;

  /// Kernel selection for the batched sweeps: kAuto resolves the widest
  /// compiled-in SIMD level the CPU supports (subject to the
  /// UNCERTTS_FORCE_SCALAR environment override), kForceScalar pins the
  /// scalar reference kernels. See distance/simd.hpp for the per-kernel
  /// numeric policy.
  distance::SimdMode simd = distance::SimdMode::kAuto;

  /// Borrowed executor: when non-null the engine schedules on this pool
  /// instead of constructing a private one, and `threads` is ignored for
  /// pool sizing. The pool must outlive the engine. This is how
  /// query::EngineContext gives every engine of a run one shared pool.
  exec::ThreadPool* shared_pool = nullptr;

  /// Prune-before-score index cascade (default off). When enabled, the
  /// index-eligible query paths route through a Haar-synopsis lower-bound
  /// filter + early-abandon stage + exact re-scoring; results are bitwise
  /// identical to the unindexed scan.
  index::IndexOptions index;

  /// Storage tier: when non-null, stores the engine packs are split into
  /// blocks paged through this pool (ts/buffer_pool.hpp), so datasets
  /// larger than the pool's budget still scan — bitwise identically to the
  /// resident path. Null = classic fully-resident stores.
  std::shared_ptr<ts::BufferPool> buffer_pool;

  /// Rows per storage block for paged stores; 0 = the stride-derived
  /// ts::DefaultBlockRows. A test hook — shrinking blocks forces paging on
  /// small datasets; results are unaffected by construction.
  std::size_t block_rows = 0;
};

}  // namespace uts::query

#endif  // UTS_QUERY_EXEC_OPTIONS_HPP_
