/// \file parallel_for.hpp
/// \brief Deterministic blocked parallel loops on a ThreadPool.
///
/// `ParallelFor` partitions [0, n) into fixed contiguous chunks that are a
/// pure function of (n, grain) — never of thread timing — and runs the body
/// once per chunk. Bodies write to disjoint, pre-allocated output slots, so
/// a parallel run produces bit-identical state to running the chunks
/// sequentially in order; this is the foundation of the query engine's
/// determinism guarantee. Chunk index = range_begin / grain, usable for
/// deterministic per-range seeding of stochastic bodies.

#ifndef UTS_EXEC_PARALLEL_FOR_HPP_
#define UTS_EXEC_PARALLEL_FOR_HPP_

#include <cstddef>
#include <functional>

#include "exec/thread_pool.hpp"

namespace uts::exec {

/// \brief Run `body(range_begin, range_end)` over the blocked partition of
/// [0, n) with chunks of `grain` indices (the last chunk may be short).
///
/// Runs inline on the caller when `pool` is null, has a single worker,
/// there is only one chunk, or the caller is itself a worker of `pool` (a
/// nested loop, e.g. an engine sweep inside the evaluation runner's
/// per-query tasks). Otherwise every chunk is submitted to the pool and the
/// call blocks until all chunks finish. The chunks and their order are the
/// same either way. The body must be thread-safe and must only write
/// caller-owned disjoint state per chunk.
///
/// Exceptions thrown by the body are captured per chunk; after all chunks
/// complete, the exception of the lowest-index failing chunk is re-thrown
/// on the caller — deterministic regardless of thread interleaving. An
/// empty range (n == 0) is a no-op.
void ParallelFor(ThreadPool* pool, std::size_t n, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body);

/// \brief Chunk count of the blocked partition ParallelFor uses.
std::size_t NumChunks(std::size_t n, std::size_t grain);

}  // namespace uts::exec

#endif  // UTS_EXEC_PARALLEL_FOR_HPP_
