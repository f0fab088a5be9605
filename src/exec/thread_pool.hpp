/// \file thread_pool.hpp
/// \brief A small fixed-size thread pool for the parallel query engine.
///
/// Deliberately minimal: one FIFO task queue, no work stealing, no task
/// priorities. The engine's parallelism is coarse blocked ranges (see
/// parallel_for.hpp), so a simple queue is contention-free in practice and
/// keeps the execution order — and therefore the result — easy to reason
/// about. Tasks must not throw across the pool boundary; `ParallelFor`
/// captures and re-throws task exceptions deterministically on the caller.
/// A task may itself call `ParallelFor` on its own pool: the nested loop
/// runs inline on that worker (`OnWorkerThread`).

#ifndef UTS_EXEC_THREAD_POOL_HPP_
#define UTS_EXEC_THREAD_POOL_HPP_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace uts::exec {

/// \brief Fixed set of worker threads draining one FIFO task queue.
class ThreadPool {
 public:
  /// Start `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task. The task must not throw — wrap fallible work in a
  /// try/catch that records the failure (ParallelFor does this for you).
  void Submit(std::function<void()> task);

  /// True when the calling thread is one of this pool's workers. A worker
  /// that queued chunks and waited for them could deadlock the pool once
  /// every worker did the same, so ParallelFor runs nested loops inline.
  bool OnWorkerThread() const;

  /// Process-wide count of ThreadPool constructions. Diagnostic backing for
  /// the run-wide resource discipline (query::EngineContext): the
  /// context-lifecycle tests assert that a full multi-matcher evaluation
  /// raises this by exactly one (and by zero when threads == 1).
  static std::size_t TotalCreated() {
    return total_created_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  static std::atomic<std::size_t> total_created_;
};

}  // namespace uts::exec

#endif  // UTS_EXEC_THREAD_POOL_HPP_
