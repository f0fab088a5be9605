#include "exec/parallel_for.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <vector>

namespace uts::exec {

std::size_t NumChunks(std::size_t n, std::size_t grain) {
  assert(grain > 0);
  return n == 0 ? 0 : (n + grain - 1) / grain;
}

void ParallelFor(ThreadPool* pool, std::size_t n, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& body) {
  assert(grain > 0);
  if (n == 0) return;
  const std::size_t chunks = NumChunks(n, grain);

  if (pool == nullptr || pool->size() <= 1 || chunks <= 1 ||
      pool->OnWorkerThread()) {
    for (std::size_t c = 0; c < chunks; ++c) {
      body(c * grain, std::min(n, (c + 1) * grain));
    }
    return;
  }

  std::vector<std::exception_ptr> errors(chunks);
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = chunks;

  for (std::size_t c = 0; c < chunks; ++c) {
    pool->Submit([&, c] {
      try {
        body(c * grain, std::min(n, (c + 1) * grain));
      } catch (...) {
        errors[c] = std::current_exception();
      }
      // Notify while holding the mutex: once the caller can observe
      // remaining == 0 it may return and destroy done_cv, so an unlocked
      // notify could touch a dead condition variable.
      std::lock_guard<std::mutex> lock(done_mutex);
      if (--remaining == 0) done_cv.notify_one();
    });
  }

  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }

  // Re-throw the lowest-index failure so error propagation does not depend
  // on thread interleaving.
  for (std::size_t c = 0; c < chunks; ++c) {
    if (errors[c]) std::rethrow_exception(errors[c]);
  }
}

}  // namespace uts::exec
