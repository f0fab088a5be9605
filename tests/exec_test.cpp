// Unit tests for the thread pool and deterministic ParallelFor (src/exec).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/parallel_for.hpp"
#include "exec/thread_pool.hpp"

namespace uts::exec {
namespace {

TEST(ThreadPoolTest, ResolvesZeroToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  constexpr int kTasks = 100;
  // Declared before the pool: the pool's destructor joins its workers, so
  // no task can outlive these and notify a destroyed condition variable.
  int done = 0;
  std::mutex mutex;
  std::condition_variable cv;

  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mutex);
      if (++done == kTasks) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return done == kTasks; }));
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue is drained
  EXPECT_EQ(done.load(), 50);
}

TEST(NumChunksTest, BlockedPartitionArithmetic) {
  EXPECT_EQ(NumChunks(0, 4), 0u);
  EXPECT_EQ(NumChunks(1, 4), 1u);
  EXPECT_EQ(NumChunks(4, 4), 1u);
  EXPECT_EQ(NumChunks(5, 4), 2u);
  EXPECT_EQ(NumChunks(8, 4), 2u);
  EXPECT_EQ(NumChunks(9, 4), 3u);
}

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 0, 16, [&](std::size_t, std::size_t) { calls++; });
  ParallelFor(nullptr, 0, 16, [&](std::size_t, std::size_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    for (std::size_t grain : {1u, 3u, 64u, 2000u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      ParallelFor(&pool, n, grain, [&](std::size_t begin, std::size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end, n);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i << " n=" << n
                                     << " grain=" << grain;
      }
    }
  }
}

TEST(ParallelForTest, InlineWhenPoolIsNullOrSingleWorker) {
  // With no pool (or one worker) the body must run on the calling thread.
  const auto caller = std::this_thread::get_id();
  ParallelFor(nullptr, 100, 10, [&](std::size_t, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  ThreadPool single(1);
  ParallelFor(&single, 100, 10, [&](std::size_t, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelForTest, NestedLoopOnTheSamePoolRunsInline) {
  // Both workers of a 2-worker pool run an outer chunk that issues its own
  // loop on the same pool. Queued behind the two waiting workers, the inner
  // chunks would never run; inline on each worker, the nest completes and
  // writes exactly what the sequential loops write.
  constexpr std::size_t kOuter = 2;
  constexpr std::size_t kInner = 8;
  std::vector<std::size_t> want(kOuter * kInner);
  for (std::size_t o = 0; o < kOuter; ++o) {
    for (std::size_t i = 0; i < kInner; ++i) want[o * kInner + i] = o * 100 + i;
  }
  ThreadPool pool(2);
  std::vector<std::size_t> got(kOuter * kInner, 0);
  ParallelFor(&pool, kOuter, 1, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t o = ob; o < oe; ++o) {
      const auto worker = std::this_thread::get_id();
      ParallelFor(&pool, kInner, 1, [&](std::size_t ib, std::size_t ie) {
        EXPECT_EQ(std::this_thread::get_id(), worker);
        for (std::size_t i = ib; i < ie; ++i) got[o * kInner + i] = o * 100 + i;
      });
    }
  });
  EXPECT_EQ(got, want);
}

TEST(ThreadPoolTest, OnWorkerThreadOnlyOnItsOwnWorkers) {
  ThreadPool pool(2);
  ThreadPool other(2);
  EXPECT_FALSE(pool.OnWorkerThread());
  std::atomic<int> own{0};
  std::atomic<int> foreign{0};
  ParallelFor(&pool, 4, 1, [&](std::size_t, std::size_t) {
    if (pool.OnWorkerThread()) own.fetch_add(1);
    if (other.OnWorkerThread()) foreign.fetch_add(1);
  });
  EXPECT_EQ(own.load(), 4);
  EXPECT_EQ(foreign.load(), 0);
}

TEST(ParallelForTest, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 100, 10,
                  [](std::size_t begin, std::size_t) {
                    if (begin == 50) throw std::runtime_error("chunk 5 died");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, RethrowsLowestChunkFailureDeterministically) {
  // Two chunks fail; the caller must always observe the lower-indexed one,
  // independent of which worker finished first.
  ThreadPool pool(8);
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      ParallelFor(&pool, 100, 10, [](std::size_t begin, std::size_t) {
        if (begin == 30) throw std::runtime_error("chunk 3");
        if (begin == 70) throw std::runtime_error("chunk 7");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 3");
    }
  }
}

TEST(ParallelForTest, ExceptionDoesNotAbortOtherChunks) {
  // All chunks run to completion even when one throws.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  EXPECT_THROW(ParallelFor(&pool, 100, 10,
                           [&](std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               hits[i].fetch_add(1);
                             }
                             if (begin == 0) throw std::runtime_error("x");
                           }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace uts::exec
