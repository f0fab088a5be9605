#include "exec/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace uts::exec {

std::atomic<std::size_t> ThreadPool::total_created_{0};

namespace {

/// The pool whose worker loop runs on this thread; null on other threads.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  total_created_.fetch_add(1, std::memory_order_relaxed);
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

bool ThreadPool::OnWorkerThread() const { return current_pool == this; }

void ThreadPool::WorkerLoop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace uts::exec
