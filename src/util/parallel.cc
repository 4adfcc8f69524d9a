#include "util/parallel.h"

#include <atomic>
#include <memory>
#include <utility>

namespace aujoin {

ThreadPool::ThreadPool(int num_threads) {
  int workers = ResolveThreads(num_threads);
  workers_.reserve(workers);
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain remaining work even when stopping, so the destructor's
      // contract ("drains outstanding tasks") holds.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
    }
    idle_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(
    size_t n, const std::function<void(size_t, size_t, int)>& fn) {
  if (n == 0) return;
  size_t workers = std::min<size_t>(static_cast<size_t>(num_workers()), n);
  if (workers <= 1) {
    fn(0, n, 0);
    return;
  }
  // One task per worker index, each pulling chunks from a shared cursor
  // until the range is exhausted: a slowed thread or a run of costly
  // items holds up at most one chunk, not a 1/workers share of the
  // range. Several chunks per worker keep the tail short; the cap on
  // chunk count keeps cursor traffic negligible next to the items.
  constexpr size_t kChunksPerWorker = 32;
  const size_t grain =
      std::max<size_t>(1, n / (workers * kChunksPerWorker));
  // Private completion state: WaitIdle would also wait on unrelated
  // queued tasks, so each loop tracks its own workers.
  struct LoopState {
    std::atomic<size_t> next{0};
    std::mutex mutex;
    std::condition_variable done_cv;
    size_t remaining = 0;
  };
  auto state = std::make_shared<LoopState>();
  state->remaining = workers;
  for (size_t w = 0; w < workers; ++w) {
    Submit([&fn, state, n, grain, w] {
      for (;;) {
        const size_t begin =
            state->next.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= n) break;
        fn(begin, std::min(n, begin + grain), static_cast<int>(w));
      }
      std::lock_guard<std::mutex> lock(state->mutex);
      if (--state->remaining == 0) state->done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(state->mutex);
  state->done_cv.wait(lock, [&state] { return state->remaining == 0; });
}

void ParallelFor(size_t n, int num_threads,
                 const std::function<void(size_t, size_t, int)>& fn) {
  if (n == 0) return;
  int workers =
      static_cast<int>(std::min<size_t>(ResolveThreads(num_threads), n));
  if (workers <= 1) {
    fn(0, n, 0);
    return;
  }
  ThreadPool pool(workers);
  pool.ParallelFor(n, fn);
}

}  // namespace aujoin
