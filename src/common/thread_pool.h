#ifndef RAQO_COMMON_THREAD_POOL_H_
#define RAQO_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace raqo {

/// A fixed-size worker pool for the concurrent planning service. Tasks
/// are plain closures executed FIFO by `num_threads` long-lived workers;
/// Submit returns a future so callers can join on individual tasks. The
/// concurrent workload runner runs its planner workers here: each task
/// plans whole queries, so planning never runs in parallel below the
/// query level.
///
/// The pool itself is thread-safe: any thread may Submit. Task closures
/// must synchronize their own shared state.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains nothing: pending tasks are still executed, then workers join.
  ~ThreadPool();

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task; the future resolves when it finishes (exceptions
  /// propagate through the future).
  std::future<void> Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace raqo

#endif  // RAQO_COMMON_THREAD_POOL_H_
