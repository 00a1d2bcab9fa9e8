// Fixed-size thread pool for the service layer: a mutex/condvar task queue
// drained by N worker threads. Tasks are std::function<void()>; Submit wraps
// a callable in a packaged_task and returns the future. The pool is the
// execution engine behind service::Matcher (single queries, batches and
// async submissions all end up here).
#ifndef XSM_UTIL_THREAD_POOL_H_
#define XSM_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace xsm {

/// A fixed pool of worker threads executing queued tasks in FIFO order.
/// Thread-safe: Schedule / Submit / Wait may be called from any thread.
/// The destructor drains the queue (every task scheduled before destruction
/// runs) and joins the workers.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues fire-and-forget work.
  void Schedule(std::function<void()> fn);

  /// Enqueues `fn` and returns a future for its result. The future's value
  /// (or exception) becomes available when the task finishes.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Schedule([task]() { (*task)(); });
    return future;
  }

  /// Blocks until the queue is empty and every in-flight task has finished.
  /// Tasks scheduled by other threads while waiting extend the wait.
  void Wait();

  /// Number of pending + running tasks (a snapshot; racy by nature).
  size_t pending() const;

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t DefaultThreadCount();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // popped but not yet finished
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace xsm

#endif  // XSM_UTIL_THREAD_POOL_H_
