//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool with future-returning task submission, used by
/// the sharded profile-generation pipeline (ShardedProfGen), and the
/// serial-or-pool index loop (forEachIndex) the benches and the release
/// train fan their independent pipelines out with. Tasks are
/// plain std::function<void()> thunks; exceptions thrown by a task are
/// captured into its future and rethrown at get()/wait time in the
/// submitting thread, so shard failures surface at the reduction point
/// instead of crashing a worker.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_SUPPORT_THREADPOOL_H
#define CSSPGO_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace csspgo {

class ThreadPool {
public:
  /// Spawns \p ThreadCount workers; 0 means one per hardware thread.
  explicit ThreadPool(unsigned ThreadCount = 0);

  /// Joins all workers; queued tasks are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task. The returned future becomes ready when the task
  /// finishes (or throws; the exception is rethrown from get()).
  std::future<void> async(std::function<void()> Task);

  /// Runs Fn(0) .. Fn(Count-1) across the pool and waits for all of them.
  /// The first task exception (lowest index) is rethrown after every task
  /// has finished.
  void parallelFor(size_t Count, const std::function<void(size_t)> &Fn);

  unsigned concurrency() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// max(1, std::thread::hardware_concurrency()).
  static unsigned defaultConcurrency();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::packaged_task<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  bool Stopping = false;
};

/// Runs Fn(0) .. Fn(Count-1): inline and in index order when \p Jobs <= 1
/// or \p Count <= 1, else on a pool of min(Jobs, Count) workers. Callers
/// write results into index-addressed slots, so the outcome does not
/// depend on Jobs as long as the tasks are independent; with a pool, the
/// first task exception is rethrown after every task has finished.
void forEachIndex(size_t Count, unsigned Jobs,
                  const std::function<void(size_t)> &Fn);

} // namespace csspgo

#endif // CSSPGO_SUPPORT_THREADPOOL_H
