//===- support/ThreadPool.cpp - Fixed-size worker pool --------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <exception>

namespace csspgo {

unsigned ThreadPool::defaultConcurrency() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

ThreadPool::ThreadPool(unsigned ThreadCount) {
  if (ThreadCount == 0)
    ThreadCount = defaultConcurrency();
  Workers.reserve(ThreadCount);
  for (unsigned I = 0; I != ThreadCount; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WakeWorkers.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::packaged_task<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WakeWorkers.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task(); // Exceptions land in the task's future.
  }
}

std::future<void> ThreadPool::async(std::function<void()> Task) {
  std::packaged_task<void()> Packaged(std::move(Task));
  std::future<void> Future = Packaged.get_future();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Packaged));
  }
  WakeWorkers.notify_one();
  return Future;
}

void ThreadPool::parallelFor(size_t Count,
                             const std::function<void(size_t)> &Fn) {
  std::vector<std::future<void>> Futures;
  Futures.reserve(Count);
  for (size_t I = 0; I != Count; ++I)
    Futures.push_back(async([&Fn, I] { Fn(I); }));
  std::exception_ptr First;
  for (std::future<void> &F : Futures) {
    try {
      F.get();
    } catch (...) {
      if (!First)
        First = std::current_exception();
    }
  }
  if (First)
    std::rethrow_exception(First);
}

void forEachIndex(size_t Count, unsigned Jobs,
                  const std::function<void(size_t)> &Fn) {
  if (Jobs <= 1 || Count <= 1) {
    for (size_t I = 0; I != Count; ++I)
      Fn(I);
    return;
  }
  ThreadPool Pool(static_cast<unsigned>(std::min<size_t>(Jobs, Count)));
  Pool.parallelFor(Count, Fn);
}

} // namespace csspgo
