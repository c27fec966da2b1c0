#pragma once
// Work-stealing thread pool — the execution engine behind the library's
// parallel phase, the materialized conflict-graph build.
//
// Design: one deque per worker. submit() feeds deques round-robin; a worker
// pops from the front of its own deque and, when empty, steals from the back
// of a victim's — classic Arora-Blumofe-Plasser shape, with mutexed deques
// rather than lock-free ones (chunk granularity in this library is hundreds
// of microseconds and up, so queue overhead is noise). Determinism is never
// the pool's job: callers make results schedule-independent by keying
// output slots by *chunk index* (see parallel_for.hpp), so it does not
// matter which worker runs which chunk.
//
// Pools are cached per worker count via ThreadPool::shared(); the hot paths
// resolve a pool from a RuntimeConfig with resolve_pool(), which returns
// nullptr for the serial path (all runtime primitives accept nullptr and run
// inline on the caller).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/runtime_config.hpp"

namespace picasso::runtime {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = one per hardware thread).
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Reads num_workers_, not workers_.size(): workers start (and steal)
  // while the constructor is still appending to workers_, and sizing a
  // vector mid-growth is a data race.
  unsigned num_workers() const noexcept { return num_workers_; }

  /// Enqueues a task; runs on some worker, in no particular order.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished executing.
  void drain();

  /// True when the calling thread is one of this pool's workers. Used by
  /// the parallel primitives to run nested parallelism inline instead of
  /// deadlocking on a fully-occupied pool.
  bool on_worker_thread() const noexcept;

  std::uint64_t tasks_executed() const noexcept {
    return executed_.load(std::memory_order_relaxed);
  }
  /// Tasks a worker took from another worker's deque (work-stealing proof).
  std::uint64_t tasks_stolen() const noexcept {
    return stolen_.load(std::memory_order_relaxed);
  }

  static unsigned hardware_threads() noexcept;

  /// Process-wide pool cache keyed by worker count (0 = hardware threads).
  /// Created on first use, lives for the process lifetime.
  static ThreadPool& shared(unsigned num_threads = 0);

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  bool try_pop_own(unsigned self, std::function<void()>& out);
  bool try_steal(unsigned self, std::function<void()>& out);
  void worker_loop(unsigned index);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  unsigned num_workers_ = 0;  // fixed before the first worker spawns
  std::atomic<std::uint64_t> next_queue_{0};
  std::atomic<std::uint64_t> queued_{0};    // submitted, not yet dequeued
  std::atomic<std::uint64_t> inflight_{0};  // submitted, not yet finished
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<bool> stop_{false};
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
};

/// Pool for a RuntimeConfig: nullptr when the config asks for the serial
/// path, an injected `config.pool` when one is set (server mode — every
/// solve shares the owner's pool), else the shared pool cache with the
/// configured worker count.
inline ThreadPool* resolve_pool(const RuntimeConfig& config) {
  if (config.serial()) return nullptr;
  if (config.pool) return config.pool;
  return &ThreadPool::shared(config.num_threads);
}

/// Pool for a phase over `items` work items: nullptr below
/// `config.serial_cutoff`, so small inputs neither pay for (nor trigger)
/// shared-pool construction; resolve_pool(config) otherwise.
inline ThreadPool* resolve_pool(const RuntimeConfig& config,
                                std::size_t items) {
  return items >= config.serial_cutoff ? resolve_pool(config) : nullptr;
}

/// Joins a set of tasks submitted to a pool. Unlike ThreadPool::drain(),
/// groups are per-call-site, so concurrent callers do not wait on each
/// other's tasks. The first exception a task throws is captured and
/// rethrown from wait() on the calling thread (remaining tasks still run to
/// completion) — an allocation failure in a chunk reaches the caller as
/// the same exception.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  ~TaskGroup() { wait_no_throw(); }
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  template <typename Fn>
  void run(Fn&& fn) {
    pending_.fetch_add(1, std::memory_order_relaxed);
    pool_.submit([this, task = std::forward<Fn>(fn)]() mutable {
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      // The decrement happens under the mutex: once the waiter's predicate
      // observes zero it holds the same mutex, so this task can no longer
      // be between the decrement and the notify when the waiter returns
      // and destroys the group.
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        cv_.notify_all();
      }
    });
  }

  void wait() {
    wait_no_throw();
    std::lock_guard<std::mutex> lock(mutex_);
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  void wait_no_throw() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }

  ThreadPool& pool_;
  std::atomic<std::uint64_t> pending_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::exception_ptr error_;
};

}  // namespace picasso::runtime
