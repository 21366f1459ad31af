// Execution subsystem: the concurrency substrate of the data plane.
//
// PR 1 made the byte-moving path fast per core; this layer spreads it
// across cores. Three pieces:
//
//  * ThreadPool -- a work-stealing pool with per-worker deques. Tasks
//    submitted from a worker thread go to that worker's own deque (popped
//    LIFO for cache locality); idle workers steal FIFO from their peers, so
//    an uneven fan-out (one giant stripe, many small ones) still keeps all
//    cores busy. submit() fire-and-forgets; exec::spawn (future.h) wraps it
//    with a Future for the task's result.
//  * parallel_for_all -- the fork-join primitive the hdfs layer fans
//    stripes out with. The *calling* thread participates in the loop,
//    which makes the construct deadlock-free under nesting and means a
//    pool with zero workers degenerates to the plain serial loop (that is
//    the "serial path" the determinism tests compare against).
//  * default_pool()/inline_pool() -- process-wide pools. The default pool
//    sizes itself from DBLREP_THREADS when set, hardware_concurrency
//    otherwise; the inline pool has no workers and runs everything on the
//    caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/status.h"

namespace dblrep::exec {

class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads. Zero workers is legal and useful:
  /// submit() then runs tasks inline on the submitter, giving a pool that
  /// is bit-for-bit the serial execution order.
  explicit ThreadPool(std::size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const { return workers_.size(); }

  /// Enqueues a task. From a worker thread the task lands on that worker's
  /// own deque; from outside, queues are fed round-robin.
  void submit(std::function<void()> task);

  /// Parses a thread-count override ("8" -> 8). Returns nullopt for null,
  /// empty, or non-numeric input. Exposed for tests; the env-reading
  /// wrapper is default_worker_count().
  static std::optional<std::size_t> parse_worker_count(const char* text);

  /// DBLREP_THREADS when set and valid, else hardware_concurrency (min 1).
  /// A value of N means N worker threads; 0 selects fully inline execution.
  static std::size_t default_worker_count();

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void worker_main(std::size_t index);
  bool try_pop(std::size_t self, std::function<void()>& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
};

/// Process-wide pool sized by default_worker_count(). Created on first use.
ThreadPool& default_pool();

/// Process-wide zero-worker pool: everything runs on the calling thread in
/// loop order. The serial reference for the parallel paths.
ThreadPool& inline_pool();

/// Runs fn(0..n-1) across the pool and the calling thread and returns the
/// error of the *lowest-index* failed iteration (OK if none). Every
/// iteration runs, even after a failure, so the post-failure state is a
/// deterministic function of the inputs rather than of pool scheduling --
/// e.g. a repair pass heals every recoverable stripe even when an
/// unrecoverable one errors partway through (the fault-injection harness
/// replays such passes byte-for-byte across worker counts). Blocks until
/// every iteration has finished. Safe to nest and safe to call
/// concurrently from many threads: the caller always drains iterations
/// itself, so progress never depends on a pool worker being free.
Status parallel_for_all(ThreadPool& pool, std::size_t n,
                        const std::function<Status(std::size_t)>& fn);

}  // namespace dblrep::exec
