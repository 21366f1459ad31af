#include "exec/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

namespace dblrep::exec {

namespace {

/// Which pool (if any) the current thread is a worker of, and its index.
/// Lets submit() target the submitting worker's own deque, the part of
/// "work stealing" that keeps recursively spawned tasks cache-local.
struct WorkerIdentity {
  const void* pool = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity tls_worker;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_workers) {
  queues_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_.store(true);
  }
  wake_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (queues_.empty()) {
    task();  // zero-worker pool: the submitter is the executor
    return;
  }
  std::size_t target;
  if (tls_worker.pool == this) {
    target = tls_worker.index;  // worker-local push (stolen FIFO by peers)
  } else {
    target = next_queue_.fetch_add(1) % queues_.size();
  }
  // Increment pending_ BEFORE publishing the task: a worker only
  // decrements after a successful pop, so the counter can never observe
  // the pop before the matching increment (which would wrap it to
  // SIZE_MAX and defeat the idle-wait predicate). A waiter that wakes in
  // the tiny window before the push lands simply re-polls.
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    pending_.fetch_add(1);
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& out) {
  // Own deque first, newest task first (LIFO: it is the hottest in cache)...
  {
    auto& q = *queues_[self];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.back());
      q.tasks.pop_back();
      return true;
    }
  }
  // ...then steal the oldest task from a peer (FIFO: least likely to be in
  // the victim's cache, and the fairest under fork-join fan-outs).
  for (std::size_t step = 1; step < queues_.size(); ++step) {
    auto& q = *queues_[(self + step) % queues_.size()];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_main(std::size_t index) {
  tls_worker = {this, index};
  std::function<void()> task;
  while (true) {
    if (try_pop(index, task)) {
      pending_.fetch_sub(1);
      task();
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock,
                  [this] { return stop_.load() || pending_.load() > 0; });
    if (stop_.load() && pending_.load() == 0) return;
  }
}

std::optional<std::size_t> ThreadPool::parse_worker_count(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) return std::nullopt;
  return static_cast<std::size_t>(value);
}

std::size_t ThreadPool::default_worker_count() {
  if (const auto parsed = parse_worker_count(std::getenv("DBLREP_THREADS"))) {
    return *parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& default_pool() {
  static ThreadPool pool(ThreadPool::default_worker_count());
  return pool;
}

ThreadPool& inline_pool() {
  static ThreadPool pool(0);
  return pool;
}

namespace {

/// Heap-allocated so straggler helper tasks (submitted but never scheduled
/// before the loop finished) can still touch it safely after the caller
/// has returned.
struct ParallelForState {
  std::size_t n = 0;
  std::function<Status(std::size_t)> fn;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t completed = 0;  // guarded by mu
  Status first_error;         // guarded by mu: the lowest-index failure's
  std::size_t first_error_index = static_cast<std::size_t>(-1);  // mu
};

void drain(const std::shared_ptr<ParallelForState>& state) {
  for (std::size_t i = state->next.fetch_add(1); i < state->n;
       i = state->next.fetch_add(1)) {
    Status status = state->fn(i);
    std::lock_guard<std::mutex> lock(state->mu);
    if (!status.is_ok() && i < state->first_error_index) {
      state->first_error = std::move(status);
      state->first_error_index = i;
    }
    if (++state->completed == state->n) state->done_cv.notify_all();
  }
}

}  // namespace

Status parallel_for_all(ThreadPool& pool, std::size_t n,
                        const std::function<Status(std::size_t)>& fn) {
  if (n == 0) return Status::ok();
  if (n == 1 || pool.num_workers() == 0) {
    Status first_error;
    for (std::size_t i = 0; i < n; ++i) {
      Status status = fn(i);
      if (!status.is_ok() && first_error.is_ok()) {
        first_error = std::move(status);
      }
    }
    return first_error;
  }
  auto state = std::make_shared<ParallelForState>();
  state->n = n;
  state->fn = fn;
  // One helper per worker (never more than iterations); the caller is the
  // +1th participant and the only one anyone waits on.
  const std::size_t helpers = std::min(pool.num_workers(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([state] { drain(state); });
  }
  drain(state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->completed == state->n; });
  return state->first_error;
}

}  // namespace dblrep::exec
