// exec::Future / exec::Promise: one-shot value channels composed on the
// ThreadPool, the async layer of the client data plane.
//
// std::future would be enough for fire-and-wait but is awkward for the
// client API: it has no cheap ready() probe (wait_for with a zero timeout
// allocates a clock read and throws on no-state), and a handle-based
// writer wants to park hundreds of in-flight stripe stores in a deque and
// poll/drain them in dispatch order. Future<T> is the minimal alternative:
// a shared state written exactly once by a Promise (or by spawn()'s task)
// and consumed exactly once by get().
//
// Deadlock rule: get() may block. Never call it from inside a pool task on
// the same pool the awaited task is queued on -- a saturated pool would
// have every worker waiting for a task nobody is free to run. The client
// code keeps to the rule by only blocking from caller threads; with the
// zero-worker inline pool, spawn() runs the task before returning, so
// get() never blocks at all and the serial execution order is preserved.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "exec/thread_pool.h"

namespace dblrep::exec {

namespace detail {

template <typename T>
struct FutureState {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<T> value;
};

}  // namespace detail

template <typename T>
class Promise;

/// One-shot handle to a value produced asynchronously. Move-only consume:
/// get() waits, moves the value out, and releases the state.
template <typename T>
class Future {
 public:
  Future() = default;  // invalid until assigned from Promise/spawn

  bool valid() const { return state_ != nullptr; }

  /// True once the producer has delivered. Non-blocking.
  bool ready() const {
    DBLREP_CHECK_MSG(valid(), "ready() on an invalid Future");
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->value.has_value();
  }

  /// Blocks until the value is delivered (see the deadlock rule above).
  void wait() const {
    DBLREP_CHECK_MSG(valid(), "wait() on an invalid Future");
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->value.has_value(); });
  }

  /// wait() + move the value out. One-shot: the future is invalid after.
  T get() {
    DBLREP_CHECK_MSG(valid(), "get() on an invalid Future");
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->value.has_value(); });
    T value = std::move(*state_->value);
    lock.unlock();
    state_.reset();
    return value;
  }

 private:
  friend class Promise<T>;
  explicit Future(std::shared_ptr<detail::FutureState<T>> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Producer half. set_value() must be called exactly once; a Promise whose
/// future is never consumed is harmless (shared state just expires).
template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<detail::FutureState<T>>()) {}

  Future<T> future() const { return Future<T>(state_); }

  void set_value(T value) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      DBLREP_CHECK_MSG(!state_->value.has_value(),
                       "Promise delivered twice");
      state_->value.emplace(std::move(value));
    }
    state_->cv.notify_all();
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Runs `fn` on the pool and returns a Future for its result. With the
/// zero-worker inline pool the task executes inside this call, so the
/// returned future is already ready -- the serial reference execution.
template <typename F>
auto spawn(ThreadPool& pool, F fn) -> Future<std::invoke_result_t<F>> {
  using R = std::invoke_result_t<F>;
  static_assert(!std::is_void_v<R>,
                "spawn() needs a value-returning task; use submit() for "
                "fire-and-forget work");
  Promise<R> promise;
  Future<R> future = promise.future();
  pool.submit([promise = std::move(promise), fn = std::move(fn)]() mutable {
    promise.set_value(fn());
  });
  return future;
}

}  // namespace dblrep::exec
