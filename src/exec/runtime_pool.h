// RuntimePool: per-worker checkout of the mutable-scratch stripe codec.
//
// ec::StripeCodec carries recycled arena scratch and is therefore
// documented non-thread-safe, while the CodeScheme it wraps is immutable
// and freely shared. The pool resolves that split for the concurrent data
// plane: each worker checks out a Runtime (one codec for a given scheme)
// for the duration of a stripe's work and returns it on scope exit.
// Checked-in runtimes are reused, so the steady state is one warm runtime
// per concurrently active worker per scheme -- the same O(1)-allocation
// behavior the single-threaded path had, times the worker count.
//
// acquire() is const: checking out scratch is logically a read of the
// scheme, so the pool's internals are mutable and internally synchronized.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "ec/code.h"
#include "ec/stripe_codec.h"

namespace dblrep::exec {

class RuntimePool {
 public:
  /// One worker's private slice of a scheme's data plane.
  struct Runtime {
    explicit Runtime(const ec::CodeScheme& code) : codec(code) {}
    ec::StripeCodec codec;
  };

  /// RAII checkout: returns the runtime to the pool on destruction.
  class Lease {
   public:
    Lease(const RuntimePool* pool, Runtime* runtime)
        : pool_(pool), runtime_(runtime) {}
    ~Lease();

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), runtime_(other.runtime_) {
      other.pool_ = nullptr;
      other.runtime_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;

    Runtime& operator*() const { return *runtime_; }
    Runtime* operator->() const { return runtime_; }

   private:
    const RuntimePool* pool_;
    Runtime* runtime_;
  };

  explicit RuntimePool(const ec::CodeScheme& code) : code_(&code) {}

  RuntimePool(const RuntimePool&) = delete;
  RuntimePool& operator=(const RuntimePool&) = delete;

  const ec::CodeScheme& code() const { return *code_; }

  /// Checks out a free runtime, constructing a fresh one only when every
  /// existing runtime is currently leased.
  Lease acquire() const;

  /// Runtimes constructed so far (leased or free). Test/observability hook.
  std::size_t size() const;

 private:
  friend class Lease;
  void release(Runtime* runtime) const;

  const ec::CodeScheme* code_;
  mutable std::mutex mu_;
  mutable std::vector<std::unique_ptr<Runtime>> all_;  // stable ownership
  mutable std::vector<Runtime*> free_;
};

}  // namespace dblrep::exec
