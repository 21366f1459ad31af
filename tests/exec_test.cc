// Tests for the execution subsystem: thread pool, parallel_for_all
// semantics (correctness, error propagation, nesting, zero-worker serial
// mode), one stripe codec shared across workers, and the striped namespace
// mutex.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "ec/registry.h"
#include "ec/stripe_codec.h"
#include "exec/future.h"
#include "exec/striped_mutex.h"
#include "exec/thread_pool.h"

namespace dblrep::exec {
namespace {

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, SpawnReturnsFutureResults) {
  ThreadPool pool(3);
  auto a = spawn(pool, [] { return 7; });
  auto b = spawn(pool, [] { return std::string("ok"); });
  EXPECT_EQ(a.get(), 7);
  EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  std::thread::id submitter = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, submitter);  // submit() executed it synchronously
}

TEST(ThreadPool, TasksSubmittedFromTasksComplete) {
  // Recursive submission exercises the worker-local push + steal path.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::promise<void> all_done;
  constexpr int kFanout = 25;
  for (int i = 0; i < kFanout; ++i) {
    pool.submit([&] {
      pool.submit([&] {
        if (done.fetch_add(1) + 1 == kFanout) all_done.set_value();
      });
    });
  }
  all_done.get_future().wait();
  EXPECT_EQ(done.load(), kFanout);
}

TEST(ThreadPool, ParseWorkerCount) {
  EXPECT_EQ(ThreadPool::parse_worker_count("8"), 8u);
  EXPECT_EQ(ThreadPool::parse_worker_count("0"), 0u);
  EXPECT_EQ(ThreadPool::parse_worker_count(nullptr), std::nullopt);
  EXPECT_EQ(ThreadPool::parse_worker_count(""), std::nullopt);
  EXPECT_EQ(ThreadPool::parse_worker_count("x"), std::nullopt);
  EXPECT_EQ(ThreadPool::parse_worker_count("4x"), std::nullopt);
  EXPECT_EQ(ThreadPool::parse_worker_count("-2"), std::nullopt);
}

// ---------------------------------------------------------- exec::Future

TEST(Future, PromiseDeliversOnce) {
  Promise<int> promise;
  Future<int> future = promise.future();
  EXPECT_TRUE(future.valid());
  EXPECT_FALSE(future.ready());
  promise.set_value(42);
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.get(), 42);
  EXPECT_FALSE(future.valid());  // one-shot consume
}

TEST(Future, SpawnResolvesOnWorkers) {
  ThreadPool pool(3);
  std::vector<Future<std::size_t>> futures;
  for (std::size_t i = 0; i < 64; ++i) {
    futures.push_back(spawn(pool, [i] { return i * i; }));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(Future, SpawnOnInlinePoolIsReadyBeforeReturn) {
  ThreadPool pool(0);
  auto future = spawn(pool, [] { return std::string("serial"); });
  // Zero workers: the task ran inside spawn(), so the future never blocks
  // -- that is the serial reference execution of the async client API.
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.get(), "serial");
}

TEST(Future, WaitBlocksUntilDelivery) {
  Promise<int> promise;
  Future<int> future = promise.future();
  std::thread producer([&promise] { promise.set_value(9); });
  future.wait();
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.get(), 9);
  producer.join();
}

// ------------------------------------------------------ parallel_for_all

TEST(ParallelForAll, CoversEveryIndexExactlyOnce) {
  for (std::size_t workers : {0u, 1u, 4u}) {
    ThreadPool pool(workers);
    constexpr std::size_t kN = 500;
    std::vector<std::atomic<int>> hits(kN);
    const Status status = parallel_for_all(pool, kN, [&](std::size_t i) {
      hits[i].fetch_add(1);
      return Status::ok();
    });
    EXPECT_TRUE(status.is_ok());
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " workers " << workers;
    }
  }
}

TEST(ParallelForAll, EmptyRangeIsOk) {
  ThreadPool pool(2);
  EXPECT_TRUE(parallel_for_all(pool, 0, [](std::size_t) {
                return internal_error("never called");
              }).is_ok());
}

TEST(ParallelForAll, SerialModeRunsInOrderAndReportsLowestError) {
  ThreadPool pool(0);
  std::vector<std::size_t> order;
  const Status status = parallel_for_all(pool, 10, [&](std::size_t i) {
    order.push_back(i);
    if (i == 4 || i == 7) return internal_error("stop " + std::to_string(i));
    return Status::ok();
  });
  EXPECT_EQ(status.message(), "stop 4");
  EXPECT_EQ(order,
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ParallelForAll, RunsEveryIterationDespiteFailures) {
  // No early exit, so the set of executed iterations never depends on
  // pool scheduling.
  for (const std::size_t workers : {0u, 4u}) {
    ThreadPool pool(workers);
    std::atomic<std::size_t> executed{0};
    const Status status = parallel_for_all(pool, 100, [&](std::size_t i) {
      executed.fetch_add(1);
      if (i % 7 == 3) return unavailable_error("down " + std::to_string(i));
      return Status::ok();
    });
    EXPECT_EQ(executed.load(), 100u) << workers << " workers";
    // Lowest-index error, not first-completed: always iteration 3.
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(status.message(), "down 3") << workers << " workers";
  }
}

TEST(ParallelForAll, AllOkReturnsOk) {
  ThreadPool pool(2);
  std::atomic<std::size_t> executed{0};
  EXPECT_TRUE(parallel_for_all(pool, 50, [&](std::size_t) {
                executed.fetch_add(1);
                return Status::ok();
              }).is_ok());
  EXPECT_EQ(executed.load(), 50u);
}

TEST(ParallelForAll, NestedCallsDoNotDeadlock) {
  // Every outer iteration runs an inner parallel_for_all on the same small
  // pool; caller participation guarantees progress even with all workers
  // blocked in outer iterations.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  const Status status = parallel_for_all(pool, 8, [&](std::size_t) {
    return parallel_for_all(pool, 8, [&](std::size_t) {
      total.fetch_add(1);
      return Status::ok();
    });
  });
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelForAll, ConcurrentCallersFromManyThreads) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      const Status status = parallel_for_all(pool, 50, [&](std::size_t) {
        total.fetch_add(1);
        return Status::ok();
      });
      EXPECT_TRUE(status.is_ok());
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 200);
}

// ----------------------------------------------------------- StripeCodec

TEST(StripeCodec, OneConstCodecEncodesConcurrentlyOnEveryWorker) {
  // The data plane shares one codec per write across the pool. Each
  // iteration encodes its own data (one to three stripes, ragged on odd
  // iterations) while the others encode theirs; every sink must see what
  // encode_symbols computes for its stripe, so parity scratch shared across
  // threads or calls would show.
  const auto code = ec::make_code("heptagon").value();
  const ec::StripeCodec codec(*code);
  constexpr std::size_t kBlock = 64;
  const std::size_t stripe_bytes = codec.stripe_bytes(kBlock);
  ThreadPool pool(4);
  auto encode = [&](std::size_t i) -> Status {
    const Buffer data = random_buffer(
        (1 + i % 3) * stripe_bytes - (i % 2) * (stripe_bytes / 3), i);
    return codec.encode_batch(
        data, kBlock,
        [&](std::size_t s, std::span<const ByteSpan> symbols) -> Status {
          std::vector<Buffer> blocks(code->data_blocks(), Buffer(kBlock, 0));
          for (std::size_t b = 0; b < blocks.size(); ++b) {
            const std::size_t begin =
                std::min(data.size(), s * stripe_bytes + b * kBlock);
            const std::size_t end = std::min(data.size(), begin + kBlock);
            std::copy(data.begin() + static_cast<std::ptrdiff_t>(begin),
                      data.begin() + static_cast<std::ptrdiff_t>(end),
                      blocks[b].begin());
          }
          const auto want = code->encode_symbols(blocks);
          if (symbols.size() != want.size()) {
            return internal_error("wrong symbol count");
          }
          for (std::size_t sym = 0; sym < want.size(); ++sym) {
            if (!std::equal(symbols[sym].begin(), symbols[sym].end(),
                            want[sym].begin(), want[sym].end())) {
              return internal_error("iteration " + std::to_string(i) +
                                    " stripe " + std::to_string(s) +
                                    " symbol " + std::to_string(sym) +
                                    " differs from encode_symbols");
            }
          }
          return Status::ok();
        });
  };
  const Status status = parallel_for_all(pool, 256, encode);
  EXPECT_TRUE(status.is_ok()) << status.to_string();
}

// ----------------------------------------------------- StripedSharedMutex

TEST(StripedSharedMutex, SameKeySameStripe) {
  StripedSharedMutex mu;
  EXPECT_EQ(&mu.of("/a/b"), &mu.of("/a/b"));
}

TEST(StripedSharedMutex, ExclusiveExcludesShared) {
  StripedSharedMutex mu;
  std::unique_lock<std::shared_mutex> writer(mu.of("/x"));
  std::shared_mutex& same = mu.of("/x");
  EXPECT_FALSE(same.try_lock_shared());
  writer.unlock();
  EXPECT_TRUE(same.try_lock_shared());
  same.unlock_shared();
}

TEST(StripedSharedMutex, PairLockHandlesCollidingKeys) {
  StripedSharedMutex mu;
  // Locking (k, k) must not self-deadlock even though both map to the
  // same stripe; scope exit must fully release.
  { StripedSharedMutex::PairLock lock(mu, "/same", "/same"); }
  EXPECT_TRUE(mu.of("/same").try_lock());
  mu.of("/same").unlock();
}

}  // namespace
}  // namespace dblrep::exec
