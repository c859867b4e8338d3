// Multi-caller contract of util/parallel.h's ThreadPool: concurrent
// ParallelFor calls from different threads all make progress (no single
// task slot to serialize on), nested calls still degrade to serial, and
// destroying a pool while calls are in flight is clean. These are the
// invariants ExplainService's replica schedulers lean on — every shard
// issues ParallelFor from its own thread at once.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "util/parallel.h"

namespace dcam {
namespace {

TEST(ThreadPoolMultiCallerTest, ConcurrentCallersVisitEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRange = 5000;
  std::vector<std::unique_ptr<std::atomic<int>[]>> hits;
  for (int c = 0; c < kCallers; ++c) {
    hits.push_back(std::make_unique<std::atomic<int>[]>(kRange));
    for (int i = 0; i < kRange; ++i) hits[c][i] = 0;
  }
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(0, kRange,
                       [&, c](int64_t i) { hits[c][i].fetch_add(1); });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (int i = 0; i < kRange; ++i) {
      ASSERT_EQ(hits[c][i].load(), 1)
          << "caller " << c << " index " << i << " visited wrong count";
    }
  }
}

TEST(ThreadPoolMultiCallerTest, TwoCallersOverlapInTime) {
  // Caller A cannot finish until caller B's iterations have started: if the
  // pool serialized whole calls, this would deadlock (the test would hang).
  ThreadPool pool(4);
  std::atomic<bool> b_started{false};
  std::atomic<int> a_done{0};
  std::atomic<int> b_done{0};
  std::thread a([&] {
    pool.ParallelFor(0, 4, [&](int64_t) {
      while (!b_started.load()) std::this_thread::yield();
      a_done.fetch_add(1);
    });
  });
  std::thread b([&] {
    pool.ParallelFor(0, 4, [&](int64_t) {
      b_started.store(true);
      b_done.fetch_add(1);
    });
  });
  a.join();
  b.join();
  EXPECT_EQ(a_done.load(), 4);
  EXPECT_EQ(b_done.load(), 4);
}

TEST(ThreadPoolMultiCallerTest, NestedCallsDegradeToSerialUnderConcurrency) {
  // The nested-call guarantee must survive other callers being active:
  // an iteration that itself calls the free ParallelFor runs that inner
  // loop serially on the current thread (worker or caller alike).
  ThreadPool pool(4);
  std::atomic<int64_t> outer_total{0};
  std::atomic<int64_t> inner_total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&] {
      pool.ParallelFor(0, 8, [&](int64_t) {
        outer_total.fetch_add(1);
        // Free-function form: detects the nested context via the
        // thread-local flag and must not re-enter the pool.
        ParallelFor(0, 50, [&](int64_t j) { inner_total.fetch_add(j); });
      });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(outer_total.load(), 16);
  EXPECT_EQ(inner_total.load(), 16 * (49 * 50 / 2));
}

TEST(ThreadPoolMultiCallerTest, ShutdownDuringConcurrentCallsIsClean) {
  // Destroying the pool while calls are in flight: workers stop helping,
  // the in-flight calls finish serially on their callers, and the
  // destructor waits for them to leave before freeing the pool's state.
  constexpr int kCallers = 3;
  constexpr int kRange = 64;
  auto pool = std::make_unique<ThreadPool>(4);
  // The callers capture a raw pointer: the object outlives their calls (the
  // pool destructor waits for in-flight ParallelFor callers), but reading
  // the unique_ptr handle itself would race main's reset().
  ThreadPool* raw = pool.get();
  // One flag per caller: an iteration of caller c's loop can only run after
  // that caller published its task inside ParallelFor, so once every flag is
  // set, no thread will touch the pool with a *new* call again — tearing it
  // down races only in-flight calls, which is the contract under test.
  // Every iteration holds until main starts the teardown, so each call is
  // still inside ParallelFor when the destructor begins, however slowly the
  // threads started.
  std::atomic<bool> entered[kCallers] = {};
  std::atomic<bool> teardown{false};
  std::atomic<int64_t> executed{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, raw, c] {
      raw->ParallelFor(0, kRange, [&, c](int64_t) {
        entered[c].store(true);
        while (!teardown.load()) std::this_thread::yield();
        executed.fetch_add(1);
      });
    });
  }
  // Wait until every caller's own call has an iteration held, then tear the
  // pool down underneath them.
  for (int c = 0; c < kCallers; ++c) {
    while (!entered[c].load()) std::this_thread::yield();
  }
  EXPECT_EQ(executed.load(), 0);  // nothing has passed the hold yet
  teardown.store(true);
  pool.reset();
  for (auto& t : callers) t.join();
  EXPECT_EQ(executed.load(), kCallers * kRange);
}

TEST(ThreadPoolMultiCallerTest, RepeatedConcurrentChurn) {
  // Many short calls from many threads: exercises the publish/unpublish
  // bookkeeping (task list, helper counts) under contention. Meant to run
  // under TSan and --gtest_repeat.
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr int kRounds = 50;
  std::vector<std::thread> callers;
  std::atomic<int64_t> total{0};
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        std::atomic<int64_t> sum{0};
        pool.ParallelFor(0, 100, [&](int64_t i) { sum.fetch_add(i); });
        ASSERT_EQ(sum.load(), 99 * 100 / 2);
        total.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * kRounds);
}

TEST(ThreadPoolMultiCallerTest, SingleWorkerPoolStillServesManyCallers) {
  // A pool built for one hardware thread has zero workers; every call must
  // still complete (serially on its caller) without blocking others.
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<std::thread> callers;
  std::atomic<int64_t> total{0};
  for (int c = 0; c < 3; ++c) {
    callers.emplace_back([&] {
      pool.ParallelFor(0, 256, [&](int64_t) { total.fetch_add(1); });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 3 * 256);
}

}  // namespace
}  // namespace dcam
