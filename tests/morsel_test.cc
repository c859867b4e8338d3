// Morsel-scheduler contract of util/parallel.h, plus the worker-local
// pieces it composes with (util/arena.h scratch, util/affinity.h core
// sets). The properties below are what the converted hot paths lean on:
// GEMM sizes pack panels by the grain (chunks must never exceed it), the
// engine scatter requires every (group, d) row claimed exactly once, and
// worker-local arenas require ids that are stable and bounded.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/affinity.h"
#include "util/arena.h"
#include "util/function_ref.h"
#include "util/parallel.h"

namespace dcam {
namespace {

// ---------------------------------------------------------------------------
// Morsel chunking: exactly-once, disjoint, grain-bounded.
// ---------------------------------------------------------------------------

TEST(MorselTest, EveryIndexVisitedExactlyOnceAcrossGrains) {
  ThreadPool pool(4);
  constexpr int64_t kRange = 4099;  // prime: never divides evenly by a grain
  const int64_t grains[] = {1, 3, 7, 64, kRange, kRange * 2,
                            ThreadPool::kAdaptiveGrain};
  for (int64_t grain : grains) {
    std::vector<std::atomic<int>> hits(kRange);
    for (auto& h : hits) h.store(0);
    pool.ParallelMorsel(0, kRange, grain,
                        [&](int /*worker*/, int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) {
                            hits[static_cast<size_t>(i)].fetch_add(1);
                          }
                        });
    for (int64_t i = 0; i < kRange; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "grain " << grain << " index " << i;
    }
  }
}

TEST(MorselTest, ChunksAreContiguousGrainAlignedAndBounded) {
  ThreadPool pool(4);
  constexpr int64_t kBegin = 17, kEnd = 1234, kGrain = 48;
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  pool.ParallelMorsel(kBegin, kEnd, kGrain,
                      [&](int /*worker*/, int64_t lo, int64_t hi) {
                        std::lock_guard<std::mutex> lock(mu);
                        chunks.emplace_back(lo, hi);
                      });
  int64_t covered = 0;
  for (const auto& c : chunks) {
    EXPECT_LT(c.first, c.second);
    EXPECT_LE(c.second - c.first, kGrain) << "chunk exceeds grain";
    EXPECT_EQ((c.first - kBegin) % kGrain, 0) << "chunk not grain-aligned";
    EXPECT_GE(c.first, kBegin);
    EXPECT_LE(c.second, kEnd);
    covered += c.second - c.first;
  }
  EXPECT_EQ(covered, kEnd - kBegin);
}

TEST(MorselTest, GrainLargerThanRangeYieldsOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelMorsel(5, 25, /*grain=*/1000,
                      [&](int /*worker*/, int64_t lo, int64_t hi) {
                        calls.fetch_add(1);
                        EXPECT_EQ(lo, 5);
                        EXPECT_EQ(hi, 25);
                      });
  EXPECT_EQ(calls.load(), 1);
}

TEST(MorselTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelMorsel(3, 3, 1,
                      [&](int, int64_t, int64_t) { calls.fetch_add(1); });
  pool.ParallelMorsel(7, 3, 1,
                      [&](int, int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(MorselTest, AdaptiveGrainTargetsAFewChunksPerParticipant) {
  ThreadPool pool(4);
  constexpr int64_t kRange = 100000;
  const int64_t grain = pool.AdaptiveGrainFor(kRange);
  ASSERT_GE(grain, 1);
  // A few chunks per participant: more than one (or rebalancing is
  // impossible), far fewer than per-iteration claiming.
  const int64_t chunk_count = (kRange + grain - 1) / grain;
  EXPECT_GE(chunk_count, pool.num_threads());
  EXPECT_LE(chunk_count, 16 * pool.num_threads());
  // Tiny ranges must still resolve to a legal grain.
  EXPECT_GE(pool.AdaptiveGrainFor(1), 1);
  EXPECT_GE(pool.AdaptiveGrainFor(3), 1);
}

// ---------------------------------------------------------------------------
// Worker ids: bounded, stable, one thread per id at a time.
// ---------------------------------------------------------------------------

TEST(MorselTest, WorkerIdsAreBoundedByWorkerSlots) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<int> seen;
  pool.ParallelMorsel(0, 10000, 16, [&](int worker, int64_t, int64_t) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(worker);
  });
  const int slots = pool.worker_slots();
  for (int id : seen) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, slots);
  }
}

TEST(MorselTest, WorkerIdIsStablePerThreadWithinACall) {
  // Each OS thread must report one id for the whole call — worker-local
  // scratch (arenas) is indexed by it.
  ThreadPool pool(4);
  std::mutex mu;
  std::unordered_map<std::thread::id, std::set<int>> ids_by_thread;
  pool.ParallelMorsel(0, 20000, 8, [&](int worker, int64_t, int64_t) {
    std::lock_guard<std::mutex> lock(mu);
    ids_by_thread[std::this_thread::get_id()].insert(worker);
  });
  for (const auto& kv : ids_by_thread) {
    EXPECT_EQ(kv.second.size(), 1u)
        << "one OS thread observed several worker ids";
  }
}

TEST(MorselTest, CallerKeepsItsLeasedIdAcrossCalls) {
  ThreadPool pool(4);
  std::set<int> caller_ids;
  std::mutex mu;
  for (int call = 0; call < 3; ++call) {
    const std::thread::id self = std::this_thread::get_id();
    pool.ParallelMorsel(0, 1000, 4, [&](int worker, int64_t, int64_t) {
      if (std::this_thread::get_id() == self) {
        std::lock_guard<std::mutex> lock(mu);
        caller_ids.insert(worker);
      }
    });
  }
  // The caller participates in every call and its lease is permanent.
  EXPECT_EQ(caller_ids.size(), 1u);
}

TEST(MorselTest, DistinctCallerThreadsLeaseDistinctIds) {
  // Pins the lease contract: every caller thread that runs a chunk of its own
  // call does so under one id, and no two callers share an id. ParallelMorsel
  // does not promise that a caller runs any chunk (pool workers may drain the
  // whole range first), so the test makes each caller run one itself: a chunk
  // claimed by a pool worker waits until its caller has run a chunk. The
  // pool's single worker holds at most one chunk at a time, so a caller
  // always finds chunks left to claim and the wait cannot deadlock.
  ThreadPool pool(2);
  constexpr int kCallers = 3;
  std::mutex mu;
  std::unordered_map<std::thread::id, std::set<int>> own_ids;
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      const std::thread::id self = std::this_thread::get_id();
      std::mutex latch_mu;
      std::condition_variable latch_cv;
      bool caller_ran = false;
      pool.ParallelMorsel(0, 5000, 8, [&](int worker, int64_t, int64_t) {
        if (std::this_thread::get_id() == self) {
          {
            std::lock_guard<std::mutex> lock(mu);
            own_ids[self].insert(worker);
          }
          std::lock_guard<std::mutex> lock(latch_mu);
          caller_ran = true;
          latch_cv.notify_all();
        } else {
          std::unique_lock<std::mutex> lock(latch_mu);
          latch_cv.wait(lock, [&] { return caller_ran; });
        }
      });
    });
  }
  for (auto& t : callers) t.join();
  ASSERT_EQ(own_ids.size(), static_cast<size_t>(kCallers));
  std::set<int> distinct;
  for (const auto& kv : own_ids) {
    ASSERT_EQ(kv.second.size(), 1u);
    distinct.insert(*kv.second.begin());
  }
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kCallers));
  EXPECT_GE(pool.worker_slots(), pool.num_threads() - 1 + kCallers);
}

// ---------------------------------------------------------------------------
// Multi-caller and nesting.
// ---------------------------------------------------------------------------

TEST(MorselTest, ConcurrentMorselCallersEachCoverTheirRange) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int64_t kRange = 3000;
  std::vector<std::unique_ptr<std::atomic<int>[]>> hits;
  for (int c = 0; c < kCallers; ++c) {
    hits.push_back(std::make_unique<std::atomic<int>[]>(kRange));
    for (int64_t i = 0; i < kRange; ++i) hits[c][i] = 0;
  }
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelMorsel(0, kRange, 7,
                          [&, c](int /*worker*/, int64_t lo, int64_t hi) {
                            for (int64_t i = lo; i < hi; ++i) {
                              hits[c][i].fetch_add(1);
                            }
                          });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (int64_t i = 0; i < kRange; ++i) {
      ASSERT_EQ(hits[c][i].load(), 1) << "caller " << c << " index " << i;
    }
  }
}

TEST(MorselTest, NestedFreeFunctionCallDegradesToSerialOnSameThread) {
  // A morsel body issuing another ParallelMorsel via the free function must
  // run it inline (same thread), preserve the chunking contract, and hand
  // the ambient worker id through.
  std::atomic<int> outer_chunks{0};
  std::atomic<bool> nested_ok{true};
  ParallelMorsel(0, 64, 16, [&](int outer_worker, int64_t, int64_t) {
    outer_chunks.fetch_add(1);
    const std::thread::id outer_thread = std::this_thread::get_id();
    int64_t covered = 0;
    ParallelMorsel(0, 100, 30, [&](int inner_worker, int64_t lo, int64_t hi) {
      if (std::this_thread::get_id() != outer_thread) nested_ok = false;
      if (inner_worker != outer_worker) nested_ok = false;
      if (hi - lo > 30) nested_ok = false;
      covered += hi - lo;
    });
    if (covered != 100) nested_ok = false;
  });
  EXPECT_GT(outer_chunks.load(), 0);
  EXPECT_TRUE(nested_ok.load());
}

TEST(MorselTest, CurrentWorkerIdMatchesBodyArgument) {
  EXPECT_EQ(CurrentWorkerId(), 0);  // never entered a pool on this thread
  std::atomic<bool> ok{true};
  ParallelMorsel(0, 1000, 16, [&](int worker, int64_t, int64_t) {
    if (CurrentWorkerId() != worker) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(MorselTest, ParallelForShimVisitsEveryIndexOnce) {
  ThreadPool pool(3);
  constexpr int64_t kRange = 2777;
  std::vector<std::atomic<int>> hits(kRange);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(0, kRange, [&](int64_t i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < kRange; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1);
  }
}

TEST(MorselTest, SingleThreadPoolRunsEverythingOnCaller) {
  ThreadPool pool(1);
  const std::thread::id self = std::this_thread::get_id();
  std::atomic<bool> same_thread{true};
  std::atomic<int64_t> covered{0};
  pool.ParallelMorsel(0, 500, 9, [&](int worker, int64_t lo, int64_t hi) {
    if (std::this_thread::get_id() != self) same_thread = false;
    EXPECT_EQ(worker, 0);
    covered.fetch_add(hi - lo);
  });
  EXPECT_TRUE(same_thread.load());
  EXPECT_EQ(covered.load(), 500);
}

TEST(MorselTest, CoreSetOptionsSmoke) {
  // Pinning is best-effort: the result must be correct whether or not the
  // kernel honors the set (cpu 0 always exists, extra ids may not).
  ThreadPool::Options options;
  options.core_set = {0};
  ThreadPool pool(options);
  EXPECT_EQ(pool.num_threads(), 1);  // sized by the core set
  std::atomic<int64_t> sum{0};
  pool.ParallelMorsel(0, 100, ThreadPool::kAdaptiveGrain,
                      [&](int, int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
                      });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

// ---------------------------------------------------------------------------
// FunctionRef.
// ---------------------------------------------------------------------------

TEST(FunctionRefTest, InvokesLambdaAndMutatesCapturedState) {
  int counter = 0;
  auto body = [&counter](int64_t i) { counter += static_cast<int>(i); };
  FunctionRef<void(int64_t)> ref(body);
  ref(3);
  ref(4);
  EXPECT_EQ(counter, 7);
}

TEST(FunctionRefTest, ReturnsValuesAndIsCheaplyCopyable) {
  auto twice = [](int x) { return 2 * x; };
  FunctionRef<int(int)> ref(twice);
  FunctionRef<int(int)> copy = ref;  // two words, trivially copyable
  EXPECT_EQ(ref(21), 42);
  EXPECT_EQ(copy(10), 20);
}

// ---------------------------------------------------------------------------
// Arena.
// ---------------------------------------------------------------------------

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(/*min_block_bytes=*/256);
  char* a = static_cast<char*>(arena.Allocate(10));
  char* b = static_cast<char*>(arena.Allocate(10));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % Arena::kDefaultAlign, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % Arena::kDefaultAlign, 0u);
  EXPECT_GE(b, a + 10);  // second allocation does not overlap the first
  float* f = arena.AllocateFloats(8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(f) % alignof(float), 0u);
  // Smaller alignments are honored exactly.
  char* c = static_cast<char*>(arena.Allocate(1, /*align=*/8));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 8, 0u);
}

TEST(ArenaTest, ScopeRewindReleasesAndReusesStorage) {
  Arena arena(/*min_block_bytes=*/1024);
  void* warm;
  {
    ArenaScope scope(&arena);
    warm = arena.Allocate(128);
    arena.Allocate(128);
    EXPECT_GE(arena.bytes_allocated(), 256u);
  }
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // The rewound bytes are handed out again: steady-state reuse is free.
  void* again = arena.Allocate(128);
  EXPECT_EQ(again, warm);
}

TEST(ArenaTest, NestedScopesRewindLifo) {
  Arena arena(/*min_block_bytes=*/1024);
  ArenaScope outer(&arena);
  arena.Allocate(64);
  const size_t after_outer = arena.bytes_allocated();
  {
    ArenaScope inner(&arena);
    arena.Allocate(64);
    arena.Allocate(64);
    EXPECT_GT(arena.bytes_allocated(), after_outer);
  }
  EXPECT_EQ(arena.bytes_allocated(), after_outer);
}

TEST(ArenaTest, GrowsAcrossBlocksAndResetConsolidates) {
  Arena arena(/*min_block_bytes=*/256);
  // Force several blocks, including one larger than min_block.
  arena.Allocate(200);
  arena.Allocate(200);
  arena.Allocate(5000);
  EXPECT_GE(arena.bytes_allocated(), 5400u);
  const size_t reserved = arena.bytes_reserved();
  EXPECT_GE(reserved, 5400u);
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // Consolidated: the whole former footprint is one block now, so this
  // allocation (bigger than any single former block) fits without growing.
  arena.Allocate(reserved);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, ZeroByteAllocationsAreDistinct) {
  Arena arena;
  void* a = arena.Allocate(0);
  void* b = arena.Allocate(0);
  EXPECT_NE(a, b);
}

TEST(ArenaTest, ThisThreadArenaIsPerThread) {
  Arena* main_arena = &ThisThreadArena();
  Arena* other_arena = nullptr;
  std::thread t([&] { other_arena = &ThisThreadArena(); });
  t.join();
  EXPECT_NE(main_arena, other_arena);
  EXPECT_EQ(main_arena, &ThisThreadArena());  // stable within a thread
}

// ---------------------------------------------------------------------------
// Affinity parsing.
// ---------------------------------------------------------------------------

TEST(AffinityTest, ParseCpuListAcceptsTasksetForms) {
  EXPECT_EQ(ParseCpuList("0"), (std::vector<int>{0}));
  EXPECT_EQ(ParseCpuList("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ParseCpuList("0,2,4"), (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(ParseCpuList("0-1,6-7"), (std::vector<int>{0, 1, 6, 7}));
  // Sorted and deduplicated.
  EXPECT_EQ(ParseCpuList("4,2,0-2"), (std::vector<int>{0, 1, 2, 4}));
}

TEST(AffinityTest, ParseCpuListRejectsMalformedSpecs) {
  EXPECT_TRUE(ParseCpuList("").empty());
  EXPECT_TRUE(ParseCpuList("a").empty());
  EXPECT_TRUE(ParseCpuList(",1").empty());
  EXPECT_TRUE(ParseCpuList("1-").empty());
  EXPECT_TRUE(ParseCpuList("-3").empty());
  EXPECT_TRUE(ParseCpuList("3-1").empty());  // reversed range
  EXPECT_TRUE(ParseCpuList("1,x,2").empty());
  EXPECT_TRUE(ParseCpuList("1.5").empty());
}

TEST(AffinityTest, PinIsBestEffort) {
  if (!AffinitySupported()) {
    EXPECT_FALSE(PinCurrentThreadToCpu(0));
    return;
  }
  EXPECT_FALSE(PinCurrentThreadToSet({}));
  // Pin to the full current set of a freshly spawned thread: cpu 0 exists on
  // every Linux host this runs on.
  std::thread t([] { EXPECT_TRUE(PinCurrentThreadToCpu(0)); });
  t.join();
}

}  // namespace
}  // namespace dcam
