// Engine memory, observed through a counting allocator.
//
// Peak accumulator memory of the dataset-level path. ExplainDataset runs the
// engine's k-loop without a tick callback: a request's (D, D, n) accumulator
// is allocated at its first commit and, with keep_mbar == false, released at
// its last. Commits run in slot order, so the live accumulators are bounded
// by the requests one commit window spans and not by the dataset size.
//
// Steady-state permutations allocate nothing: a lane's forward-only Infer
// writes its activations, GAP and logits into buffers planned at the first
// slot, and the slot's cube, permutation and CAM reuse the lane's and the
// window's storage.
//
// Tensor storage comes from `new float[]`, so this binary replaces the global
// array new/delete with a size-tagged malloc and counts the live arrays of
// the accumulator's exact byte size. It also replaces scalar new (vectors,
// shared_ptr control blocks) and counts every allocation of either form,
// split at kLargeBytes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <new>

#include "core/engine.h"
#include "core/global.h"
#include "models/cnn.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

std::atomic<size_t> g_watch_bytes{0};
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};
constexpr size_t kHeader = alignof(std::max_align_t);

// Every allocation (scalar or array new) while g_counting is set.
constexpr size_t kLargeBytes = 1024;
std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_large{0};
std::atomic<int64_t> g_small{0};

void CountAllocation(size_t bytes) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  (bytes >= kLargeBytes ? g_large : g_small).fetch_add(1);
}

}  // namespace

void* operator new(std::size_t bytes) {
  CountAllocation(bytes);
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }

void* operator new[](std::size_t bytes) {
  CountAllocation(bytes);
  void* raw = std::malloc(bytes + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<size_t*>(raw) = bytes;
  const size_t watch = g_watch_bytes.load();
  if (watch != 0 && bytes == watch) {
    const int64_t live = g_live.fetch_add(1) + 1;
    int64_t peak = g_peak.load();
    while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
    }
  }
  return static_cast<char*>(raw) + kHeader;
}

void operator delete[](void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  const size_t watch = g_watch_bytes.load();
  if (watch != 0 && *static_cast<size_t*>(raw) == watch) g_live.fetch_sub(1);
  std::free(raw);
}

void operator delete[](void* p, std::size_t) noexcept { operator delete[](p); }

namespace dcam {
namespace core {
namespace {

TEST(DcamEngineMemoryTest, DatasetPassKeepsAccumulatorsBoundedByHorizon) {
  // D * D * n = 333 floats: no activation, CAM or map of this tiny dCNN has
  // that size, so every watched array is an accumulator or a lane's
  // (1, D, D, n) cube.
  const int D = 3, n = 37, N = 48;
  Rng rng(61);
  models::ConvNetConfig cfg;
  cfg.filters = {4, 4};
  models::ConvNet model(models::InputMode::kCube, D, 2, cfg, &rng);

  std::vector<Tensor> series;
  std::vector<int> classes;
  std::vector<DcamOptions> options;
  std::vector<std::vector<int>> segments;
  for (int i = 0; i < N; ++i) {
    Tensor s({D, n});
    s.FillNormal(&rng, 0.0f, 1.0f);
    series.push_back(s);
    classes.push_back(i % 2);
    DcamOptions o;
    o.k = 3;  // a 4-slot window spans two requests
    o.seed = 900 + i;
    options.push_back(o);
    segments.emplace_back(n, i % 2);
  }
  DcamEngine::Config engine_cfg;
  engine_cfg.batch = 4;
  DcamEngine engine(&model, engine_cfg);

  // One outer morsel: the engine's sweeps run serially on this thread, so
  // the one lane whose cube the warm-up allocates (along with the one-time
  // cube-model probe, also of the accumulator's size) serves the watched
  // pass too; on a pool sweep, a worker first joining the watched pass
  // would allocate its cube inside the watch.
  DatasetExplanation out;
  ParallelMorsel(0, 1, 1, [&](int /*worker*/, int64_t, int64_t) {
    (void)engine.Compute(series[0], 0, options[0]);
    g_live.store(0);
    g_peak.store(0);
    g_watch_bytes.store(sizeof(float) * D * D * n);
    out = ExplainDataset(&engine, series, classes, options, segments, 2);
    g_watch_bytes.store(0);
  });

  ASSERT_EQ(out.results.size(), static_cast<size_t>(N));
  for (const DcamResult& r : out.results) {
    EXPECT_TRUE(r.mbar.empty());
    EXPECT_EQ(r.k, 3);
  }
  // Seen at all (the hook works), and never more than one at a time: with
  // no callback a request's slots are consecutive, and the in-order commit
  // releases request i's accumulator at its last slot, before request
  // i + 1's first slot allocates one.
  EXPECT_EQ(g_peak.load(), 1);
  EXPECT_EQ(g_live.load(), 0);
}

// Allocations of one engine.Compute, split at kLargeBytes.
struct AllocationCount {
  int64_t large = 0;
  int64_t small = 0;
};

AllocationCount CountCompute(DcamEngine* engine, const Tensor& series,
                             int k) {
  DcamOptions options;
  options.k = k;
  options.seed = 5;
  g_large.store(0);
  g_small.store(0);
  g_counting.store(true);
  const DcamResult r = engine->Compute(series, 0, options);
  g_counting.store(false);
  EXPECT_EQ(r.k, k);
  return {g_large.load(), g_small.load()};
}

TEST(DcamEngineMemoryTest, SteadyStatePermutationsAllocateNothing) {
  // dCNN at width scale 8 over a (1, 8, 8, 128) cube: its smallest
  // activation, 8 channels x 8 x 128 floats, is 32 KiB, so any activation,
  // im2col column or backward cache allocated per permutation counts as
  // large.
  const int D = 8, n = 128;
  Rng rng(67);
  models::ConvNet model(models::InputMode::kCube, D, 2,
                        models::ConvNetConfig().Scaled(8), &rng);
  Tensor series({D, n});
  series.FillNormal(&rng, 0.0f, 1.0f);
  DcamEngine::Config engine_cfg;
  engine_cfg.batch = 4;
  DcamEngine engine(&model, engine_cfg);

  // One outer morsel: every engine call inside it runs its sweep serially
  // on this one thread, so a single lane serves every slot and the warm-up
  // below is guaranteed to have created and planned it (on a pool sweep, a
  // worker that first joins a later call would clone its lane then).
  AllocationCount short_run, long_run;
  ParallelMorsel(0, 1, 1, [&](int /*worker*/, int64_t, int64_t) {
    DcamOptions warm;
    warm.k = 8;
    (void)engine.Compute(series, 0, warm);
    short_run = CountCompute(&engine, series, 8);
    long_run = CountCompute(&engine, series, 64);
  });

  // The per-request allocations (accumulator, map, result vectors) are the
  // same in both runs and include large ones, so the hook is live...
  EXPECT_GT(short_run.large, 0);
  // ...and the 56 extra permutations of the long run add no large
  // allocation...
  EXPECT_EQ(long_run.large, short_run.large);
  // ...nor a small one: the slot's cube, permutation and CAM, the fused
  // blocks' views, GAP's and the head's outputs all reuse their storage.
  constexpr double kMaxSmallPerPermutation = 0.0;
  const double small_per_permutation =
      static_cast<double>(long_run.small - short_run.small) / 56.0;
  std::cout << "small allocations per steady-state permutation: "
            << small_per_permutation << "\n";
  EXPECT_LE(small_per_permutation, kMaxSmallPerPermutation);
}

}  // namespace
}  // namespace core
}  // namespace dcam
