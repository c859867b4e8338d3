// ExplainService's contract: results are bit-identical to direct registry
// Explainer calls at the same seed no matter how requests are batched,
// coalesced, cached, or raced across client threads — plus unit tests for
// the LRU result cache it is built on.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dcam.h"
#include "explain/explainer.h"
#include "explain/lru_cache.h"
#include "explain/service.h"
#include "models/cnn.h"
#include "util/rng.h"

namespace dcam {
namespace explain {
namespace {

constexpr int kDims = 4;
constexpr int kLen = 12;

std::unique_ptr<models::ConvNet> TinyDcnn(Rng* rng, int num_classes = 2) {
  models::ConvNetConfig cfg;
  cfg.filters = {4, 4};
  return std::make_unique<models::ConvNet>(models::InputMode::kCube, kDims,
                                           num_classes, cfg, rng);
}

Tensor RandomSeries(Rng* rng) {
  Tensor series({kDims, kLen});
  series.FillNormal(rng, 0.0f, 1.0f);
  return series;
}

void ExpectSameMap(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "maps differ at flat index " << i;
  }
}

// ---- LruCache --------------------------------------------------------------

TEST(LruCacheTest, HitMissAndOverwrite) {
  LruCache<int, std::string> cache(4);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Put(1, "one");
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), "one");
  cache.Put(1, "uno");
  EXPECT_EQ(*cache.Get(1), "uno");
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  ASSERT_NE(cache.Get(1), nullptr);  // promote 1: now 2 is least recent
  cache.Put(3, 30);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, PutPromotesExistingEntry) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);  // overwrite also promotes: 2 becomes the victim
  cache.Put(3, 30);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_EQ(*cache.Get(1), 11);
}

TEST(LruCacheTest, CapacityBoundsSize) {
  LruCache<int, int> cache(3);
  for (int i = 0; i < 10; ++i) cache.Put(i, i);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.capacity(), 3u);
  EXPECT_EQ(cache.evictions(), 7u);
  for (int i = 7; i < 10; ++i) EXPECT_TRUE(cache.Contains(i));
}

TEST(LruCacheTest, ZeroCapacityDisables) {
  LruCache<int, int> cache(0);
  cache.Put(1, 10);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, ClearEmpties) {
  LruCache<int, int> cache(4);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get(1), nullptr);
  cache.Put(3, 30);  // still usable after Clear
  EXPECT_NE(cache.Get(3), nullptr);
}

// ---- ExplainService --------------------------------------------------------

TEST(ExplainServiceTest, ResultsBitIdenticalToDirectCalls) {
  Rng rng(31);
  auto model = TinyDcnn(&rng);
  const Tensor series = RandomSeries(&rng);

  // Expected maps from direct registry calls, computed before the service
  // spins up so no two threads ever share the model.
  ExplainOptions opts;
  opts.dcam.k = 11;
  opts.dcam.seed = 5;
  opts.occlusion.window = 4;
  opts.occlusion.stride = 2;
  const std::vector<std::string> methods = {"dcam", "saliency", "occlusion"};
  std::vector<Tensor> want;
  for (const std::string& m : methods) {
    want.push_back(Explain(m, model.get(), series, 1, opts).map);
  }

  ExplainService service;
  service.RegisterModel(ModelSpec("m", model.get()));
  for (size_t i = 0; i < methods.size(); ++i) {
    SCOPED_TRACE(methods[i]);
    ExplainRequest req;
    req.model_id = "m";
    req.method = methods[i];
    req.series = series;
    req.class_idx = 1;
    req.options = opts;
    ExpectSameMap(service.Explain(req).map, want[i]);
  }
  const ExplainService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, methods.size());
  EXPECT_EQ(stats.completed, methods.size());
}

TEST(ExplainServiceTest, RepeatedRequestHitsTheCache) {
  Rng rng(32);
  auto model = TinyDcnn(&rng);
  ExplainService service;
  service.RegisterModel(ModelSpec("m", model.get()));

  ExplainRequest req;
  req.model_id = "m";
  req.method = "dcam";
  req.series = RandomSeries(&rng);
  req.class_idx = 0;
  req.options.dcam.k = 7;
  const ExplanationResult first = service.Explain(req);
  const ExplanationResult second = service.Explain(req);
  ExpectSameMap(second.map, first.map);
  EXPECT_EQ(second.k, first.k);
  EXPECT_EQ(second.num_correct, first.num_correct);

  const ExplainService::Stats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  // Distinct options must miss: the digest keys the permutation sample.
  req.options.dcam.seed = 1234;
  (void)service.Explain(req);
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(ExplainServiceTest, CacheCapacityZeroStillServes) {
  Rng rng(33);
  auto model = TinyDcnn(&rng);
  ExplainService::Config config;
  config.cache.capacity_entries = 0;
  ExplainService service(config);
  service.RegisterModel(ModelSpec("m", model.get()));

  ExplainRequest req;
  req.model_id = "m";
  req.method = "dcam";
  req.series = RandomSeries(&rng);
  req.options.dcam.k = 5;
  const ExplanationResult first = service.Explain(req);
  const ExplanationResult second = service.Explain(req);
  ExpectSameMap(second.map, first.map);
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(ExplainServiceTest, CoalescesConcurrentDcamRequests) {
  Rng rng(34);
  auto model = TinyDcnn(&rng);
  const int kRequests = 6;
  std::vector<Tensor> series;
  std::vector<Tensor> want;
  for (int i = 0; i < kRequests; ++i) {
    series.push_back(RandomSeries(&rng));
  }
  for (int i = 0; i < kRequests; ++i) {
    core::DcamOptions opts;
    opts.k = 4 + i;
    opts.seed = 100 + i;
    opts.keep_mbar = false;
    want.push_back(
        core::ComputeDcamSerial(model.get(), series[i], i % 2, opts).dcam);
  }

  ExplainService service;
  service.RegisterModel(ModelSpec("m", model.get()));
  // Submit everything before the scheduler can drain (it is busy with the
  // first request's engine pass at the latest), then check stats show at
  // least one multi-request ComputeMany group.
  std::vector<Ticket> futures;
  for (int i = 0; i < kRequests; ++i) {
    ExplainRequest req;
    req.model_id = "m";
    req.method = "dcam";
    req.series = series[i];
    req.class_idx = i % 2;
    req.options.dcam.k = 4 + i;
    req.options.dcam.seed = 100 + i;
    futures.push_back(service.Submit(req));
  }
  for (int i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ExpectSameMap(futures[i].get().map, want[i]);
  }
  const ExplainService::Stats stats = service.stats();
  EXPECT_EQ(stats.coalesced_requests, static_cast<uint64_t>(kRequests));
  EXPECT_LE(stats.coalesced_batches, static_cast<uint64_t>(kRequests));
}

TEST(ExplainServiceTest, ConcurrencyStressBitIdentical) {
  // N client threads x M requests over shared series/methods: every future
  // must return exactly the map a direct single-threaded Explainer call
  // produces, regardless of coalescing, dedupe, and cache interleaving.
  Rng rng(35);
  auto model = TinyDcnn(&rng, 3);
  const int kSeries = 3;
  std::vector<Tensor> series;
  for (int i = 0; i < kSeries; ++i) series.push_back(RandomSeries(&rng));

  struct Case {
    std::string method;
    int series_idx;
    int class_idx;
    ExplainOptions options;
  };
  std::vector<Case> cases;
  for (int s = 0; s < kSeries; ++s) {
    for (int c = 0; c < 3; ++c) {
      Case dcam_case{"dcam", s, c, {}};
      dcam_case.options.dcam.k = 3 + s + c;
      dcam_case.options.dcam.seed = 50 + 10 * s + c;
      cases.push_back(dcam_case);
    }
    Case sal{"saliency", s, s % 3, {}};
    cases.push_back(sal);
  }
  std::vector<Tensor> want;
  for (const Case& c : cases) {
    want.push_back(Explain(c.method, model.get(), series[c.series_idx],
                           c.class_idx, c.options)
                       .map);
  }

  ExplainService service;
  service.RegisterModel(ModelSpec("m", model.get()));
  const int kThreads = 4;
  const int kRounds = 3;  // every thread submits every case, thrice
  std::vector<std::thread> clients;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Ticket> futures;
        for (const Case& c : cases) {
          ExplainRequest req;
          req.model_id = "m";
          req.method = c.method;
          req.series = series[c.series_idx];
          req.class_idx = c.class_idx;
          req.options = c.options;
          futures.push_back(service.Submit(req));
        }
        for (size_t i = 0; i < cases.size(); ++i) {
          const Tensor got = futures[i].get().map;
          if (got.shape() != want[i].shape()) {
            ++failures[t];
            continue;
          }
          for (int64_t j = 0; j < got.size(); ++j) {
            if (got[j] != want[i][j]) {
              ++failures[t];
              break;
            }
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t << " saw mismatched maps";
  }

  const ExplainService::Stats stats = service.stats();
  const uint64_t total =
      static_cast<uint64_t>(kThreads) * kRounds * cases.size();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.completed, total);
  // Every repetition of a case beyond its first computation is served
  // without recompute (cache hit or in-flight dedupe).
  EXPECT_EQ(stats.cache_hits + stats.deduped + cases.size(), total);
}

TEST(ExplainServiceTest, DrainWaitsForSubmittedWork) {
  Rng rng(36);
  auto model = TinyDcnn(&rng);
  ExplainService service;
  service.RegisterModel(ModelSpec("m", model.get()));
  std::vector<Ticket> futures;
  for (int i = 0; i < 5; ++i) {
    ExplainRequest req;
    req.model_id = "m";
    req.method = "dcam";
    req.series = RandomSeries(&rng);
    req.options.dcam.k = 6;
    req.options.dcam.seed = i;
    futures.push_back(service.Submit(req));
  }
  service.Drain();
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  EXPECT_EQ(service.stats().completed, 5u);
}

TEST(ExplainServiceTest, ShutdownDrainsAndIsIdempotent) {
  Rng rng(37);
  auto model = TinyDcnn(&rng);
  ExplainService service;
  service.RegisterModel(ModelSpec("m", model.get()));
  ExplainRequest req;
  req.model_id = "m";
  req.method = "saliency";
  req.series = RandomSeries(&rng);
  auto future = service.Submit(req);
  service.Shutdown();
  service.Shutdown();
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
}

TEST(ExplainServiceTest, LruEvictionForcesRecompute) {
  Rng rng(38);
  auto model = TinyDcnn(&rng);
  ExplainService::Config config;
  config.cache.capacity_entries = 2;
  ExplainService service(config);
  service.RegisterModel(ModelSpec("m", model.get()));

  std::vector<ExplainRequest> reqs;
  for (int i = 0; i < 3; ++i) {
    ExplainRequest req;
    req.model_id = "m";
    req.method = "dcam";
    req.series = RandomSeries(&rng);
    req.options.dcam.k = 4;
    req.options.dcam.seed = 900 + i;
    reqs.push_back(req);
  }
  std::vector<Tensor> first;
  for (const auto& r : reqs) first.push_back(service.Explain(r).map);
  // Requests 0..2 passed through a capacity-2 cache: request 0 is evicted,
  // re-explaining it must recompute (no hit) yet stay bit-identical.
  const uint64_t hits_before = service.stats().cache_hits;
  ExpectSameMap(service.Explain(reqs[0]).map, first[0]);
  EXPECT_EQ(service.stats().cache_hits, hits_before);
  EXPECT_GE(service.stats().evictions, 1u);
  // The two most recent entries are still hot.
  ExpectSameMap(service.Explain(reqs[2]).map, first[2]);
  EXPECT_EQ(service.stats().cache_hits, hits_before + 1);
}

}  // namespace
}  // namespace explain
}  // namespace dcam
