// Streaming/anytime surface of explain::ExplainService: SubmitStreaming must
// deliver monotone partial-result ticks before a terminal that is
// bit-identical to the blocking path, Ticket::Cancel must fail queued
// requests immediately and running ones at the next tick boundary (with the
// unspent permutation budget reclaimed), deduped followers must ride their
// leader's tick stream, deadline expiry mid-stream must deliver the
// boundary's tick before its terminal, and ValidateRequest must throw caller
// errors synchronously under the unified ServiceError hierarchy.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "explain/completion_queue.h"
#include "explain/explainer.h"
#include "explain/service.h"
#include "models/cnn.h"
#include "util/clock.h"
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

ExplainRequest DcamRequest(const std::string& model_id, const Tensor& series,
                           int class_idx, int k, uint64_t seed) {
  ExplainRequest req;
  req.model_id = model_id;
  req.method = "dcam";
  req.series = series;
  req.class_idx = class_idx;
  req.options.dcam.k = k;
  req.options.dcam.seed = seed;
  return req;
}

// Latch-gated method: Explain blocks until the gate opens, so a test can
// hold the (single) scheduler shard busy while it populates the queues
// deterministically. Non-deterministic so it never dedupes or caches.
std::atomic<bool> g_gate_open{false};
std::atomic<int> g_gate_entered{0};

class GatedExplainer : public Explainer {
 public:
  std::string name() const override { return "gated_stream"; }
  bool Supports(const models::Model&, const Tensor&) const override {
    return true;
  }
  bool Deterministic() const override { return false; }
  ExplanationResult Explain(models::Model*, const Tensor& series, int,
                            const ExplainOptions&) override {
    g_gate_entered.fetch_add(1);
    while (!g_gate_open.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ExplanationResult out;
    out.map = series.Clone();
    return out;
  }
};

const bool g_gated_registered = RegisterExplainer(
    "gated_stream", [] { return std::make_unique<GatedExplainer>(); });

ExplainRequest GatedRequest(const std::string& model_id, Rng* rng) {
  ExplainRequest req;
  req.model_id = model_id;
  req.method = "gated_stream";
  req.series = RandomSeries(rng);
  return req;
}

// ---- tick stream: monotone partials, bit-identical terminal ----------------

TEST(ServiceStreamingTest, DeliversMonotoneTicksThenBitIdenticalTerminal) {
  Rng rng(71);
  auto model = TinyDcnn(&rng);
  const Tensor series = RandomSeries(&rng);

  // The blocking-path reference, computed by a service of its own so the
  // streaming run below cannot be served from a cache.
  Tensor want;
  {
    ExplainService service;
    service.RegisterModel(ModelSpec("m", model.get()));
    want = service.Explain(DcamRequest("m", series, 1, 12, 7100)).map;
  }

  ExplainService::Config config;
  config.engine_batch = 4;
  config.stream_tick_k = 4;  // k = 12: ticks at 4 and 8, then the terminal
  ExplainService service(config);
  service.RegisterModel(ModelSpec("m", model.get()));
  CompletionQueue cq;
  Ticket t = service.SubmitStreaming(DcamRequest("m", series, 1, 12, 7100),
                                     &cq, reinterpret_cast<void*>(1));
  EXPECT_TRUE(t.valid());

  std::vector<int> k_seen;
  std::vector<double> convergence;
  CompletionQueue::Completion c;
  while (cq.Next(&c) && c.tick()) {
    EXPECT_EQ(c.tag, reinterpret_cast<void*>(1));
    EXPECT_EQ(c.result.map.shape(), series.shape());
    k_seen.push_back(c.result.k);
    convergence.push_back(c.result.convergence);
  }
  // c now holds the terminal completion.
  ASSERT_EQ(c.status, CompletionQueue::Status::kOk);
  EXPECT_EQ(c.result.k, 12);
  ExpectSameMap(c.result.map, want);
  EXPECT_GT(c.result.convergence, 0.0);  // relative L2 vs the k=8 tick

  // k_done strictly increasing at the configured cadence; at least one
  // partial tick precedes the terminal for any k of two or more batches.
  ASSERT_EQ(k_seen, (std::vector<int>{4, 8}));
  ASSERT_EQ(convergence.size(), 2u);
  EXPECT_EQ(convergence[0], 1.0);  // no previous map at the first tick
  EXPECT_GT(convergence[1], 0.0);
  EXPECT_LT(convergence[1], 1.0);  // the map settles as k grows

  const ExplainService::Stats stats = service.stats();
  EXPECT_EQ(stats.streamed_ticks, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_EQ(stats.reclaimed_k, 0u);
  EXPECT_TRUE(t.done());
  EXPECT_FALSE(t.Cancel());  // terminal already delivered: a no-op
  cq.Shutdown();
}

TEST(ServiceStreamingTest, CacheHitAndNonDcamDeliverZeroTicks) {
  Rng rng(72);
  auto model = TinyDcnn(&rng);
  const Tensor series = RandomSeries(&rng);
  ExplainService::Config config;
  config.stream_tick_k = 2;
  ExplainService service(config);
  service.RegisterModel(ModelSpec("m", model.get()));

  // Warm the cache through the blocking path, then stream the same request:
  // a hit has no permutation loop left to observe, so the tag receives just
  // its terminal, bit-identical to the cached result.
  const auto req = DcamRequest("m", series, 0, 8, 7200);
  const Tensor want = service.Explain(req).map;
  CompletionQueue cq;
  service.SubmitStreaming(req, &cq, reinterpret_cast<void*>(1));
  CompletionQueue::Completion c;
  ASSERT_TRUE(cq.Next(&c));
  EXPECT_FALSE(c.tick());
  ASSERT_TRUE(c.ok());
  ExpectSameMap(c.result.map, want);
  EXPECT_EQ(c.result.convergence, 0.0);  // cache stores the canonical form
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(service.stats().streamed_ticks, 0u);

  // A method without a permutation loop streams zero ticks too.
  ExplainRequest cam;
  cam.model_id = "m";
  cam.method = "cam";
  cam.series = series;
  service.SubmitStreaming(cam, &cq, reinterpret_cast<void*>(2));
  ASSERT_TRUE(cq.Next(&c));
  EXPECT_EQ(c.tag, reinterpret_cast<void*>(2));
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(service.stats().streamed_ticks, 0u);
  cq.Shutdown();
}

// ---- cancellation ----------------------------------------------------------

TEST(ServiceCancelTest, CancelWhileQueuedFailsImmediatelyAndReclaimsFullK) {
  ASSERT_TRUE(g_gated_registered);
  Rng rng(73);
  auto model = TinyDcnn(&rng);
  ExplainService::Config config;
  config.replicas = 1;
  ExplainService service(config);
  service.RegisterModel(ModelSpec("m", model.get()));

  g_gate_open.store(false);
  g_gate_entered.store(0);
  Ticket blocker = service.Submit(GatedRequest("m", &rng));
  while (g_gate_entered.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Queued behind the gate: cancellation must not wait for a scheduler.
  Ticket doomed = service.Submit(DcamRequest("m", RandomSeries(&rng), 0, 25,
                                             7300));
  EXPECT_FALSE(doomed.done());
  EXPECT_TRUE(doomed.Cancel());
  EXPECT_TRUE(doomed.done());     // terminal delivered by Cancel itself
  EXPECT_FALSE(doomed.Cancel());  // second cancel: already terminal
  EXPECT_THROW((void)doomed.get(), CancelledError);

  const ExplainService::Stats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.reclaimed_k, 25u);  // the whole budget was unspent

  g_gate_open.store(true);
  (void)blocker.get();
  service.Drain();
  EXPECT_EQ(service.stats().completed, 1u);  // only the blocker
}

TEST(ServiceCancelTest, CancelMidStreamStopsAtTickBoundaryAndReclaims) {
  Rng rng(74);
  auto model = TinyDcnn(&rng);
  ExplainService::Config config;
  config.engine_batch = 4;
  config.stream_tick_k = 4;
  ExplainService service(config);
  service.RegisterModel(ModelSpec("m", model.get()));

  // A capacity-1 queue makes the cancel point deterministic enough to
  // assert on: the scheduler cannot run more than one tick past the one the
  // consumer is holding — it blocks inside PushTick until the pop below.
  CompletionQueue cq(/*capacity=*/1);
  Ticket t = service.SubmitStreaming(DcamRequest("m", RandomSeries(&rng), 0,
                                                 20, 7400),
                                     &cq, reinterpret_cast<void*>(1));
  // Wait for the first tick to be produced, cancel before consuming it: the
  // engine pass is mid-flight and must stop at an upcoming k boundary.
  while (service.stats().streamed_ticks < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(t.Cancel());

  std::vector<int> k_seen;
  CompletionQueue::Completion c;
  while (cq.Next(&c) && c.tick()) k_seen.push_back(c.result.k);
  EXPECT_EQ(c.status, CompletionQueue::Status::kError);
  EXPECT_THROW(std::rethrow_exception(c.error), CancelledError);
  EXPECT_TRUE(t.done());

  // The first tick (k = 4) was in flight before the cancel; the producer
  // can have reached at most the k = 8 tick before blocking, so the stop
  // lands at the 8- or 12-permutation boundary and at least 8 of the
  // 20-permutation budget comes back.
  ASSERT_GE(k_seen.size(), 1u);
  ASSERT_LE(k_seen.size(), 2u);
  EXPECT_EQ(k_seen[0], 4);
  service.Drain();
  const ExplainService::Stats stats = service.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_GE(stats.reclaimed_k, 8u);
  EXPECT_LE(stats.reclaimed_k, 16u);
  EXPECT_EQ(stats.completed, 0u);
  cq.Shutdown();
}

// ---- deadline expiry mid-stream --------------------------------------------

TEST(ServiceStreamingTest, DeadlineExpiryMidStreamDeliversTickThenTerminal) {
  Rng rng(75);
  auto model = TinyDcnn(&rng);
  ManualClock clock;
  ExplainService::Config config;
  config.engine_batch = 4;
  config.stream_tick_k = 4;
  config.clock = &clock;
  ExplainService service(config);
  service.RegisterModel(ModelSpec("m", model.get()));

  auto req = DcamRequest("m", RandomSeries(&rng), 1, 20, 7500);
  req.deadline = clock.Now() + std::chrono::hours(1);
  CompletionQueue cq(/*capacity=*/1);  // same producer throttle as above
  service.SubmitStreaming(req, &cq, reinterpret_cast<void*>(1));
  while (service.stats().streamed_ticks < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Time jumps past the deadline mid-compute. The anytime contract: the
  // boundary that observes expiry delivers its tick first (the best map the
  // budget bought), then the DeadlineExceededError terminal.
  clock.Advance(std::chrono::hours(2));

  std::vector<CompletionQueue::Status> order;
  std::vector<int> k_seen;
  CompletionQueue::Completion c;
  while (cq.Next(&c)) {
    order.push_back(c.status);
    if (c.tick()) k_seen.push_back(c.result.k);
    if (!c.tick()) break;
  }
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order.back(), CompletionQueue::Status::kError);
  EXPECT_EQ(order[order.size() - 2], CompletionQueue::Status::kTick);
  EXPECT_THROW(std::rethrow_exception(c.error), DeadlineExceededError);
  for (size_t i = 1; i < k_seen.size(); ++i) {
    EXPECT_GT(k_seen[i], k_seen[i - 1]);  // strictly increasing to the end
  }
  service.Drain();
  const ExplainService::Stats stats = service.stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_GT(stats.reclaimed_k, 0u);
  EXPECT_EQ(stats.completed, 0u);
  cq.Shutdown();
}

// ---- dedupe: followers ride the leader's tick stream -----------------------

TEST(ServiceStreamingTest, DedupedFollowerGetsLeaderTickSequence) {
  ASSERT_TRUE(g_gated_registered);
  Rng rng(76);
  auto model = TinyDcnn(&rng);
  ExplainService::Config config;
  config.replicas = 1;
  config.engine_batch = 4;
  config.stream_tick_k = 4;
  ExplainService service(config);
  service.RegisterModel(ModelSpec("m", model.get()));

  g_gate_open.store(false);
  g_gate_entered.store(0);
  Ticket blocker = service.Submit(GatedRequest("m", &rng));
  while (g_gate_entered.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Two streaming submits of one identical request queue behind the gate,
  // so they land in the same scheduler round and dedupe into one engine
  // pass — plus a non-streaming duplicate, which must see no ticks.
  const auto req = DcamRequest("m", RandomSeries(&rng), 0, 12, 7600);
  CompletionQueue lead_cq, follow_cq, plain_cq;
  service.SubmitStreaming(req, &lead_cq, reinterpret_cast<void*>(1));
  service.SubmitStreaming(req, &follow_cq, reinterpret_cast<void*>(2));
  service.SubmitAsync(req, &plain_cq, reinterpret_cast<void*>(3));
  g_gate_open.store(true);
  (void)blocker.get();

  auto drain = [](CompletionQueue* cq, std::vector<int>* k_seen,
                  std::vector<Tensor>* maps) {
    CompletionQueue::Completion c;
    while (cq->Next(&c) && c.tick()) {
      k_seen->push_back(c.result.k);
      maps->push_back(std::move(c.result.map));
    }
    EXPECT_EQ(c.status, CompletionQueue::Status::kOk);
    return std::move(c.result.map);
  };
  std::vector<int> lead_k, follow_k, plain_k;
  std::vector<Tensor> lead_maps, follow_maps, plain_maps;
  const Tensor lead_final = drain(&lead_cq, &lead_k, &lead_maps);
  const Tensor follow_final = drain(&follow_cq, &follow_k, &follow_maps);
  const Tensor plain_final = drain(&plain_cq, &plain_k, &plain_maps);

  // One computation: the follower observes exactly the leader's ticks (same
  // k_done sequence, same partial maps), the non-streaming duplicate none.
  ASSERT_EQ(lead_k, (std::vector<int>{4, 8}));
  ASSERT_EQ(follow_k, lead_k);
  EXPECT_TRUE(plain_k.empty());
  for (size_t i = 0; i < lead_maps.size(); ++i) {
    ExpectSameMap(follow_maps[i], lead_maps[i]);
  }
  ExpectSameMap(follow_final, lead_final);
  ExpectSameMap(plain_final, lead_final);
  const ExplainService::Stats stats = service.stats();
  EXPECT_EQ(stats.deduped, 2u);
  EXPECT_EQ(stats.coalesced_requests, 1u);  // one engine pass served all 3
  EXPECT_EQ(stats.streamed_ticks, 4u);      // 2 ticks x 2 streaming sinks
  lead_cq.Shutdown();
  follow_cq.Shutdown();
  plain_cq.Shutdown();
}

// ---- validation and the error hierarchy ------------------------------------

TEST(ServiceValidateTest, CallerErrorsThrowSynchronouslyWithoutTouchingSinks) {
  Rng rng(77);
  auto model = TinyDcnn(&rng);
  ExplainService service;
  service.RegisterModel(ModelSpec("m", model.get()));
  const Tensor series = RandomSeries(&rng);
  CompletionQueue cq;

  auto expect_invalid = [&](ExplainRequest req) {
    EXPECT_THROW((void)service.Submit(req), std::invalid_argument);
    EXPECT_THROW((void)service.SubmitStreaming(req, &cq, nullptr),
                 std::invalid_argument);
    // The throw happened before BeginOp: no tag was ever registered.
    EXPECT_EQ(cq.pending(), 0u);
  };

  auto req = DcamRequest("m", series, 0, 5, 7700);
  req.model_id = "";
  expect_invalid(req);
  req = DcamRequest("nope", series, 0, 5, 7700);
  expect_invalid(req);
  req = DcamRequest("m", series, 0, 5, 7700);
  req.method = "";
  expect_invalid(req);
  req.method = "no_such_method";
  expect_invalid(req);
  req = DcamRequest("m", series, 0, 5, 7700);
  req.backend = "tpu";
  expect_invalid(req);
  req.backend = "bf16";
  expect_invalid(req);
  req = DcamRequest("m", Tensor({2, 3, 4}), 0, 5, 7700);  // not (D, n)
  expect_invalid(req);

  // An unsupported (method, model) pairing is a caller error too: dCAM
  // needs a cube-input architecture.
  models::ConvNetConfig cfg;
  cfg.filters = {4, 4};
  models::ConvNet flat(models::InputMode::kStandard, kDims, 2, cfg, &rng);
  service.RegisterModel(ModelSpec("flat", &flat));
  req = DcamRequest("flat", series, 0, 5, 7700);
  expect_invalid(req);

  // Option ranges the explainers DCAM_CHECK are caller errors as well: each
  // of these would otherwise abort the scheduler thread mid-batch.
  const auto with = [&](const std::string& method,
                        const std::function<void(ExplainRequest*)>& edit) {
    ExplainRequest r = DcamRequest("m", series, 0, 5, 7700);
    r.method = method;
    edit(&r);
    return r;
  };
  for (const char* method :
       {"dcam", "dcam_serial", "dcam_adaptive", "occlusion", "smoothgrad"}) {
    SCOPED_TRACE(method);
    expect_invalid(with(method, [](ExplainRequest* r) { r->class_idx = 7; }));
    expect_invalid(with(method, [](ExplainRequest* r) { r->class_idx = -1; }));
  }
  for (const char* method : {"dcam", "dcam_serial", "dcam_contrastive"}) {
    SCOPED_TRACE(method);
    expect_invalid(with(method, [](ExplainRequest* r) {
      r->options.contrast_class = 1;
      r->options.dcam.k = 0;
    }));
  }
  for (int contrast : {-1, 0, 2}) {  // unset, == class_idx, out of range
    expect_invalid(with("dcam_contrastive", [&](ExplainRequest* r) {
      r->options.contrast_class = contrast;
    }));
  }
  const std::vector<std::function<void(core::AdaptiveDcamOptions*)>>
      bad_adaptive = {
          [](core::AdaptiveDcamOptions* a) { a->batch = 0; },
          [](core::AdaptiveDcamOptions* a) { a->max_k = a->batch - 1; },
          [](core::AdaptiveDcamOptions* a) { a->tolerance = 0.0; },
          [](core::AdaptiveDcamOptions* a) { a->stable_batches = 0; },
      };
  for (const auto& edit : bad_adaptive) {
    expect_invalid(with("dcam_adaptive", [&](ExplainRequest* r) {
      edit(&r->options.adaptive);
    }));
  }
  expect_invalid(with("occlusion",
                      [](ExplainRequest* r) { r->options.occlusion.window = 0; }));
  expect_invalid(with("occlusion",
                      [](ExplainRequest* r) { r->options.occlusion.stride = 0; }));
  expect_invalid(with("occlusion",
                      [](ExplainRequest* r) { r->options.occlusion.batch = 0; }));
  expect_invalid(with("smoothgrad", [](ExplainRequest* r) {
    r->options.smoothgrad.samples = 0;
  }));
  expect_invalid(with("smoothgrad", [](ExplainRequest* r) {
    r->options.smoothgrad.noise_fraction = -0.5f;
  }));
  expect_invalid(with("integrated_gradients", [](ExplainRequest* r) {
    r->options.integrated.steps = 0;
  }));
  expect_invalid(with("integrated_gradients", [](ExplainRequest* r) {
    r->options.integrated.baseline = Tensor({kDims, kLen + 1});
  }));

  EXPECT_EQ(service.stats().requests, 0u);  // nothing was admitted
  // The service survived every rejection and still serves a valid request.
  EXPECT_EQ(service.Explain(DcamRequest("m", series, 1, 5, 7700)).k, 5);
}

TEST(ServiceErrorTest, LoadAndLifecycleErrorsShareOneBase) {
  static_assert(std::is_base_of<ServiceError, ServiceOverloadError>::value,
                "overload must be catchable as ServiceError");
  static_assert(std::is_base_of<ServiceError, DeadlineExceededError>::value,
                "deadline must be catchable as ServiceError");
  static_assert(std::is_base_of<ServiceError, CancelledError>::value,
                "cancel must be catchable as ServiceError");
  static_assert(std::is_base_of<std::runtime_error, ServiceError>::value,
                "ServiceError stays a runtime_error for old catch sites");

  ASSERT_TRUE(g_gated_registered);
  Rng rng(78);
  auto model = TinyDcnn(&rng);
  ExplainService::Config config;
  config.replicas = 1;
  ExplainService service(config);
  service.RegisterModel(ModelSpec("m", model.get()));
  g_gate_open.store(false);
  g_gate_entered.store(0);
  Ticket blocker = service.Submit(GatedRequest("m", &rng));
  while (g_gate_entered.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Ticket doomed = service.Submit(DcamRequest("m", RandomSeries(&rng), 0, 5,
                                             7800));
  ASSERT_TRUE(doomed.Cancel());
  // One catch site handles every load/lifecycle failure mode.
  EXPECT_THROW((void)doomed.get(), ServiceError);
  g_gate_open.store(true);
  (void)blocker.get();
}

TEST(ServiceTicketTest, TicketLifecycleAcrossSurfaces) {
  Ticket empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.done());
  EXPECT_FALSE(empty.Cancel());  // a default handle never touches a service

  Rng rng(79);
  auto model = TinyDcnn(&rng);
  ExplainService service;
  service.RegisterModel(ModelSpec("m", model.get()));
  const auto req = DcamRequest("m", RandomSeries(&rng), 0, 5, 7900);

  Ticket t = service.Submit(req);
  EXPECT_TRUE(t.valid());
  (void)t.get();
  EXPECT_TRUE(t.done());
  EXPECT_FALSE(t.Cancel());

  CompletionQueue cq;
  Ticket async = service.SubmitAsync(req, &cq, reinterpret_cast<void*>(1));
  EXPECT_TRUE(async.valid());
  CompletionQueue::Completion c;
  ASSERT_TRUE(cq.Next(&c));
  EXPECT_TRUE(c.ok());
  EXPECT_TRUE(async.done());
  EXPECT_FALSE(async.Cancel());
  cq.Shutdown();
}

}  // namespace
}  // namespace explain
}  // namespace dcam
