#include "explain/service.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/engine.h"
#include "io/serialize.h"
#include "util/affinity.h"
#include "util/parallel.h"

namespace dcam {
namespace explain {
namespace {

// Content equality of two (D, n) series; the guard that makes the 64-bit
// series hash in CacheKey collision-proof. Shared with the persistent tier.
bool SameSeries(const Tensor& a, const Tensor& b) {
  return SameSeriesBytes(a, b);
}

size_t SeriesBytes(const Tensor& series) {
  return static_cast<size_t>(series.size()) * sizeof(float);
}

uint64_t ElapsedNs(MonotonicClock::time_point from,
                   MonotonicClock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

bool Ticket::Cancel() {
  if (state_ == nullptr || state_->terminal.load()) return false;
  return state_->service->CancelRequest(state_);
}

ExplainService::ExplainService() : ExplainService(Config()) {}

ExplainService::ExplainService(Config config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock : RealClock::Get()),
      cache_(config.cache.capacity_entries, config.cache.capacity_bytes) {
  DCAM_CHECK_GE(config_.engine_batch, 0);
  DCAM_CHECK_GE(config_.max_coalesce, 1);
  DCAM_CHECK_GE(config_.replicas, 1);
  DCAM_CHECK_GE(config_.admission.min_degraded_k, 1);
  if (!config_.cache.persistent_dir.empty() &&
      config_.cache.capacity_entries > 0) {
    PersistentCacheTier::Options topts;
    topts.ttl = config_.cache.ttl;
    topts.verify_on_read = config_.cache.verify_on_read;
    topts.flush_bytes = config_.cache.flush_bytes;
    const io::Status status =
        PersistentCacheTier::Open(config_.cache.persistent_dir, topts, &tier2_);
    if (!status.ok()) {
      // Degrade, don't die: a broken cache directory costs warmth, not
      // serving. tier2_ stays null and every probe goes tier 1 -> compute.
      std::fprintf(stderr,
                   "ExplainService: persistent cache tier disabled: %s\n",
                   status.ToString().c_str());
    }
  }
  shards_.reserve(config_.replicas);
  for (int s = 0; s < config_.replicas; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (int s = 0; s < config_.replicas; ++s) {
    shards_[s]->scheduler = std::thread([this, s] { SchedulerLoop(s); });
  }
  if (config_.elasticity_tick.count() > 0) {
    controller_ = std::thread([this] { ControllerLoop(); });
  }
}

ExplainService::~ExplainService() { Shutdown(); }

void ExplainService::RegisterModel(ModelSpec spec) {
  DCAM_CHECK(spec.model != nullptr);
  DCAM_CHECK(!spec.id.empty()) << "model id must be non-empty";
  DCAM_CHECK_GE(spec.replicas, 0);
  const int shards = static_cast<int>(shards_.size());
  ElasticityConfig elastic = spec.elasticity;
  if (elastic.enabled()) {
    elastic.min_replicas = std::max(1, std::min(elastic.min_replicas, shards));
    elastic.max_replicas =
        std::max(elastic.min_replicas, std::min(elastic.max_replicas, shards));
  }
  int group = spec.replicas == 0
                  ? (elastic.enabled() ? elastic.min_replicas : shards)
                  : std::min(spec.replicas, shards);
  if (elastic.enabled()) {
    group = std::max(elastic.min_replicas,
                     std::min(group, elastic.max_replicas));
  }
  const int first =
      spec.placement_hint >= 0 ? spec.placement_hint % shards : 0;
  // Clones are built outside the lock — a weight copy of a large model must
  // not stall Submit. The group's first shard serves the caller's model
  // directly, so a single-shard group never requires CloneArchitecture
  // support (until elasticity grows it).
  ModelEntry entry;
  entry.source = spec.model;
  entry.elastic = elastic;
  entry.replicas.reserve(static_cast<size_t>(group));
  for (int i = 0; i < group; ++i) {
    Replica r;
    r.shard = (first + i) % shards;
    if (i > 0) r.clone = spec.model->Clone();
    entry.replicas.push_back(std::move(r));
  }
  std::lock_guard<std::mutex> lock(mu_);
  entry.last_activity = clock_->Now();
  entry.last_scale = entry.last_activity;
  DCAM_CHECK_EQ(models_.count(spec.id), 0u)
      << "model id \"" << spec.id << "\" already registered";
  models_.emplace(std::move(spec.id), std::move(entry));
}

void ExplainService::InvalidateModel(const std::string& id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = models_.find(id);
    DCAM_CHECK(it != models_.end())
        << "unknown model id \"" << id << "\" (RegisterModel first)";
    // The epoch fence keeps results computed against the old weights out of
    // the cache even when their compute finishes after this call.
    ++it->second.epoch;
    for (Replica& r : it->second.replicas) {
      if (r.clone != nullptr) r.dirty = 1;
    }
  }
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    dropped = cache_.EraseIf(
        [&](const CacheKey& key) { return key.model_id == id; });
  }
  if (tier2_ != nullptr) dropped += tier2_->EraseModel(id);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += dropped;
}

int ExplainService::ModelReplicas(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(id);
  DCAM_CHECK(it != models_.end())
      << "unknown model id \"" << id << "\" (RegisterModel first)";
  return static_cast<int>(it->second.replicas.size());
}

size_t ExplainService::QueuedLocked(const Shard& shard) const {
  size_t total = 0;
  for (const auto& q : shard.queues) total += q.size();
  return total;
}

int ExplainService::LeastLoadedLocked(const ModelEntry& entry) const {
  int best = entry.replicas.front().shard;
  size_t best_load = static_cast<size_t>(-1);
  for (const Replica& r : entry.replicas) {
    const size_t load = QueuedLocked(*shards_[r.shard]) +
                        static_cast<size_t>(shards_[r.shard]->in_flight);
    if (load < best_load || (load == best_load && r.shard < best)) {
      best = r.shard;
      best_load = load;
    }
  }
  return best;
}

void ExplainService::Deliver(Pending* p, ExplanationResult result) {
  // Terminal-first: once the sink is engaged a racing Ticket::Cancel must
  // see the request as finished (the flag is what keeps a post-shutdown
  // Cancel from dereferencing the service).
  if (p->ticket != nullptr) p->ticket->terminal.store(true);
  if (p->cq != nullptr) {
    CompletionQueue::Completion c;
    c.tag = p->tag;
    c.status = CompletionQueue::Status::kOk;
    c.result = std::move(result);
    p->cq->Push(std::move(c));
  } else if (p->callback) {
    AsyncResult r;
    r.result = std::move(result);
    p->callback(std::move(r));
  } else {
    p->promise.set_value(std::move(result));
  }
}

void ExplainService::DeliverError(Pending* p, std::exception_ptr error) {
  if (p->ticket != nullptr) p->ticket->terminal.store(true);
  if (p->cq != nullptr) {
    CompletionQueue::Completion c;
    c.tag = p->tag;
    c.status = CompletionQueue::Status::kError;
    c.error = std::move(error);
    p->cq->Push(std::move(c));
  } else if (p->callback) {
    AsyncResult r;
    r.error = std::move(error);
    p->callback(std::move(r));
  } else {
    p->promise.set_exception(std::move(error));
  }
}

void ExplainService::DropKeyRefLocked(const Pending& p) {
  auto it = active_keys_.find(p.key);
  if (it != active_keys_.end() && --it->second.second == 0) {
    active_keys_.erase(it);
  }
}

void ExplainService::Reject(Pending* p, const std::string& why) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shed_rejected;
    ++stats_.shed_by_priority[p->priority_class()];
  }
  DeliverError(p, std::make_exception_ptr(ServiceOverloadError(why)));
}

void ExplainService::Expire(Pending* p, const char* where) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.deadline_expired;
    if (p->has_key_ref) DropKeyRefLocked(*p);
    p->has_key_ref = false;
  }
  p->done = true;
  DeliverError(p, std::make_exception_ptr(DeadlineExceededError(
                      std::string("request deadline passed ") + where +
                      " (method \"" + p->request.method + "\", model \"" +
                      p->request.model_id + "\")")));
}

bool ExplainService::CancelRequest(
    const std::shared_ptr<internal::TicketState>& state) {
  Pending victim;
  bool queued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state->terminal.load()) return false;
    // The flag alone cancels a running request: every scheduler re-checks
    // it at dequeue, before a non-tickable compute, and at each engine tick
    // boundary. Setting it under mu_ orders it against the dequeue scan —
    // a request is either still findable in a queue here, or its scheduler
    // will observe the flag.
    state->cancel_requested.store(true);
    for (auto& shard : shards_) {
      for (auto& queue : shard->queues) {
        for (auto it = queue.begin(); it != queue.end(); ++it) {
          if (it->ticket == state) {
            victim = std::move(*it);
            queue.erase(it);
            --queued_total_;
            queued_bytes_ -= SeriesBytes(victim.request.series);
            if (victim.has_key_ref) DropKeyRefLocked(victim);
            ++stats_.cancelled;
            // The whole budget was unspent: this request never reached an
            // engine pass.
            if (victim.request.method == "dcam") {
              stats_.reclaimed_k +=
                  static_cast<uint64_t>(victim.request.options.dcam.k);
            }
            queued = true;
            break;
          }
        }
        if (queued) break;
      }
      if (queued) break;
    }
    // Queue removal bypasses the scheduler rounds, so a blocked Drain()
    // must re-check its predicate (same as admission-control eviction).
    if (queued) drained_cv_.notify_all();
  }
  if (queued) {
    DeliverError(&victim,
                 std::make_exception_ptr(CancelledError(
                     "request cancelled while queued (Ticket::Cancel)")));
  }
  return true;
}

void ExplainService::CancelInFlight(Pending* p, const char* where) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cancelled;
    if (p->has_key_ref) DropKeyRefLocked(*p);
    p->has_key_ref = false;
  }
  p->done = true;
  DeliverError(p, std::make_exception_ptr(CancelledError(
                      std::string("request cancelled ") + where +
                      " (Ticket::Cancel)")));
}

void ExplainService::DeliverTick(Pending* p, const core::DcamTick& tick) {
  CompletionQueue::Completion c;
  c.tag = p->tag;
  c.status = CompletionQueue::Status::kTick;
  // A private clone per waiter, as in Fulfill: the engine reuses its tick
  // scratch, and Tensor copies share storage.
  c.result.map = tick.map->Clone();
  c.result.k = tick.k_done;
  c.result.num_correct = tick.num_correct;
  c.result.convergence = tick.delta;
  p->cq->PushTick(std::move(c));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.streamed_ticks;
}

void ExplainService::ShedForLocked(const Pending& arrival, size_t cost,
                                   std::vector<Pending>* victims) {
  const int limit = arrival.priority_class();
  // Shedding cannot help an arrival whose own series exceeds the byte
  // bound: even an empty queue leaves it over the bound, so evicting queued
  // work on its behalf would destroy admitted requests for nothing. Such an
  // arrival falls through to the ordinary reject/degrade/hard-cap handling
  // with the queue intact (depth pressure, which eviction always relieves,
  // is still shed for).
  const AdmissionConfig& adm = config_.admission;
  const bool bytes_shedable =
      adm.max_queue_bytes == 0 || cost <= adm.max_queue_bytes;
  for (int cls = kNumPriorities - 1; cls > limit; --cls) {
    for (;;) {
      const bool over_depth =
          adm.max_queue_depth > 0 && queued_total_ >= adm.max_queue_depth;
      const bool over_bytes = bytes_shedable && adm.max_queue_bytes > 0 &&
                              queued_bytes_ + cost > adm.max_queue_bytes;
      if (!over_depth && !over_bytes) return;
      // The newest queued request of this class across all shards: shedding
      // newest-first keeps the surviving FIFO order intact and takes the
      // request that has invested the least queueing time.
      Shard* from = nullptr;
      for (auto& shard : shards_) {
        if (shard->queues[cls].empty()) continue;
        if (from == nullptr ||
            shard->queues[cls].back().ctx.enqueued >
                from->queues[cls].back().ctx.enqueued) {
          from = shard.get();
        }
      }
      if (from == nullptr) break;  // class drained; try the next-higher one
      Pending victim = std::move(from->queues[cls].back());
      from->queues[cls].pop_back();
      --queued_total_;
      queued_bytes_ -= SeriesBytes(victim.request.series);
      if (victim.has_key_ref) DropKeyRefLocked(victim);
      ++stats_.shed_rejected;
      ++stats_.shed_by_priority[cls];
      victims->push_back(std::move(victim));
    }
  }
}

Explainer* ExplainService::ResolveRequest(const ExplainRequest& request,
                                          std::string* resolved) {
  // A known backend with no specialization for this method computes the same
  // bits as portable, so it resolves to (and caches/dedupes as) "portable".
  *resolved = !request.backend.empty() &&
                      HasExplainerBackend(request.method, request.backend)
                  ? request.backend
                  : std::string("portable");
  const std::pair<std::string, std::string> proto_key{request.method,
                                                      *resolved};
  std::lock_guard<std::mutex> lock(prototypes_mu_);
  auto it = prototypes_.find(proto_key);
  if (it == prototypes_.end()) {
    // The caller vetted the method name, so this cannot CHECK-fail.
    it = prototypes_.emplace(proto_key, MakeExplainer(request.method, *resolved))
             .first;
  }
  return it->second.get();
}

void ExplainService::ValidateRequest(const ExplainRequest& request) {
  // Thrown, not CHECKed: a bad request must fail its caller synchronously,
  // never take a scheduler (and every other client's in-flight work) down.
  if (request.model_id.empty()) {
    throw std::invalid_argument("ExplainRequest.model_id must be non-empty");
  }
  if (request.method.empty()) {
    throw std::invalid_argument("ExplainRequest.method must be non-empty");
  }
  if (!HasExplainer(request.method)) {
    throw std::invalid_argument("unknown explainer method \"" +
                                request.method +
                                "\" (probe with HasExplainer)");
  }
  if (!request.backend.empty() && !KnownExplainerBackend(request.backend)) {
    throw std::invalid_argument(
        "unknown backend \"" + request.backend +
        "\" in ExplainRequest (expected \"portable\", \"avx2\", or a "
        "registered backend; probe with KnownExplainerBackend)");
  }
  if (request.series.rank() != 2) {
    throw std::invalid_argument(
        "ExplainRequest.series must be a (D, n) tensor, got " +
        ShapeToString(request.series.shape()));
  }
  models::Model* model = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = models_.find(request.model_id);
    if (it == models_.end()) {
      throw std::invalid_argument("unknown model id \"" + request.model_id +
                                  "\" (RegisterModel first)");
    }
    model = it->second.source;
  }
  // Reject unsupported (method, model) pairings here, on the submitting
  // thread. Supports is const and reads only immutable model configuration,
  // so probing while a scheduler forwards the same model is safe; the
  // verdict is memoized per (method, model, series shape) because the dCAM
  // probe materializes a (1, D, D, n) cube, far too expensive for the
  // per-request path. Replicas are architecture copies, so the source
  // model's verdict covers the whole group.
  std::string resolved;
  Explainer* proto = ResolveRequest(request, &resolved);
  bool supported;
  {
    const SupportsKey key{request.method, model, request.series.dim(0),
                          request.series.dim(1)};
    std::lock_guard<std::mutex> lock(prototypes_mu_);
    auto it = supports_.find(key);
    if (it == supports_.end()) {
      it = supports_.emplace(key, proto->Supports(*model, request.series))
               .first;
    }
    supported = it->second;
  }
  if (!supported) {
    throw std::invalid_argument(
        "method \"" + request.method + "\" does not support model \"" +
        request.model_id + "\" (" + model->name() + ") for a (" +
        std::to_string(request.series.dim(0)) + ", " +
        std::to_string(request.series.dim(1)) + ") series");
  }
  // The option ranges the explainers DCAM_CHECK, rejected before a
  // scheduler thread could abort on them.
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("ExplainRequest ") + what);
  };
  const int classes = model->num_classes();
  const ExplainOptions& o = request.options;
  const std::string& m = request.method;
  require(request.class_idx >= 0 && request.class_idx < classes,
          "class_idx must be in [0, num_classes)");
  if (m == "dcam" || m == "dcam_serial" || m == "dcam_contrastive") {
    require(o.dcam.k > 0, "options.dcam.k must be positive");
  }
  if (m == "dcam_contrastive") {
    require(o.contrast_class >= 0 && o.contrast_class < classes &&
                o.contrast_class != request.class_idx,
            "options.contrast_class must be a class other than class_idx");
  }
  if (m == "dcam_adaptive") {
    const core::AdaptiveDcamOptions& a = o.adaptive;
    require(a.batch >= 1 && a.max_k >= a.batch && a.tolerance > 0.0 &&
                a.stable_batches >= 1,
            "options.adaptive needs batch >= 1, max_k >= batch, "
            "tolerance > 0 and stable_batches >= 1");
  }
  if (m == "occlusion") {
    require(o.occlusion.window >= 1 && o.occlusion.stride >= 1 &&
                o.occlusion.batch >= 1,
            "options.occlusion needs window, stride and batch >= 1");
  }
  if (m == "smoothgrad") {
    require(o.smoothgrad.samples >= 1 && o.smoothgrad.noise_fraction >= 0.0f,
            "options.smoothgrad needs samples >= 1 and noise_fraction >= 0");
  }
  if (m == "integrated_gradients") {
    require(o.integrated.steps >= 1 &&
                (o.integrated.baseline.empty() ||
                 o.integrated.baseline.shape() == request.series.shape()),
            "options.integrated needs steps >= 1 and an empty or "
            "series-shaped baseline");
  }
}

Ticket ExplainService::MakeTicket(Pending* p,
                                  MonotonicClock::time_point deadline) {
  p->ticket = std::make_shared<internal::TicketState>();
  p->ticket->service = this;
  Ticket t;
  t.state_ = p->ticket;
  t.deadline_ = deadline;
  return t;
}

Ticket ExplainService::Submit(ExplainRequest request) {
  ValidateRequest(request);
  Pending p;
  std::future<ExplanationResult> future = p.promise.get_future();
  Ticket t = MakeTicket(&p, request.deadline);
  t.future_ = std::move(future);
  SubmitInternal(std::move(request), std::move(p));
  return t;
}

Ticket ExplainService::SubmitAsync(ExplainRequest request,
                                   ExplainCallback callback) {
  DCAM_CHECK(callback) << "SubmitAsync requires a callable callback";
  ValidateRequest(request);
  Pending p;
  p.callback = std::move(callback);
  Ticket t = MakeTicket(&p, request.deadline);
  SubmitInternal(std::move(request), std::move(p));
  return t;
}

Ticket ExplainService::SubmitAsync(ExplainRequest request, CompletionQueue* cq,
                                   void* tag) {
  DCAM_CHECK(cq != nullptr) << "SubmitAsync requires a CompletionQueue";
  // Validate before BeginOp: an invalid request throws to the caller and
  // must leave the queue's pending count untouched (its tag never existed).
  ValidateRequest(request);
  // Begin the op before admission: even a synchronously-shed request must
  // deliver its tag on the queue exactly once.
  cq->BeginOp();
  Pending p;
  p.cq = cq;
  p.tag = tag;
  Ticket t = MakeTicket(&p, request.deadline);
  SubmitInternal(std::move(request), std::move(p));
  return t;
}

Ticket ExplainService::SubmitStreaming(ExplainRequest request,
                                       CompletionQueue* cq, void* tag) {
  DCAM_CHECK(cq != nullptr) << "SubmitStreaming requires a CompletionQueue";
  ValidateRequest(request);
  cq->BeginOp();
  Pending p;
  p.cq = cq;
  p.tag = tag;
  p.streaming = true;
  Ticket t = MakeTicket(&p, request.deadline);
  SubmitInternal(std::move(request), std::move(p));
  return t;
}

void ExplainService::SubmitInternal(ExplainRequest request, Pending p) {
  // Precondition: the public surface already ran ValidateRequest, so the
  // method/model/backend names and the series shape are vetted and the
  // request cannot throw past an engaged sink from here on.
  std::string resolved;
  Explainer* proto = ResolveRequest(request, &resolved);

  p.request = std::move(request);
  p.ctx.priority = p.request.priority;
  p.ctx.deadline = p.request.deadline;
  p.ctx.backend = resolved;
  p.dedupable = proto->Deterministic();
  p.cacheable = p.dedupable && config_.cache.capacity_entries > 0;
  p.key.model_id = p.request.model_id;
  p.key.method = p.request.method;
  p.key.backend = resolved;
  p.key.series_hash = HashTensor(p.request.series);
  p.key.options_digest =
      proto->OptionsDigest(p.request.class_idx, p.request.options);

  const size_t cost = SeriesBytes(p.request.series);
  bool reject = false;
  std::vector<Pending> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DCAM_CHECK(!stop_) << "Submit after Shutdown";
    const AdmissionConfig& adm = config_.admission;
    bool over_depth =
        adm.max_queue_depth > 0 && queued_total_ >= adm.max_queue_depth;
    bool over_bytes =
        adm.max_queue_bytes > 0 && queued_bytes_ + cost > adm.max_queue_bytes;
    if (over_depth || over_bytes) {
      // Shed lowest-priority-first: before this arrival is refused or
      // degraded, queued requests of strictly lower priority give up their
      // slots (their errors are delivered after the lock drops).
      ShedForLocked(p, cost, &victims);
      over_depth =
          adm.max_queue_depth > 0 && queued_total_ >= adm.max_queue_depth;
      over_bytes =
          adm.max_queue_bytes > 0 && queued_bytes_ + cost > adm.max_queue_bytes;
    }
    if (over_depth || over_bytes) {
      // The hard cap (twice each bound) rejects regardless of policy, so a
      // sustained burst cannot grow the queue without limit even when every
      // request is degradable.
      const bool hard_depth = adm.max_queue_depth > 0 &&
                              queued_total_ >= 2 * adm.max_queue_depth;
      const bool hard_bytes = adm.max_queue_bytes > 0 &&
                              queued_bytes_ + cost > 2 * adm.max_queue_bytes;
      const bool degradable =
          adm.overload == AdmissionConfig::Overload::kDegradeK &&
          p.request.method == "dcam" &&
          p.request.options.dcam.k > adm.min_degraded_k;
      if (hard_depth || hard_bytes || !degradable) {
        reject = true;
      } else {
        // Shed load by resolution instead of refusal: the k-permutation
        // loop is the cost (Figure 10), so clamping k keeps the queue
        // drainable. The digest is recomputed — the degraded result is
        // cached under the options actually computed.
        p.request.options.dcam.k = adm.min_degraded_k;
        p.key.options_digest =
            proto->OptionsDigest(p.request.class_idx, p.request.options);
        ++stats_.shed_degraded;
      }
    }
    if (!reject) {
      auto model_it = models_.find(p.request.model_id);
      p.ctx.epoch = model_it->second.epoch;
      p.ctx.enqueued = clock_->Now();
      // Elasticity's idle signal: the last time anyone asked for this model.
      model_it->second.last_activity = p.ctx.enqueued;
      // Key-affinity routing: repeats of an in-flight dedupable key pin to
      // its shard (where the per-batch dedupe or the shared cache merges
      // them); fresh keys — and non-dedupable requests — go least-loaded.
      int shard_idx;
      if (p.dedupable) {
        auto [key_it, inserted] = active_keys_.try_emplace(p.key, 0, 0u);
        if (inserted) key_it->second.first = LeastLoadedLocked(model_it->second);
        ++key_it->second.second;
        p.has_key_ref = true;
        shard_idx = key_it->second.first;
      } else {
        shard_idx = LeastLoadedLocked(model_it->second);
      }
      ++stats_.requests;
      ++queued_total_;
      queued_bytes_ += cost;
      stats_.peak_queue_depth =
          std::max(stats_.peak_queue_depth,
                   static_cast<uint64_t>(queued_total_));
      shards_[shard_idx]->queues[p.priority_class()].push_back(std::move(p));
      shards_[shard_idx]->cv.notify_one();
    }
    // Eviction is a queue-removal path that bypasses the scheduler rounds:
    // if this arrival shed queued work and was then refused itself, the
    // queues may have just become drained without any scheduler ever
    // waking, so a blocked Drain() must re-check its predicate here.
    if (!victims.empty()) drained_cv_.notify_all();
  }
  for (Pending& victim : victims) {
    DeliverError(&victim,
                 std::make_exception_ptr(ServiceOverloadError(
                     "shed by a higher-priority arrival (admission control)")));
  }
  if (reject) {
    Reject(&p, "ExplainService queue is full (admission control)");
  }
}

ExplanationResult ExplainService::Explain(ExplainRequest request) {
  return Submit(std::move(request)).get();
}

void ExplainService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [&] {
    if (queued_total_ != 0) return false;
    for (const auto& shard : shards_) {
      if (QueuedLocked(*shard) != 0 || shard->in_flight != 0) return false;
    }
    return true;
  });
}

void ExplainService::Shutdown() {
  // Claim the thread handles under the lock so concurrent Shutdown calls
  // (say, an explicit call racing the destructor) cannot both join them; the
  // caller that loses the claim must still wait for the schedulers to exit,
  // otherwise a racing destructor could free the members under them.
  std::vector<std::thread> claimed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    for (auto& shard : shards_) {
      if (shard->scheduler.joinable()) {
        claimed.push_back(std::move(shard->scheduler));
      }
    }
    if (controller_.joinable()) claimed.push_back(std::move(controller_));
  }
  for (auto& shard : shards_) shard->cv.notify_all();
  controller_cv_.notify_all();
  if (!claimed.empty()) {
    for (auto& t : claimed) t.join();
    // The schedulers are gone, so nothing writes the cache tiers anymore:
    // spill the tier-2 buffer while we can still report nothing (the
    // destructor path would flush too, but here every entry computed this
    // lifetime becomes durable before Shutdown returns).
    if (tier2_ != nullptr) tier2_->Flush();
    // Notify under the lock: a losing racer may be the destructor, and a
    // spurious wakeup could let it observe the predicate and free the
    // condition variable before an unlocked notify_all touched it.
    std::lock_guard<std::mutex> lock(mu_);
    schedulers_exited_ = static_cast<int>(shards_.size());
    drained_cv_.notify_all();
  } else {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [&] {
      return schedulers_exited_ == static_cast<int>(shards_.size());
    });
  }
}

ExplainService::Stats ExplainService::stats() const {
  Stats snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = stats_;
  }
  // The cache tiers keep their own counters under their own locks; fold them
  // in here so callers see one coherent Stats. Max-merge for evictions: the
  // scheduler rounds also publish that counter into stats_.evictions, and
  // the two snapshots race.
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    snapshot.evictions = std::max(snapshot.evictions, cache_.evictions());
    snapshot.cache_expired = cache_.expired();
  }
  if (tier2_ != nullptr) snapshot.cache_expired += tier2_->expired();
  return snapshot;
}

void ExplainService::SyncDirtyReplicas(int shard_idx) {
  std::vector<std::pair<models::Model*, models::Model*>> pairs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, entry] : models_) {
      for (Replica& r : entry.replicas) {
        if (r.shard == shard_idx && r.clone != nullptr && r.dirty) {
          r.dirty = 0;
          pairs.emplace_back(entry.source, r.clone.get());
        }
      }
    }
  }
  // Outside the lock: the copy is O(weights). InvalidateModel's contract
  // makes the source weights stable here (traffic is quiesced during the
  // external update), and a second invalidation simply re-marks the flag.
  for (auto& [source, clone] : pairs) {
    const io::Status status = io::CopyModelWeights(source, clone);
    DCAM_CHECK(status.ok())
        << "replica weight re-sync failed: " << status.message();
  }
}

uint64_t ExplainService::CacheNowNs() const {
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          clock_->Now().time_since_epoch())
          .count());
  // 0 tells the LRU to skip the expiry check; a clock reading exactly its
  // epoch must still expire entries, so it reports 1ns instead.
  return now == 0 ? 1 : now;
}

uint64_t ExplainService::CacheExpiryNs() const {
  if (config_.cache.ttl.count() <= 0) return 0;
  return CacheNowNs() + static_cast<uint64_t>(config_.cache.ttl.count());
}

size_t ExplainService::EntryBytes(const CacheEntry& entry) {
  // The two tensors dominate; the struct itself stands in for the map/list
  // node overhead.
  return static_cast<size_t>(entry.result.map.size()) * sizeof(float) +
         static_cast<size_t>(entry.series.size()) * sizeof(float) +
         sizeof(CacheEntry);
}

bool ExplainService::ProbeTier2(const Pending& p, ExplanationResult* out) {
  if (tier2_ == nullptr) return false;
  if (!tier2_->Get(p.key, p.request.series, out)) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cache_tier2_hits;
  }
  // Promote into tier 1: repeats of a warm-restart key hit at memory
  // latency from the second probe on.
  CacheEntry entry{*out, p.request.series.Clone()};
  const size_t bytes = EntryBytes(entry);
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.Put(p.key, std::move(entry), bytes, CacheExpiryNs());
  return true;
}

void ExplainService::ControllerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    controller_cv_.wait_for(lock, config_.elasticity_tick,
                            [&] { return stop_; });
    if (stop_) break;
    EvaluateElasticityLocked(&lock);
  }
}

void ExplainService::TickElasticity() {
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) return;
  EvaluateElasticityLocked(&lock);
}

bool ExplainService::ScaleUpPressureLocked(
    const std::string& id, const ModelEntry& entry,
    MonotonicClock::time_point now) const {
  for (const Replica& r : entry.replicas) {
    for (const auto& queue : shards_[r.shard]->queues) {
      for (const Pending& p : queue) {
        if (p.request.model_id == id &&
            now - p.ctx.enqueued >= entry.elastic.scale_up_queue_delay) {
          return true;
        }
      }
    }
  }
  return false;
}

void ExplainService::EvaluateElasticityLocked(
    std::unique_lock<std::mutex>* lock) {
  // Snapshot the elastic ids first: scale-up releases the lock around the
  // weight copy, and a concurrent RegisterModel may rehash models_ under an
  // iterator held across that gap.
  std::vector<std::string> ids;
  ids.reserve(models_.size());
  for (const auto& [id, entry] : models_) {
    if (entry.elastic.enabled()) ids.push_back(id);
  }
  for (const std::string& id : ids) {
    auto it = models_.find(id);
    if (it == models_.end()) continue;
    ModelEntry& entry = it->second;
    const auto now = clock_->Now();
    if (entry.scaling) continue;  // a clone is being built for this model
    if (now - entry.last_scale < entry.elastic.cooldown) continue;
    const int group = static_cast<int>(entry.replicas.size());

    // Scale up: a queued request for the model has aged past the delay
    // bound, so the current group is not absorbing the load. The clone is a
    // full weight copy — built outside the lock, like RegisterModel's, so a
    // large model never stalls Submit; `scaling` keeps concurrent
    // evaluations (background tick vs TickElasticity) off the model, and
    // the epoch re-check on attach catches an InvalidateModel that landed
    // mid-copy (the new replica then re-syncs before serving).
    if (group < entry.elastic.max_replicas &&
        ScaleUpPressureLocked(id, entry, now)) {
      int target = -1;
      size_t best_load = static_cast<size_t>(-1);
      for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
        if (entry.InGroup(s)) continue;
        const size_t load = QueuedLocked(*shards_[s]) +
                            static_cast<size_t>(shards_[s]->in_flight);
        if (load < best_load) {
          target = s;
          best_load = load;
        }
      }
      if (target < 0) continue;  // group already spans every shard
      entry.scaling = true;
      const uint64_t epoch0 = entry.epoch;
      models::Model* source = entry.source;
      lock->unlock();
      std::unique_ptr<models::Model> clone = source->Clone();
      lock->lock();
      auto re = models_.find(id);
      if (re == models_.end()) continue;
      ModelEntry& fresh = re->second;
      Replica r;
      r.shard = target;
      r.clone = std::move(clone);
      r.dirty = fresh.epoch != epoch0 ? 1 : 0;
      fresh.replicas.push_back(std::move(r));
      fresh.scaling = false;
      fresh.last_scale = clock_->Now();
      ++stats_.scale_up_events;
      shards_[target]->cv.notify_one();
      continue;
    }

    // Scale down: nothing has been submitted for the model in
    // scale_down_idle. The candidate is always the group's youngest replica
    // (replicas[0] serves the caller's model and is never retired). First
    // its queued requests — stragglers admitted before the idle window —
    // are re-routed to surviving replicas with their dedupe pins updated;
    // then the clone is parked on its shard's `retired` list for the owning
    // scheduler to free, but only once that shard has nothing in flight and
    // no in-flight dedupe key for the model is pinned to it (otherwise the
    // model stays at its current size until a later tick).
    if (group > std::max(1, entry.elastic.min_replicas) &&
        now - entry.last_activity >= entry.elastic.scale_down_idle) {
      Replica& cand = entry.replicas.back();
      const int s = cand.shard;
      Shard& from = *shards_[s];
      for (int cls = 0; cls < kNumPriorities; ++cls) {
        auto& queue = from.queues[cls];
        for (auto qit = queue.begin(); qit != queue.end();) {
          if (qit->request.model_id != id) {
            ++qit;
            continue;
          }
          Pending p = std::move(*qit);
          qit = queue.erase(qit);
          // Duplicates of one in-flight key must land on one shard: a key
          // already re-pinned off `s` (by an earlier duplicate in this
          // sweep) keeps that pin; otherwise least-loaded survivor.
          auto kit =
              p.has_key_ref ? active_keys_.find(p.key) : active_keys_.end();
          int target;
          if (kit != active_keys_.end() && kit->second.first != s) {
            target = kit->second.first;
          } else {
            target = entry.replicas.front().shard;
            size_t least = static_cast<size_t>(-1);
            for (const Replica& r : entry.replicas) {
              if (r.shard == s) continue;
              const size_t load =
                  QueuedLocked(*shards_[r.shard]) +
                  static_cast<size_t>(shards_[r.shard]->in_flight);
              if (load < least) {
                target = r.shard;
                least = load;
              }
            }
            if (kit != active_keys_.end()) kit->second.first = target;
          }
          shards_[target]->queues[cls].push_back(std::move(p));
          shards_[target]->cv.notify_one();
        }
      }
      bool busy = from.in_flight != 0;
      if (!busy) {
        for (const auto& [key, pin] : active_keys_) {
          if (pin.first == s && key.model_id == id) {
            busy = true;
            break;
          }
        }
      }
      if (busy) continue;
      from.retired.push_back(std::move(cand.clone));
      entry.replicas.pop_back();
      entry.last_scale = now;
      ++stats_.scale_down_events;
      from.cv.notify_one();  // wake the shard to collect the retired clone
    }
  }
}

void ExplainService::SchedulerLoop(int shard_idx) {
  // Shard placement on the shared worker set. A shard scheduler is a work
  // source, not a floating compute thread: the engine passes it drives fan
  // out as morsels on the one global pool. Hinting every call it publishes
  // at a stable worker id keeps a shard's batches on the same workers round
  // after round, and — when a core set is configured (DCAM_CPU_SET) — the
  // scheduler also pins itself to a core of that set, so the cube/CAM/msum
  // scratch its engine reuses stays resident on the cores that touch it
  // instead of migrating with the scheduler.
  const std::vector<int>& cores = ConfiguredCoreSet();
  if (!cores.empty()) {
    PinCurrentThreadToCpu(cores[static_cast<size_t>(shard_idx) %
                                cores.size()]);
  }
  SetParallelAffinityHint(shard_idx % GlobalPool().num_threads());
  Shard& shard = *shards_[shard_idx];
  for (;;) {
    std::vector<Pending> batch;
    std::vector<std::unique_ptr<models::Model>> retired;
    bool exit = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      shard.cv.wait(lock, [&] {
        return stop_ || QueuedLocked(shard) != 0 || !shard.retired.empty();
      });
      // Claim any clones scale-down parked on this shard: they are freed on
      // this thread (below, outside the lock) because the shard's engine and
      // worker maps key thread-local state by the clone's raw address.
      retired.swap(shard.retired);
      if (QueuedLocked(shard) == 0) {
        exit = stop_;
      }
      // Drain priority-ordered: every queued high request ahead of every
      // normal, normal ahead of batch, FIFO within a class. Everything
      // downstream — deadline expiry, cache probes, ComputeMany chunking,
      // fulfilment — walks the batch in this order, so a high-priority
      // request is also *completed* first. Each round takes at most
      // max_coalesce requests (the ComputeMany chunk bound): a bounded
      // round means a high-priority request arriving mid-round waits for
      // one round, not behind an unboundedly large mixed batch, and
      // deadline-expiry verdicts stay close to compute start.
      const size_t round_limit = static_cast<size_t>(config_.max_coalesce);
      for (auto& queue : shard.queues) {
        const size_t take =
            std::min(queue.size(), round_limit - batch.size());
        for (size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(queue[i]));
        }
        queue.erase(queue.begin(), queue.begin() + static_cast<long>(take));
        if (batch.size() >= round_limit) break;
      }
      shard.in_flight = batch.size();
      queued_total_ -= batch.size();
      const auto now = clock_->Now();
      for (const Pending& p : batch) {
        queued_bytes_ -= SeriesBytes(p.request.series);
        const uint64_t delay = ElapsedNs(p.ctx.enqueued, now);
        stats_.queue_delay_ns += delay;
        stats_.queue_delay_ns_by_priority[p.priority_class()] += delay;
        ++stats_.drained_by_priority[p.priority_class()];
      }
    }
    if (!retired.empty()) {
      // Purge the per-clone scheduler state before the clone is freed: both
      // maps key by raw Model*, and a later scale-up could reuse the address.
      // Safe without the lock — `workers` and `engines` are touched only by
      // this thread.
      for (const std::unique_ptr<models::Model>& m : retired) {
        shard.engines.erase(m.get());
        for (auto it = shard.workers.begin(); it != shard.workers.end();) {
          if (std::get<2>(it->first) == m.get()) {
            it = shard.workers.erase(it);
          } else {
            ++it;
          }
        }
      }
      retired.clear();
    }
    if (exit) return;
    if (batch.empty()) continue;
    SyncDirtyReplicas(shard_idx);
    // Resolve this shard's current replica of every registered model.
    // Requests are only routed to shards inside their model's group, and
    // scale-down cannot retire a replica while this shard has the batch in
    // flight (retirement waits for in_flight == 0 under mu_), so the replica
    // a drained request needs always resolves.
    std::unordered_map<std::string, models::Model*> models;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, entry] : models_) {
        models::Model* m = entry.ModelForShard(shard_idx);
        if (m != nullptr) models[id] = m;
      }
    }
    Process(&shard, std::move(batch), models);
    uint64_t evictions;
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      evictions = cache_.evictions();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      shard.in_flight = 0;
      // Max, not overwrite: shards snapshot the cache counter under a
      // different lock, so a stale snapshot must never roll the published
      // (monotonic) value backwards.
      stats_.evictions = std::max(stats_.evictions, evictions);
    }
    drained_cv_.notify_all();
  }
}

Explainer* ExplainService::ExplainerFor(Shard* shard,
                                        const std::string& method,
                                        const std::string& backend,
                                        models::Model* model) {
  auto key = std::make_tuple(method, backend, model);
  auto it = shard->workers.find(key);
  if (it == shard->workers.end()) {
    it = shard->workers.emplace(std::move(key), MakeExplainer(method, backend))
             .first;
  }
  return it->second.get();
}

void ExplainService::Fulfill(Pending* p, const ExplanationResult& result) {
  {
    // Count before waking the client: a caller returning from future.get()
    // must observe its own request in stats().completed. The in-flight key
    // table drops this request's reference under the same lock.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed;
    if (p->has_key_ref) DropKeyRefLocked(*p);
  }
  // Every client gets a private copy of the map: Tensor copies share
  // storage, so handing the scheduler's buffer out would let one client's
  // in-place edit poison the cache and every deduped sibling.
  ExplanationResult owned = result;
  if (!owned.map.empty()) owned.map = owned.map.Clone();
  Deliver(p, std::move(owned));
}

void ExplainService::ProcessDcamGroup(Shard* shard, models::Model* model,
                                      std::vector<Pending*>* group,
                                      const CompleteFn& complete,
                                      const GroupTickFn& on_tick) {
  auto* gap = dynamic_cast<models::GapModel*>(model);
  DCAM_CHECK(gap != nullptr)
      << "\"dcam\" requests need a GAP-headed d-architecture model, got "
      << model->name();
  auto engine_it = shard->engines.find(model);
  if (engine_it == shard->engines.end()) {
    core::DcamEngine::Config cfg;
    cfg.batch = config_.engine_batch;
    engine_it =
        shard->engines
            .emplace(model, std::make_unique<core::DcamEngine>(gap, cfg))
            .first;
  }
  core::DcamEngine* engine = engine_it->second.get();

  // Chunks bound the number of live (D, D, n) accumulators; within a chunk
  // the engine packs permutation batches across the requests. Each request's
  // permutations are drawn in the same per-request order whatever the tick
  // cadence, so the terminal maps are bit-identical to the blocking path —
  // ticks only add observation points.
  const size_t n = group->size();
  for (size_t begin = 0; begin < n;
       begin += static_cast<size_t>(config_.max_coalesce)) {
    const size_t end =
        std::min(n, begin + static_cast<size_t>(config_.max_coalesce));
    std::vector<Tensor> series;
    std::vector<int> classes;
    std::vector<core::DcamOptions> options;
    core::DcamTickConfig ticks;
    ticks.tick_every = config_.stream_tick_k;
    ticks.emit_partial.assign(end - begin, 0);
    series.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      Pending* p = (*group)[i];
      series.push_back(p->request.series);
      classes.push_back(p->request.class_idx);
      core::DcamOptions opts = p->request.options.dcam;
      opts.keep_mbar = false;  // match the "dcam" adapter exactly
      options.push_back(opts);
      ticks.emit_partial[i - begin] = p->wants_ticks ? 1 : 0;
    }
    const std::vector<core::DcamResult> results = engine->ComputeMany(
        series, classes, options, ticks,
        [&](const core::DcamTick& tick) {
          return on_tick((*group)[begin + tick.index], tick);
        });
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.coalesced_batches;
      stats_.coalesced_requests += end - begin;
      stats_.max_coalesce = std::max(stats_.max_coalesce,
                                     static_cast<uint64_t>(end - begin));
    }
    for (size_t i = begin; i < end; ++i) {
      Pending* p = (*group)[i];
      const core::DcamResult& r = results[i - begin];
      // A cancelled pass produced no terminal: every waiter already got its
      // CancelledError / DeadlineExceededError at the stopping boundary.
      if (r.cancelled) continue;
      ExplanationResult out;
      out.map = r.dcam;
      out.k = r.k;
      out.num_correct = r.num_correct;
      out.convergence = r.convergence;
      complete(p, out);
    }
  }
}

void ExplainService::Process(
    Shard* shard, std::vector<Pending> batch,
    const std::unordered_map<std::string, models::Model*>& models) {
  // 1. Cache probe, and dedupe of identical in-flight misses: the first
  // occurrence of a key computes, the rest wait for its result. Both paths
  // verify actual series contents — the key's 64-bit hash alone must never
  // decide what a client receives. The cache is shared across shards, so a
  // result computed by any replica answers repeats routed here.
  //
  // Before either: cancellation and deadline expiry at dequeue. A request
  // cancelled or expired while it sat queued fails with CancelledError /
  // DeadlineExceededError — nobody is waiting, so neither a cache probe nor
  // compute is spent on it (a cancelled "dcam" request's whole permutation
  // budget is reclaimed). Both checks are per-request and run before the
  // dedupe map is built, so a dead leader simply cedes leadership to its
  // next live duplicate.
  const auto drained_at = clock_->Now();
  std::vector<Pending*> misses;
  std::unordered_map<CacheKey, std::vector<Pending*>, CacheKeyHash> dupes;
  for (Pending& p : batch) {
    if (p.ticket->cancel_requested.load()) {
      if (p.request.method == "dcam") {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.reclaimed_k +=
            static_cast<uint64_t>(p.request.options.dcam.k);
      }
      CancelInFlight(&p, "at dequeue");
      continue;
    }
    if (p.ctx.has_deadline() && drained_at > p.ctx.deadline) {
      Expire(&p, "while queued");
      continue;
    }
    if (p.cacheable) {
      bool hit = false;
      ExplanationResult cached;
      {
        std::lock_guard<std::mutex> lock(cache_mu_);
        const CacheEntry* entry = cache_.Get(p.key, CacheNowNs());
        if (entry != nullptr && SameSeries(entry->series, p.request.series)) {
          // A shallow copy pins the result's storage past the lock (Tensor
          // copies share storage); Fulfill clones per client as usual.
          cached = entry->result;
          hit = true;
        }
      }
      if (hit) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.cache_hits;
        }
        Fulfill(&p, cached);
        continue;
      }
      // Tier-1 miss: probe the persistent tier (checksum- and stored-series-
      // verified; a hit is promoted into tier 1) before spending compute.
      if (ProbeTier2(p, &cached)) {
        Fulfill(&p, cached);
        continue;
      }
    }
    if (p.dedupable) {
      auto [it, inserted] = dupes.try_emplace(p.key);
      if (inserted ||
          SameSeries(it->second.front()->request.series, p.request.series)) {
        it->second.push_back(&p);
        if (!inserted) {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.deduped;
          continue;  // a follower; the leader computes
        }
      }
      // else: a hash-collision twin with different contents — computes on
      // its own below, outside the waiter list.
    }
    misses.push_back(&p);
  }

  // Tick fan-out wiring: a computation emits partial maps exactly when at
  // least one of its waiters is a streaming sink (leader or follower — a
  // deduped streaming follower turns its leader's ticks on).
  for (Pending* p : misses) p->wants_ticks = p->streaming;
  for (auto& [key, waiters] : dupes) {
    for (Pending* w : waiters) {
      if (w->streaming) waiters.front()->wants_ticks = true;
    }
  }

  // Per-round tick handler: the engine checkpoints every live "dcam" request
  // at each stream_tick_k boundary; this fans the checkpoint out to the
  // request's whole waiter list. Order per waiter matters — cancel beats the
  // tick (a cancelling client wants no more data), but deadline expiry
  // delivers the boundary's tick first, then the terminal (the anytime
  // contract: an expiring client keeps the best map computed in its budget).
  // When no waiter is left alive the engine pass stops and the undrawn
  // permutations are reclaimed.
  const GroupTickFn on_tick = [&](Pending* leader,
                                  const core::DcamTick& tick) {
    auto it = dupes.find(leader->key);
    const bool leads_list = it != dupes.end() && !it->second.empty() &&
                            it->second.front() == leader;
    size_t alive = 0;
    auto visit = [&](Pending* w) {
      if (w->done) return;
      if (w->ticket->cancel_requested.load()) {
        CancelInFlight(w, "at a tick boundary");
        return;
      }
      if (w->streaming && tick.map != nullptr) DeliverTick(w, tick);
      if (w->ctx.has_deadline() && clock_->Now() > w->ctx.deadline) {
        Expire(w, "at a tick boundary");
        return;
      }
      ++alive;
    };
    if (leads_list) {
      for (Pending* w : it->second) visit(w);
    } else {
      visit(leader);
    }
    if (alive == 0) {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.reclaimed_k +=
          static_cast<uint64_t>(tick.k_target - tick.k_done);
      return core::TickAction::kCancel;
    }
    return core::TickAction::kContinue;
  };

  // 2. Coalesce "dcam" misses per model into shared engine passes; serve
  // every other method through its per-(method, model) registry explainer.
  // Leaders with followers also record their result locally — the LRU alone
  // is not a safe hand-off, since a small cache may evict a leader's entry
  // before its followers are reached.
  std::unordered_map<CacheKey, ExplanationResult, CacheKeyHash> computed;
  const CompleteFn complete = [&](Pending* p, const ExplanationResult& r) {
    if (p->cacheable) {
      // Cache only results whose model epoch is still current: a request
      // raced by InvalidateModel computed against ambiguous weights and
      // must not outlive the invalidation. The series is cloned into the
      // entry — the client may legitimately reuse its buffer once the
      // request completes, and the stored bytes back the SameSeries
      // collision guard.
      bool current = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = models_.find(p->request.model_id);
        current = it != models_.end() && it->second.epoch == p->ctx.epoch;
      }
      if (current) {
        CacheEntry entry{r, p->request.series.Clone()};
        // The cache stores the canonical (non-streamed) form: hits must look
        // the same whichever surface computed the entry.
        entry.result.convergence = 0.0;
        // Write-through to the persistent tier under the same epoch guard
        // (tier 2 is internally synchronized; no service lock is held).
        if (tier2_ != nullptr) {
          tier2_->Put(p->key, entry.series, entry.result);
        }
        const size_t bytes = EntryBytes(entry);
        std::lock_guard<std::mutex> lock(cache_mu_);
        cache_.Put(p->key, std::move(entry), bytes, CacheExpiryNs());
      }
    }
    auto it = dupes.find(p->key);
    // Only the waiter list's own leader feeds the followers — a
    // hash-collision twin shares the key but not the series.
    if (it != dupes.end() && it->second.size() > 1 &&
        it->second.front() == p) {
      computed.emplace(p->key, r);
    }
    // A leader cancelled/expired mid-stream got its terminal at the tick
    // boundary, but its result still reaches the cache and its followers
    // (they may be alive) — only the delivery is skipped.
    if (!p->done) Fulfill(p, r);
  };
  std::vector<std::pair<models::Model*, std::vector<Pending*>>> dcam_groups;
  std::vector<Pending*> singles;
  for (Pending* p : misses) {
    models::Model* model = models.at(p->request.model_id);
    DCAM_CHECK(model != nullptr);
    if (p->request.method == "dcam") {
      auto it = std::find_if(dcam_groups.begin(), dcam_groups.end(),
                             [&](const auto& g) { return g.first == model; });
      if (it == dcam_groups.end()) {
        dcam_groups.push_back({model, {p}});
      } else {
        it->second.push_back(p);
      }
    } else {
      singles.push_back(p);
    }
  }
  for (auto& [model, group] : dcam_groups) {
    ProcessDcamGroup(shard, model, &group, complete, on_tick);
  }
  for (Pending* p : singles) {
    models::Model* model = models.at(p->request.model_id);
    const ExplanationResult result =
        ExplainerFor(shard, p->request.method, p->ctx.backend, model)
            ->Explain(model, p->request.series, p->request.class_idx,
                      p->request.options);
    complete(p, result);
  }

  // 3. Fulfill the deduped followers from their leaders' results. A missing
  // computed entry means the whole waiter list died mid-stream (the engine
  // pass was cancelled before producing a terminal) — every waiter already
  // received its terminal error at the tick boundary.
  for (auto& [key, waiters] : dupes) {
    if (waiters.size() <= 1) continue;
    auto it = computed.find(key);
    if (it == computed.end()) continue;
    for (size_t i = 1; i < waiters.size(); ++i) {
      if (!waiters[i]->done) Fulfill(waiters[i], it->second);
    }
  }
}

}  // namespace explain
}  // namespace dcam
