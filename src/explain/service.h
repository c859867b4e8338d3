// Concurrent explanation service: sharded model replicas, cross-request
// batching, result caching, and bounded admission.
//
// The ROADMAP's serving scenario: many clients ask for explanations of the
// same few deployed models. Two structural facts make a naive
// thread-per-request design wrong here:
//
//   * a Model is stateful across Forward/Backward (cached activations), so
//     requests against one model instance must serialize anyway;
//   * dCAM's cost is k cube forwards, and core::DcamEngine::ComputeMany
//     already packs permutation batches across *series* — so the cheapest
//     way to serve concurrent dCAM requests is to merge them into one
//     engine pass, amortizing partially-filled forward batches across
//     clients (the task-queue/worker shape of the SIGMOD-contest engines).
//
// One scheduler thread per model instance is therefore the unit of
// parallelism: ExplainService runs `Config::replicas` scheduler shards, and
// each registered model is materialized on the shards of its replica group —
// shard 0 serves the caller's model, every other shard a Model::Clone()
// with private weight storage — so dCAM throughput scales with cores beyond
// one engine's batch width:
//
//   clients --Submit*() -> Ticket--> [validate (throws std::invalid_argument)]
//                |                   [admission: depth/byte bounds ->
//                |                    reject/degrade-k]
//                v  route: same key -> same shard; else least-loaded in group
//        shard 0 queue        shard 1 queue        ...   (one thread each)
//                |                  |        <- Ticket::Cancel dequeues here
//                v                  v           (immediate CancelledError)
//         [cache probe]      [cache probe]        (one cache, shared)
//                |  miss            |  miss
//                v                  v
//         coalesce "dcam" per model -> ComputeMany; others 1-at-a-time
//                |
//                |  every `stream_tick_k` permutations, per request:
//                |    - streaming sinks get Completion{kTick: partial map,
//                |      convergence, k_done} on their CompletionQueue
//                |    - Ticket::Cancel / deadline expiry observed -> terminal
//                |      CancelledError / DeadlineExceededError at the tick
//                |      boundary; when no waiter is left the engine stops and
//                |      the unspent permutation budget is reclaimed
//                v
//         terminal completion -> promise | callback | cq  (full-k results
//                                 only; the only ones the cache stores)
//
// The result cache and the in-flight key table are global, so a result
// computed by one shard answers repeats routed anywhere; identical in-flight
// requests are routed to the same shard, where the per-batch dedupe merges
// them. Replicas hold bit-exact weight copies (io/serialize.h round-trip),
// so routing is invisible: a service result is bit-identical to calling the
// registry Explainer directly, no matter which replica served it (enforced
// by explain_service_test and service_replica_test).
//
// The cache is two-tiered. Tier 1 is the in-memory LRU (lru_cache.h), now
// byte-weighted (a cached entry owns its map and the series stored for
// collision verification) with lazy TTL expiry. Tier 2, enabled by
// CacheConfig::persistent_dir, spills warm entries to mmap'd on-disk
// segments (cache_tier.h): a miss probes tier 1, then tier 2 (checksum +
// stored-series verified; a hit is promoted into tier 1), then computes —
// so a restarted service over the same directory answers repeat traffic at
// cache-hit latency from its first request.
//
// Replica groups are elastic. A model registered with an enabled
// ElasticityConfig starts at its initial group size and a controller (a
// lightweight tick thread; TickElasticity() runs one evaluation on demand)
// grows the group toward max_replicas when the model's queued requests age
// past scale_up_queue_delay, and shrinks it toward min_replicas after
// scale_down_idle without a submission. Scale-up builds the Model::Clone()
// outside the lock and re-checks the InvalidateModel epoch before attaching
// (a mid-scale invalidation marks the new replica dirty, so it re-syncs
// before serving). Scale-down re-routes the retiring shard's queued
// requests for the model (re-pinning their dedupe keys) and only retires
// when the shard has nothing in flight and no in-flight dedupe key for the
// model is pinned to it; the retired clone is freed on its own scheduler
// thread, which also purges the engine/worker state keyed by the clone's
// address. Results stay bit-identical to a fixed-replica service — scaling
// only changes where a request computes, never what it computes.
//
// Admission control bounds the queue: past `max_queue_depth`/`max_queue_bytes`
// a request is rejected (its future throws ServiceOverloadError) or — for
// "dcam" requests under Overload::kDegradeK — admitted with k clamped down to
// `min_degraded_k`, trading explanation resolution for liveness the way the
// paper's Figure 10 trades k for runtime. Queue-delay and shed counters are
// exposed via stats().
//
// Requests carry a Priority (kHigh / kNormal / kBatch) and an optional
// absolute deadline. Each shard queue is priority-ordered (strict classes,
// FIFO within a class), admission control sheds lowest-priority-first — an
// over-bound arrival evicts queued strictly-lower-priority requests (newest
// first) before shedding itself — and a request whose deadline has passed by
// the time a scheduler dequeues it fails with DeadlineExceededError instead
// of burning compute nobody is waiting for. A deduped duplicate rides its
// leader: when a high-priority duplicate drains in the same scheduler round
// as a queued batch-priority original, the shared computation runs at the
// front of the batch (dedupe escalates rather than inverts priority).
// Duplicates split across rounds don't share a batch — the later copy is
// served by the result cache, or recomputes when caching is disabled.
//
// Four client surfaces share one request lifecycle (validation, admission,
// routing, priorities, deadlines, cancellation, stats are identical across
// them), and every one returns the same Ticket handle:
//   * Submit(request)            -> Ticket::get()  (one blocked thread each)
//   * SubmitAsync(request, cb)   -> callback on a scheduler thread
//   * SubmitAsync(request, cq, tag) -> tagged terminal Completion on a
//     CompletionQueue; one client thread drives N in-flight requests.
//   * SubmitStreaming(request, cq, tag) -> zero or more kTick Completions
//     (partial map + convergence score after each permutation batch of the
//     anytime k-loop), then exactly one terminal Completion.
// The Ticket is the cancel handle: Cancel() fails a still-queued request
// immediately with CancelledError, and flags a running one to stop at its
// next tick boundary — the scheduler reclaims the unspent permutation
// budget (stats().reclaimed_k) once no waiter is left on the computation.
//
// Determinism: every request carries its own options (and hence its own
// seed), which ComputeMany applies per instance, so batching, caching, and
// replica routing are invisible to clients. The only exception is explicit:
// a degraded request computes with the smaller k (and is cached under the
// degraded digest).
//
// Worker-set placement: shard schedulers are *work sources* on the one
// global morsel pool (util/parallel.h), not private compute threads — the
// engine passes a shard drives fan out as morsels that any pool worker can
// claim. Each scheduler installs a stable affinity hint (shard index modulo
// pool width), so equally-loaded workers prefer that shard's tasks and a
// shard's k-loop keeps landing on the same workers; when DCAM_CPU_SET pins
// the pool to a core set, the scheduler additionally pins itself to a core
// of that set, keeping its engine's persistent scratch resident with the
// workers that touch it.

#ifndef DCAM_EXPLAIN_SERVICE_H_
#define DCAM_EXPLAIN_SERVICE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "explain/cache_tier.h"
#include "explain/completion_queue.h"
#include "explain/explainer.h"
#include "explain/lru_cache.h"
#include "models/model.h"
#include "tensor/tensor.h"
#include "util/clock.h"

namespace dcam {
namespace core {
class DcamEngine;
struct DcamTick;
enum class TickAction;
}  // namespace core

namespace explain {

/// Scheduling class of a request. Strict priority: within one shard, every
/// queued kHigh request is drained ahead of every kNormal, and kNormal ahead
/// of kBatch; arrival order is preserved within a class. Admission control
/// sheds lowest-priority-first. Priority never changes the computed bits —
/// only when (and under overload, whether) the request is served.
enum class Priority : int { kHigh = 0, kNormal = 1, kBatch = 2 };

inline constexpr int kNumPriorities = 3;

/// One explanation request. `series` shares storage with the caller's
/// tensor; it must not be mutated until the request completes.
struct ExplainRequest {
  std::string model_id;  // as passed to RegisterModel
  std::string method;    // registry name, e.g. "dcam"
  /// Requested kernel backend ("portable", "avx2", or an externally
  /// registered name); empty means "portable". Submission resolves it
  /// against the (method, backend) registry: a known backend with no
  /// specialized registration for this method falls back to "portable"
  /// (same computation, same cache key), while a name that is not a known
  /// backend at all makes ValidateRequest throw std::invalid_argument on
  /// the submitting thread.
  std::string backend;
  Tensor series;  // (D, n)
  int class_idx = 0;
  ExplainOptions options;
  Priority priority = Priority::kNormal;
  /// Absolute monotonic deadline; the default (epoch) means none. A request
  /// still queued when its deadline passes fails with DeadlineExceededError
  /// at dequeue; a "dcam" request already computing observes expiry at its
  /// next tick boundary — a streaming sink receives that boundary's tick
  /// first, then the DeadlineExceededError terminal. Measured against
  /// Config::clock, so build deadlines from that clock's Now().
  MonotonicClock::time_point deadline{};
};

/// Base of every load-/lifecycle-dependent failure a submitted request can
/// deliver through its sink; catch this to handle all of them uniformly.
/// (Caller errors — bad names, malformed shapes — are std::invalid_argument
/// from ValidateRequest instead, thrown synchronously at submit.)
struct ServiceError : std::runtime_error {
  explicit ServiceError(const std::string& what) : std::runtime_error(what) {}
};

/// Delivered for a request refused by admission control.
struct ServiceOverloadError : ServiceError {
  explicit ServiceOverloadError(const std::string& what)
      : ServiceError(what) {}
};

/// Delivered for a request whose deadline passed while it was queued, or —
/// for in-flight "dcam" requests — at a tick boundary mid-compute.
struct DeadlineExceededError : ServiceError {
  explicit DeadlineExceededError(const std::string& what)
      : ServiceError(what) {}
};

/// Delivered for a request cancelled via Ticket::Cancel before its terminal
/// result was produced.
struct CancelledError : ServiceError {
  explicit CancelledError(const std::string& what) : ServiceError(what) {}
};

/// Outcome handed to a SubmitAsync callback: exactly one of result / error
/// is meaningful. `error` holds what the future-based Submit would have
/// thrown (ServiceOverloadError, DeadlineExceededError).
struct AsyncResult {
  ExplanationResult result;
  std::exception_ptr error;

  bool ok() const { return error == nullptr; }
};

using ExplainCallback = std::function<void(AsyncResult)>;

class ExplainService;

namespace internal {

/// Shared cancel/lifecycle state between a Ticket and the service. The
/// atomics are the cross-thread signal; arbitration (queued vs running vs
/// already terminal) happens under the service mutex in CancelRequest.
struct TicketState {
  std::atomic<bool> cancel_requested{false};
  /// Set just before the request's terminal outcome is handed to its sink.
  std::atomic<bool> terminal{false};
  ExplainService* service = nullptr;  // non-owning; for queued-cancel removal
};

}  // namespace internal

/// The one client handle every submit surface returns: it identifies the
/// request across its whole lifecycle and carries the cancel token (the
/// CancelHandle role), the deadline the request was submitted with, and —
/// for the blocking Submit path — the result future. Move-only.
///
/// Cancel() is best-effort-exact: a request still queued fails immediately
/// with CancelledError through its sink; a request already computing is
/// stopped at its next tick boundary (dCAM's per-batch checkpoint). A
/// cancel that races terminal delivery may still see the result — Cancel()
/// returns false once the outcome was already delivered. Tickets must not
/// outlive the service (same non-owning contract as CompletionQueue);
/// Cancel() after every outcome was delivered is safe, because a terminal
/// ticket never touches the service.
class Ticket {
 public:
  Ticket() = default;
  Ticket(Ticket&&) = default;
  Ticket& operator=(Ticket&&) = default;

  /// False for a default-constructed (empty) handle.
  bool valid() const { return state_ != nullptr; }

  /// True once the request's terminal outcome (result or error) has been
  /// handed to its delivery sink.
  bool done() const { return state_ != nullptr && state_->terminal.load(); }

  /// Requests cancellation; returns true when the request had not yet
  /// reached terminal delivery (the cancel was accepted — a queued request
  /// fails now, a running one at its next tick boundary), false when the
  /// outcome was already delivered and the cancel is a no-op.
  bool Cancel();

  /// The deadline the request was submitted with (epoch = none).
  MonotonicClock::time_point deadline() const { return deadline_; }

  /// Blocking-path accessors, valid only for Tickets from Submit() (async
  /// surfaces deliver through their callback/queue sink instead; calling
  /// get() on their Tickets throws std::future_error). get() returns the
  /// result or rethrows the request's ServiceError, exactly like the
  /// std::future Submit used to return.
  ExplanationResult get() { return future_.get(); }
  void wait() const { future_.wait(); }
  template <class Rep, class Period>
  std::future_status wait_for(
      const std::chrono::duration<Rep, Period>& timeout) const {
    return future_.wait_for(timeout);
  }

 private:
  friend class ExplainService;
  std::shared_ptr<internal::TicketState> state_;
  std::future<ExplanationResult> future_;
  MonotonicClock::time_point deadline_{};
};

/// Vocabulary alias: the Ticket *is* the cancel handle.
using CancelHandle = Ticket;

/// Result-cache configuration (both tiers). The cache is shared by every
/// shard, so any replica's result answers repeats service-wide.
struct CacheConfig {
  /// Tier-1 (in-memory LRU) entry bound; 0 disables caching entirely —
  /// including the persistent tier, which only ever receives tier-1 spills.
  size_t capacity_entries = 256;
  /// Tier-1 byte bound over the entries' real weight (attribution map +
  /// stored series); 0 = no byte bound. Both bounds evict LRU-first.
  size_t capacity_bytes = size_t{64} << 20;
  /// Entry lifetime; 0 = entries never expire. Tier 1 measures it on the
  /// service clock (Config::clock) and expires lazily on probe; tier 2
  /// measures it on a wall clock so it holds across restarts — the
  /// staleness bound for models retrained while no service was running.
  std::chrono::nanoseconds ttl{0};
  /// Non-empty enables the persistent tier over this directory (created if
  /// missing): terminal results are written through, warm entries load at
  /// startup, and a tier-2 hit is verified then promoted into tier 1. An
  /// unusable directory logs one warning and runs memory-only.
  std::string persistent_dir;
  /// Re-verify tier-2 record checksums on every probe (bit-rot guard); the
  /// stored-series byte compare always runs regardless.
  bool verify_on_read = true;
  /// Tier-2 spill-buffer size that triggers an automatic segment flush
  /// (also flushed on Shutdown).
  size_t flush_bytes = size_t{1} << 20;
};

/// Admission-control configuration: bounds over requests queued but not yet
/// drained by a scheduler; 0 = unbounded. Depth counts requests, bytes
/// counts their series payloads. Breaching a bound triggers `overload`
/// handling; a hard cap at twice the bound always rejects, so memory stays
/// bounded even under Overload::kDegradeK.
struct AdmissionConfig {
  size_t max_queue_depth = 0;
  size_t max_queue_bytes = 0;
  enum class Overload {
    kReject,    // refuse: the request's future throws ServiceOverloadError
    kDegradeK,  // "dcam" requests are admitted with k -> min_degraded_k;
                // everything else (and the hard cap) rejects
  };
  Overload overload = Overload::kReject;
  /// The k that degraded "dcam" requests compute with. Requests already at
  /// or below it are rejected instead (degrading would be a no-op).
  int min_degraded_k = 8;
};

/// Per-model elastic replica-group policy. Disabled by default
/// (max_replicas = 0): the group stays at its registration size. Enabled,
/// the controller grows the group by one when a queued request for the
/// model has waited at least scale_up_queue_delay (load the current group
/// is not absorbing), and shrinks it by one after scale_down_idle without a
/// submission for the model. `cooldown` is the minimum gap between two
/// scale events of one model, damping oscillation. All durations are
/// measured on the service clock (Config::clock).
struct ElasticityConfig {
  int min_replicas = 1;
  /// Upper bound on the group (clamped to Config::replicas). 0 disables
  /// elasticity for this model.
  int max_replicas = 0;
  std::chrono::nanoseconds scale_up_queue_delay = std::chrono::milliseconds(20);
  std::chrono::nanoseconds scale_down_idle = std::chrono::milliseconds(500);
  std::chrono::nanoseconds cooldown = std::chrono::milliseconds(50);

  bool enabled() const { return max_replicas > 0; }
};

/// Everything RegisterModel needs to know about one model, builder-style:
///
///   ElasticityConfig elastic;
///   elastic.min_replicas = 1;
///   elastic.max_replicas = 4;
///   service.RegisterModel(
///       ModelSpec("m", &model).Replicas(1).Elastic(elastic).Placement(2));
struct ModelSpec {
  ModelSpec() = default;
  ModelSpec(std::string model_id, models::Model* m)
      : id(std::move(model_id)), model(m) {}

  /// Registry key; non-empty, unique per service.
  std::string id;
  /// Non-owning; must outlive the service. Served directly by the group's
  /// first shard; every other group shard gets a Model::Clone().
  models::Model* model = nullptr;
  /// Initial replica-group size, clamped to Config::replicas. 0 = the full
  /// shard count for a fixed group, min_replicas for an elastic one.
  int replicas = 0;
  /// Elastic group policy; default-disabled (fixed group).
  ElasticityConfig elasticity;
  /// Preferred first shard of the group (the one serving `model` itself);
  /// the group occupies consecutive shards from it, wrapping. -1 = shard 0.
  /// A placement hint spreads single-replica models across shards instead
  /// of piling them all onto shard 0.
  int placement_hint = -1;

  ModelSpec& Id(std::string v) { id = std::move(v); return *this; }
  ModelSpec& Model(models::Model* v) { model = v; return *this; }
  ModelSpec& Replicas(int v) { replicas = v; return *this; }
  ModelSpec& Elastic(ElasticityConfig v) { elasticity = v; return *this; }
  ModelSpec& Placement(int v) { placement_hint = v; return *this; }
};

class ExplainService {
 public:
  struct Config {
    /// Result-cache knobs (both tiers); see CacheConfig.
    CacheConfig cache;
    /// Admission-control bounds and overload policy; see AdmissionConfig.
    AdmissionConfig admission;
    /// Forwarded to DcamEngine::Config::batch, the engine's commit window
    /// (0 = adapt to the machine).
    int engine_batch = 0;
    /// At most this many dCAM requests are folded into one ComputeMany call
    /// — bounds the number of live (D, D, n) accumulators per shard.
    int max_coalesce = 64;
    /// Scheduler shards. 1 keeps the single-scheduler behavior; N > 1 runs
    /// N schedulers. A model's replica group covers a (possibly elastic)
    /// subset of the shards; each group shard owns a private weight copy.
    int replicas = 1;
    /// Permutations per request between streaming ticks (and cancel /
    /// deadline checkpoints) of the "dcam" engine path; 0 = the engine's
    /// commit window. Ticks hold no lane back (the engine keeps computing
    /// up to its window while a tick runs), so smaller values cost only
    /// the ticks themselves.
    int stream_tick_k = 0;
    /// Cadence of the elasticity controller thread; 0 disables the thread
    /// (elastic groups then only move when TickElasticity() is called —
    /// what the deterministic tests do). The cadence is real time; the
    /// *decisions* measure durations on `clock`, so a test can drive a
    /// ManualClock and tick explicitly.
    std::chrono::nanoseconds elasticity_tick = std::chrono::milliseconds(5);
    /// Time source for deadlines, queue-delay accounting, tier-1 cache TTL,
    /// and elasticity decisions. Null = the real steady clock; tests inject
    /// a ManualClock to make expiry/scaling deterministic. Non-owning; must
    /// outlive the service.
    const MonotonicClock* clock = nullptr;
  };

  struct Stats {
    uint64_t requests = 0;          // accepted by Submit
    uint64_t completed = 0;         // promises fulfilled with a result
    uint64_t cache_hits = 0;        // served from the LRU
    uint64_t deduped = 0;           // merged into an identical in-flight miss
    uint64_t coalesced_batches = 0; // ComputeMany calls issued
    uint64_t coalesced_requests = 0;// dCAM requests served by those calls
    uint64_t max_coalesce = 0;      // largest single ComputeMany group
    uint64_t evictions = 0;         // LRU entries dropped by capacity
    uint64_t shed_rejected = 0;     // refused by admission control
    uint64_t shed_degraded = 0;     // admitted with k clamped down
    uint64_t queue_delay_ns = 0;    // cumulative Submit -> drain wait
    uint64_t peak_queue_depth = 0;  // largest queued-request count observed
    uint64_t invalidations = 0;     // cache entries dropped by InvalidateModel
    uint64_t deadline_expired = 0;  // deadline passed: at dequeue, or at a
                                    // tick boundary mid-compute
    uint64_t cancelled = 0;         // requests failed by Ticket::Cancel
    /// Unspent dCAM permutations reclaimed by cancellation/expiry: the full
    /// k of a request cancelled while queued, plus k_target - k_done of
    /// every engine pass stopped early because no waiter was left. The
    /// scheduler's freed budget — those permutations are never drawn, so
    /// the remaining rounds pack only live batch-mates.
    uint64_t reclaimed_k = 0;
    uint64_t streamed_ticks = 0;    // kTick completions delivered
    uint64_t scale_up_events = 0;   // elastic replicas attached
    uint64_t scale_down_events = 0; // elastic replicas retired
    uint64_t cache_tier2_hits = 0;  // served from the persistent tier
    uint64_t cache_expired = 0;     // entries dropped on probe past their TTL
                                    // (both tiers)
    /// Rejections broken down by the shed request's priority class (indexed
    /// by Priority); sums to shed_rejected. Under lowest-priority-first
    /// shedding the victim may be a queued request, not the arrival.
    std::array<uint64_t, kNumPriorities> shed_by_priority{};
    /// Cumulative Submit -> drain wait and drained-request count per
    /// priority class; together they give the per-class mean queue delay.
    std::array<uint64_t, kNumPriorities> queue_delay_ns_by_priority{};
    std::array<uint64_t, kNumPriorities> drained_by_priority{};
  };

  /// Starts the scheduler shards immediately.
  ExplainService();
  explicit ExplainService(Config config);

  /// Drains outstanding requests, then stops the schedulers.
  ~ExplainService();

  ExplainService(const ExplainService&) = delete;
  ExplainService& operator=(const ExplainService&) = delete;

  /// Registers `spec.model` (non-owning; must outlive the service) under
  /// `spec.id`. Re-registering an id CHECK-fails. Safe to call while
  /// serving; requests naming the id may be submitted as soon as this
  /// returns. The group's first shard (spec.placement_hint, default 0)
  /// serves the model itself; every other group shard a Model::Clone() made
  /// here — so the model class must implement CloneArchitecture when the
  /// group can ever span more than one shard (including via elasticity).
  void RegisterModel(ModelSpec spec);

  /// Invalidates everything derived from `id`'s weights: drops the model's
  /// cached results and marks its replica clones for a weight re-sync from
  /// the registered model (performed by each shard before its next batch).
  /// Call after an external weight update (retraining, LoadModelWeights) so
  /// stale CAMs are never served. The caller must quiesce the model's
  /// traffic while mutating weights (e.g. Drain() first): requests already
  /// in flight race the update and may return either version (they are not
  /// cached across the invalidation).
  void InvalidateModel(const std::string& id);

  /// Validates `request` on the calling thread; throws std::invalid_argument
  /// on an empty model id or method, an unknown method / model id / backend
  /// name, a malformed (non-rank-2) series, or a (method, model) pairing
  /// the method's Supports rejects. A bad request must fail the caller,
  /// never a scheduler — every submit surface runs this before engaging any
  /// delivery sink, so an invalid request throws synchronously and its
  /// callback / completion queue is never touched. (Non-const only because
  /// the Supports verdict is memoized.)
  void ValidateRequest(const ExplainRequest& request);

  /// Enqueues a request; the returned Ticket's get() blocks for the result.
  /// Throws std::invalid_argument synchronously for invalid requests (see
  /// ValidateRequest). Under admission-control overload get() throws
  /// ServiceOverloadError (kReject / hard cap) or returns a smaller-k
  /// result (kDegradeK); a deadline that passes while queued throws
  /// DeadlineExceededError, and Ticket::Cancel makes it throw
  /// CancelledError.
  Ticket Submit(ExplainRequest request);

  /// Async variant: `callback` is invoked exactly once with the result or
  /// the error Submit's get() would have thrown. Admission, routing,
  /// priorities, deadlines, and cancellation behave identically to Submit;
  /// at the same seed the delivered result is bit-identical. The callback
  /// runs on a scheduler thread (or on the submitting thread for
  /// synchronous rejects), with no service lock held — it may SubmitAsync
  /// further requests, but must not block: a stalled callback stalls its
  /// shard.
  Ticket SubmitAsync(ExplainRequest request, ExplainCallback callback);

  /// Completion-queue variant: delivers exactly one tagged Completion on
  /// `cq` (kOk with the result, or kError carrying the exception). `cq` is
  /// non-owning and must outlive the op — one client thread can hold many
  /// requests in flight and drive them all with cq->Next(). See
  /// completion_queue.h for the shutdown/drain contract.
  Ticket SubmitAsync(ExplainRequest request, CompletionQueue* cq, void* tag);

  /// Streaming variant: like SubmitAsync(cq, tag), but before the terminal
  /// Completion the tag receives a kTick Completion after each
  /// Config::stream_tick_k permutations of the "dcam" engine pass — the
  /// partial map (result.map at result.k = k_done permutations) plus the
  /// anytime convergence score (result.convergence, the relative L2 change
  /// vs the previous tick). The terminal kOk carries the full-k result,
  /// bit-identical to what blocking Submit returns at the same seed — only
  /// terminal full-k results enter the cache. Deduped followers of one
  /// computation receive the same tick sequence as their leader; a cache
  /// hit (or a non-"dcam" method, which has no permutation loop) delivers
  /// zero ticks and just the terminal. Cancel mid-stream stops at the next
  /// tick; deadline expiry mid-stream delivers that boundary's tick, then
  /// the DeadlineExceededError terminal.
  Ticket SubmitStreaming(ExplainRequest request, CompletionQueue* cq,
                         void* tag);

  /// Submit + wait. The calling thread blocks until the scheduler serves
  /// the request (or its cache hit); throws ServiceOverloadError when the
  /// request was shed.
  ExplanationResult Explain(ExplainRequest request);

  /// Blocks until every request submitted so far has completed.
  void Drain();

  /// Stops accepting requests, drains the queues, and joins the schedulers.
  /// Idempotent; also run by the destructor.
  void Shutdown();

  /// Runs one elasticity-controller evaluation on the calling thread (the
  /// same pass the background tick runs). Deterministic tests set
  /// Config::elasticity_tick = 0 and call this after advancing a
  /// ManualClock; calling it alongside the background controller is safe.
  void TickElasticity();

  /// Current replica-group size of a registered model (CHECK-fails on an
  /// unknown id). Moves over time for elastic models.
  int ModelReplicas(const std::string& id) const;

  Stats stats() const;

  int replicas() const { return static_cast<int>(shards_.size()); }

 private:
  friend class Ticket;  // Ticket::Cancel calls CancelRequest

  // The content address lives at namespace scope (cache_tier.h) so both
  // cache tiers and the service share one definition.
  using CacheKey = ResultCacheKey;
  using CacheKeyHash = ResultCacheKeyHash;

  // A cached result keeps the series it was computed for: the 64-bit series
  // hash in the key is not collision-proof, so a hit is only served after
  // the stored series compares equal to the request's.
  struct CacheEntry {
    ExplanationResult result;
    Tensor series;
  };

  /// Post-validation request attributes, resolved once in SubmitInternal
  /// and carried by Pending from then on: everything admission, routing,
  /// scheduling, and expiry consult lives here instead of being re-plumbed
  /// through parallel argument lists.
  struct RequestContext {
    Priority priority = Priority::kNormal;
    MonotonicClock::time_point deadline{};
    std::string backend;  // resolved: "portable" unless a specialization ran
    uint64_t epoch = 0;   // model epoch at admission; stale results skip
                          // the cache (see InvalidateModel)
    MonotonicClock::time_point enqueued;

    int priority_class() const { return static_cast<int>(priority); }
    bool has_deadline() const {
      return deadline != MonotonicClock::time_point{};
    }
  };

  struct Pending {
    ExplainRequest request;
    RequestContext ctx;
    CacheKey key;
    bool dedupable = false;  // deterministic: identical in-flight requests merge
    bool cacheable = false;  // dedupable and the result cache is enabled
    bool has_key_ref = false;  // holds a reference in active_keys_; dropped
                               // on fulfilment, eviction, expiry, or cancel
    bool streaming = false;    // sink wants kTick completions (SubmitStreaming)
    // Scheduler-side flags, meaningful only while a drained batch is
    // processed: `done` marks a waiter whose terminal outcome (cancel /
    // expiry) was already delivered mid-stream; `wants_ticks` marks a
    // dedupe leader at least one of whose waiters is streaming.
    bool done = false;
    bool wants_ticks = false;
    // Shared with the client's Ticket; never null for admitted requests.
    std::shared_ptr<internal::TicketState> ticket;
    // Exactly one delivery sink: the completion queue if `cq` is set, else
    // `callback` if set, else the promise (the blocking Submit path).
    std::promise<ExplanationResult> promise;
    ExplainCallback callback;
    CompletionQueue* cq = nullptr;
    void* tag = nullptr;

    int priority_class() const { return ctx.priority_class(); }
  };

  // One shard's materialization of a model: the shard it lives on and —
  // for every group position but the first — the private weight copy served
  // there. `dirty` asks the shard to re-copy weights from the source before
  // its next batch.
  struct Replica {
    int shard = 0;
    std::unique_ptr<models::Model> clone;  // null: this shard serves `source`
    uint8_t dirty = 0;
  };

  // One registered model and its (possibly elastic) replica group. The
  // group is an ordered shard list: replicas[0] always serves `source`
  // itself and is never retired; elasticity appends/pops at the back.
  // `epoch` fences the result cache across invalidations; `last_activity` /
  // `last_scale` drive the controller; `scaling` marks a scale-up whose
  // clone is being built outside the lock (the controller skips the model
  // until it lands).
  struct ModelEntry {
    models::Model* source = nullptr;
    std::vector<Replica> replicas;
    ElasticityConfig elastic;
    uint64_t epoch = 0;
    MonotonicClock::time_point last_activity{};
    MonotonicClock::time_point last_scale{};
    bool scaling = false;

    bool InGroup(int shard) const {
      for (const Replica& r : replicas) {
        if (r.shard == shard) return true;
      }
      return false;
    }
    models::Model* ModelForShard(int shard) const {
      for (const Replica& r : replicas) {
        if (r.shard == shard) {
          return r.clone != nullptr ? r.clone.get() : source;
        }
      }
      return nullptr;
    }
  };

  // One scheduler shard: a queue slice (guarded by the service mutex) plus
  // scheduler-thread-only working state — per-(method, backend, model)
  // explainers and per-model engines whose scratch persists across requests.
  struct Shard {
    /// Priority-ordered queue: one FIFO vector per Priority class, drained
    /// high -> normal -> batch each scheduler round (guarded by mu_).
    std::array<std::vector<Pending>, kNumPriorities> queues;
    uint64_t in_flight = 0;      // drained, not yet fulfilled (guarded by mu_)
    std::condition_variable cv;  // this shard's scheduler wake-up (on mu_):
                                 // Submit wakes only the shard it enqueued on
    std::map<std::tuple<std::string, std::string, models::Model*>,
             std::unique_ptr<Explainer>>
        workers;
    std::unordered_map<models::Model*, std::unique_ptr<core::DcamEngine>>
        engines;
    /// Clones popped from a replica group by scale-down, parked here
    /// (guarded by mu_) for the owning scheduler to free: `workers` and
    /// `engines` key scheduler-thread-local state by raw Model*, so the
    /// clone must outlive any round that could still touch it and its map
    /// entries must be purged on this thread before the address can be
    /// reused by a later scale-up.
    std::vector<std::unique_ptr<models::Model>> retired;
    std::thread scheduler;
  };

  /// Finishes one computed request: cache insert, follower hand-off,
  /// promise fulfilment.
  using CompleteFn = std::function<void(Pending*, const ExplanationResult&)>;

  /// Tick fan-out hook, built per scheduler round in Process (it needs the
  /// round's dedupe map): receives the group leader plus the engine tick
  /// and decides whether the computation continues.
  using GroupTickFn =
      std::function<core::TickAction(Pending*, const core::DcamTick&)>;

  void SchedulerLoop(int shard_idx);
  void Process(Shard* shard, std::vector<Pending> batch,
               const std::unordered_map<std::string, models::Model*>& models);
  /// Serves a group of same-model "dcam" misses through one chunked engine
  /// pass, ticking `on_tick` at every stream_tick_k boundary.
  void ProcessDcamGroup(Shard* shard, models::Model* model,
                        std::vector<Pending*>* group,
                        const CompleteFn& complete,
                        const GroupTickFn& on_tick);
  /// Re-copies weights into this shard's clones of models flagged dirty.
  void SyncDirtyReplicas(int shard_idx);
  Explainer* ExplainerFor(Shard* shard, const std::string& method,
                          const std::string& backend, models::Model* model);
  /// Attaches a fresh TicketState to `p` and returns the client handle
  /// (carrying `deadline` for Ticket::deadline()).
  Ticket MakeTicket(Pending* p, MonotonicClock::time_point deadline);
  /// Resolves the request's backend string (portable fallback) and returns
  /// the memoized (method, backend) prototype explainer.
  Explainer* ResolveRequest(const ExplainRequest& request,
                            std::string* resolved);
  /// Shared Submit/SubmitAsync/SubmitStreaming tail: validation, admission,
  /// routing, enqueue. `p` arrives with its delivery sink (and ticket)
  /// already attached.
  void SubmitInternal(ExplainRequest request, Pending p);
  void Fulfill(Pending* p, const ExplanationResult& result);
  /// Hands `result`/`error` to the request's sink (promise, callback, or
  /// completion queue). Must be called with no service lock held; both mark
  /// the request's Ticket terminal first.
  void Deliver(Pending* p, ExplanationResult result);
  void DeliverError(Pending* p, std::exception_ptr error);
  void Reject(Pending* p, const std::string& why);
  /// Fails a drained request whose deadline has passed; `where` names the
  /// boundary for the error message ("while queued" / "at a tick boundary").
  void Expire(Pending* p, const char* where);
  /// Ticket::Cancel back-end: arbitration under mu_. A still-queued request
  /// is removed and failed immediately (its full dCAM k is reclaimed); a
  /// running one is flagged for its next tick boundary. Returns false when
  /// the request already reached terminal delivery.
  bool CancelRequest(const std::shared_ptr<internal::TicketState>& state);
  /// Fails an in-flight waiter with CancelledError and marks it done;
  /// `where` names the observation point for the error message ("at
  /// dequeue" / "at a tick boundary").
  void CancelInFlight(Pending* p, const char* where);
  /// Delivers one kTick completion (partial map + convergence) to a
  /// streaming waiter's CompletionQueue.
  void DeliverTick(Pending* p, const core::DcamTick& tick);
  /// Drops `p`'s reference in the in-flight key table (mu_ held).
  void DropKeyRefLocked(const Pending& p);
  /// Lowest-priority-first shedding (mu_ held): evicts queued requests of
  /// priority strictly lower than `arrival` — lowest class first, newest
  /// first within a class — until the depth/byte bounds admit the arrival
  /// (whose series costs `cost` bytes) or no candidates remain. Evicted
  /// requests are accounted (queue totals, key refs, shed stats) here and
  /// handed back for out-of-lock error delivery.
  void ShedForLocked(const Pending& arrival, size_t cost,
                     std::vector<Pending>* victims);
  size_t QueuedLocked(const Shard& shard) const;
  /// Routing fallback for keys not already in flight: the least-loaded
  /// shard of the model's replica group (ties go to the lowest index).
  int LeastLoadedLocked(const ModelEntry& entry) const;
  /// Elasticity controller thread body: sleeps Config::elasticity_tick
  /// between evaluations, woken early by Shutdown.
  void ControllerLoop();
  /// One controller evaluation over every elastic model. May release and
  /// re-acquire *lock around a Model::Clone() (scale-up); the `scaling`
  /// flag keeps concurrent evaluations off a mid-scale model.
  void EvaluateElasticityLocked(std::unique_lock<std::mutex>* lock);
  /// True when some queued request for `id` has aged past the model's
  /// scale_up_queue_delay — the signal the current group is not absorbing
  /// its load.
  bool ScaleUpPressureLocked(const std::string& id, const ModelEntry& entry,
                             MonotonicClock::time_point now) const;
  /// Probes tier 2 for `p`'s key (verified); on a hit promotes the entry
  /// into tier 1 and returns it. Counts stats_.cache_tier2_hits.
  bool ProbeTier2(const Pending& p, ExplanationResult* out);
  /// Byte weight of a cache entry (map + stored series), the tier-1
  /// eviction cost.
  static size_t EntryBytes(const CacheEntry& entry);
  /// Tier-1 expiry timestamp for an entry inserted now (0 = never), on the
  /// service clock.
  uint64_t CacheExpiryNs() const;
  /// The service clock's current reading as the uint64 ns key the tier-1
  /// TTL probe compares against (monotonic; 0 only before the clock's
  /// epoch, which RealClock/ManualClock never report).
  uint64_t CacheNowNs() const;

  const Config config_;
  const MonotonicClock* const clock_;  // config_.clock or the real clock

  mutable std::mutex mu_;  // queues, models_, stats_, active_keys_, stop_
  std::condition_variable drained_cv_;  // Drain/Shutdown wait
  std::unordered_map<std::string, ModelEntry> models_;
  // Key -> (shard, refcount) of dedupable requests admitted and not yet
  // fulfilled. Routing repeats of an in-flight key to the same shard lets
  // the per-batch dedupe (or the shared cache) merge them, so dedupe keeps
  // working across replicas.
  std::unordered_map<CacheKey, std::pair<int, uint64_t>, CacheKeyHash>
      active_keys_;
  Stats stats_;
  size_t queued_total_ = 0;  // across shards; admission depth bound
  size_t queued_bytes_ = 0;  // series payload of queued requests
  bool stop_ = false;
  int schedulers_exited_ = 0;  // counted by the Shutdown call that joined

  // The in-memory result cache (tier 1) is shared by every shard; cache_mu_
  // guards it (and only it — never taken together with mu_). Mutable so the
  // const stats() snapshot can fold in the cache's own counters.
  mutable std::mutex cache_mu_;
  LruCache<CacheKey, CacheEntry, CacheKeyHash> cache_;
  // Tier 2 (null unless CacheConfig::persistent_dir is set); internally
  // synchronized, so no service lock is held around its calls.
  std::unique_ptr<PersistentCacheTier> tier2_;

  // Elasticity controller (joined by Shutdown alongside the schedulers).
  std::condition_variable controller_cv_;  // on mu_; Shutdown wakes it
  std::thread controller_;

  // One digest/Supports prototype per (method, resolved backend) — used by
  // Submit on client threads; OptionsDigest is const and stateless, so
  // concurrent use is safe. Supports verdicts are memoized per method only
  // (backend variants share Supports): the dCAM probe builds a
  // (1, D, D, n) cube, which must not run per Submit.
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Explainer>>
      prototypes_;
  using SupportsKey = std::tuple<std::string, models::Model*, int64_t, int64_t>;
  std::map<SupportsKey, bool> supports_;
  std::mutex prototypes_mu_;  // guards prototypes_ and supports_

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace explain
}  // namespace dcam

#endif  // DCAM_EXPLAIN_SERVICE_H_
