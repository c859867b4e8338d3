#include "core/engine.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "cam/cam.h"
#include "core/cube.h"
#include "core/variants.h"
#include "io/serialize.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace dcam {
namespace core {
namespace {

// Argmax of one logits row, first index on ties (matches Tensor::Argmax on
// the flattened (1, C) logits of the serial path).
int RowArgmax(const Tensor& logits, int64_t row) {
  const int64_t C = logits.dim(1);
  const float* p = logits.data() + row * C;
  int best = 0;
  for (int64_t c = 1; c < C; ++c) {
    if (p[c] > p[best]) best = static_cast<int>(c);
  }
  return best;
}

}  // namespace

DcamEngine::DcamEngine(models::GapModel* model)
    : DcamEngine(model, Config()) {}

DcamEngine::DcamEngine(models::GapModel* model, Config config)
    : model_(model), config_(config) {
  DCAM_CHECK(model != nullptr);
  DCAM_CHECK_GE(config_.batch, 0)
      << "DcamEngine batch must be a slot count (or 0 for auto)";
  if (config_.batch == 0) {
    // Two slots per lane: on 4 vCPUs a 4-slot window left lanes waiting on
    // the commit (about 1.05x slower than 8 on a solo k = 64 request), while
    // 16 bought nothing over 8. The width is the *configured* worker set's:
    // GlobalPool is sized by DCAM_CPU_SET when one is exported, so a service
    // pinned to 4 cores gets an 8-slot window even on a 64-core host.
    config_.batch = 2 * GlobalPool().num_threads();
  }
  window_.resize(static_cast<size_t>(config_.batch));
}

void DcamEngine::CheckCubeModel(int64_t dims, int64_t len) {
  if (checked_cube_input_) return;
  Tensor probe({1, dims, len});
  const Tensor prepared = model_->PrepareInput(probe);
  DCAM_CHECK(prepared.shape() == (Shape{1, dims, dims, len}))
      << "DcamEngine requires a cube-input (d-architecture) model, but "
      << model_->name() << " prepares a (1, " << dims << ", " << len
      << ") series as " << ShapeToString(prepared.shape());
  checked_cube_input_ = true;
}

DcamEngine::Lane* DcamEngine::LaneFor(int worker) {
  const size_t w = static_cast<size_t>(worker);
  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    if (w >= lanes_.size()) lanes_.resize(w + 1);
    if (lanes_[w] != nullptr) return lanes_[w].get();
  }
  // First slot on this worker id: clone here, on the worker's own thread,
  // so the replica's weights and activations come from that thread's malloc
  // arena for the engine's lifetime. Within a sweep a worker id belongs to
  // one thread, so nobody else can be creating the same lane.
  auto lane = std::make_unique<Lane>();
  lane->replica = model_->Clone();
  lane->model = dynamic_cast<models::GapModel*>(lane->replica.get());
  DCAM_CHECK(lane->model != nullptr)
      << model_->name() << " cloned into a model without a GAP head";
  std::lock_guard<std::mutex> lock(lanes_mu_);
  lanes_[w] = std::move(lane);
  return lanes_[w].get();
}

void DcamEngine::RefreshLanes() {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    if (lane == nullptr) continue;
    const io::Status status = io::CopyModelWeights(model_, lane->replica.get());
    DCAM_CHECK(status.ok()) << "replica refresh failed: " << status.message();
  }
}

// One ComputeMany call's pipeline. Slots are numbered in draw order; slot s
// lives in window entry s % W from its claim until its commit. Three
// cursors, guarded by mu_, move forward only: committed_ <= claimed_ <=
// committed_ + W. A lane claims slot claimed_ (drawing its permutation from
// its request's Rng, so draws happen in slot order), computes it unlocked,
// and marks it ready; whoever finds the slot at committed_ ready commits the
// ready prefix, one committer at a time (committing_), unlocked while it
// accumulates. The slot entry of s is only reused for s + W, which cannot be
// claimed before s is committed, so a claimed entry has one owner at a time.
class DcamEngine::Sweep {
 public:
  Sweep(DcamEngine* engine, const std::vector<Tensor>& series,
        const std::vector<int>& class_idx,
        const std::vector<DcamOptions>& options, const DcamTickConfig& ticks,
        const DcamTickFn& on_tick, std::vector<DcamResult>* results)
      : engine_(engine),
        series_(series),
        class_idx_(class_idx),
        options_(options),
        emit_partial_(ticks.emit_partial),
        on_tick_(on_tick),
        results_(*results),
        window_(engine->window_),
        W_(static_cast<int64_t>(engine->window_.size())),
        // Without a callback nobody can observe a tick, so each request's
        // whole budget is one round.
        tick_every_(!on_tick ? std::numeric_limits<int>::max()
                    : ticks.tick_every > 0 ? ticks.tick_every
                                           : engine->config_.batch),
        live_(series.size()),
        drawing_(series.size()),
        caller_(std::this_thread::get_id()) {
    requests_.reserve(series.size());
    for (const DcamOptions& o : options) requests_.emplace_back(o.seed);
    tick_queue_.reserve(series.size());
  }

  // A lane: claims, computes and commits slots until none is left to
  // claim. The caller's lane also runs the ticks and stays until every
  // request is finalized; other lanes leave as soon as the draw order is
  // exhausted, so a sweep never waits on a lane that has nothing to do.
  void RunLane(int worker) {
    const bool caller = std::this_thread::get_id() == caller_;
    Lane* lane = nullptr;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (caller && tick_head_ < tick_queue_.size()) {
        RunTick(&lock);
        continue;
      }
      if (caller ? live_ == 0 : exhausted_) return;
      int64_t s;
      // The caller is the one thread that can deliver a tick, so it does
      // not start a forward while a partial map is at most one forward
      // away: every slot up to that tick boundary is already claimed.
      if (!(caller && emitting_in_flight_ > 0) && Claim(&s)) {
        lock.unlock();
        if (lane == nullptr) lane = engine_->LaneFor(worker);
        Compute(lane, &window_[static_cast<size_t>(s % W_)]);
        lock.lock();
        window_[static_cast<size_t>(s % W_)].ready = true;
        CommitReady(&lock);
        continue;
      }
      if (!caller && exhausted_) return;
      cv_.wait(lock);
    }
  }

  bool done() {
    std::lock_guard<std::mutex> lock(mu_);
    return live_ == 0;
  }

 private:
  // One request's state. drawn and the flags are guarded by mu_; committed
  // and the accumulator are touched by the committer, and by the caller
  // only while the request waits at a tick boundary (tick_pending).
  struct Request {
    Rng rng;
    int drawn = 0;
    int committed = 0;
    bool tick_pending = false;  // committed is at a tick not yet run
    bool finalized = false;
    Tensor prev_map;  // previous tick's map, for the convergence delta
    explicit Request(uint64_t seed) : rng(seed) {}
  };

  // The request the next slot belongs to in the draw order (round-robin,
  // up to tick_every_ per request per round), or false once no request has
  // budget left to draw.
  bool NextRequest(size_t* out) {
    while (drawing_ > 0) {
      const size_t i = round_pos_;
      if (!requests_[i].finalized && requests_[i].drawn < options_[i].k &&
          round_taken_ < tick_every_) {
        ++round_taken_;
        *out = i;
        return true;
      }
      round_pos_ = (round_pos_ + 1) % requests_.size();
      round_taken_ = 0;
    }
    exhausted_ = true;
    return false;
  }

  // Claims the next slot if the window has room and the draw order has one
  // (mu_ held).
  bool Claim(int64_t* out) {
    size_t i;
    if (claimed_ >= committed_ + W_ || !NextRequest(&i)) return false;
    Request& r = requests_[i];
    Slot& slot = window_[static_cast<size_t>(claimed_ % W_)];
    slot.request = i;
    slot.ready = false;
    const int D = static_cast<int>(series_[i].dim(0));
    if (r.drawn == 0 && options_[i].include_identity) {
      slot.perm.resize(static_cast<size_t>(D));
      std::iota(slot.perm.begin(), slot.perm.end(), 0);
    } else {
      r.rng.PermutationInto(D, &slot.perm);
    }
    slot.ends_emitting_round = false;
    if (++r.drawn == options_[i].k) {
      --drawing_;
    } else if (on_tick_ && r.drawn % tick_every_ == 0 &&
               !emit_partial_.empty() && emit_partial_[i] != 0) {
      slot.ends_emitting_round = true;
      ++emitting_in_flight_;
    }
    *out = claimed_++;
    return true;
  }

  // The slot's forward, vote and CAM on `lane`'s replica, and its inverse
  // permutation for the scatter.
  void Compute(Lane* lane, Slot* slot) {
    const Tensor& series = series_[slot->request];
    const int cls = class_idx_[slot->request];
    const int64_t D = series.dim(0), n = series.dim(1);
    EnsureTensorShape(&lane->cube, {1, D, D, n});
    BuildCubeInto(series, slot->perm, &lane->cube, 0);
    slot->correct = RowArgmax(lane->model->Infer(lane->cube), 0) == cls;
    EnsureTensorShape(&slot->cam, {1, D, n});
    cam::CamFromActivationInto(lane->model->last_activation(),
                               lane->model->head(), cls, &slot->cam);
    slot->inverse.resize(slot->perm.size());
    for (size_t q = 0; q < slot->perm.size(); ++q) {
      slot->inverse[static_cast<size_t>(slot->perm[q])] = static_cast<int>(q);
    }
  }

  // Commits the ready prefix of the window, unless another thread is
  // already doing so (it re-checks the prefix after each slot). Stops at a
  // slot whose request waits at a tick. Called with mu_ held; drops it
  // while accumulating.
  void CommitReady(std::unique_lock<std::mutex>* lock) {
    if (committing_) return;
    committing_ = true;
    while (committed_ < claimed_) {
      Slot& slot = window_[static_cast<size_t>(committed_ % W_)];
      if (!slot.ready) break;
      Request& r = requests_[slot.request];
      if (r.tick_pending) break;
      bool tick = false, last = false;
      if (!r.finalized) {  // else: computed past a cancel; dropped
        lock->unlock();
        Accumulate(slot);
        last = ++r.committed == options_[slot.request].k;
        if (last) {
          Finalize(slot.request, /*cancelled=*/false);
        } else {
          tick = on_tick_ && r.committed % tick_every_ == 0;
        }
        lock->lock();
      }
      ++committed_;
      if (slot.ends_emitting_round) --emitting_in_flight_;
      if (last) {
        r.finalized = true;
        --live_;
      }
      if (tick) {
        r.tick_pending = true;
        tick_queue_.push_back(slot.request);
      }
      cv_.notify_all();
    }
    committing_ = false;
  }

  // The slot's n_g vote and its M-transformation scatter (Definition 2)
  // into its request's accumulator: one float add per (d, p, t) cell, in
  // slot order, as in ComputeDcamSerial.
  void Accumulate(const Slot& slot) {
    DcamResult& res = results_[slot.request];
    const int64_t D = series_[slot.request].dim(0);
    const int64_t n = series_[slot.request].dim(1);
    if (requests_[slot.request].committed == 0) {
      res.mbar = Tensor({D, D, n});
    }
    if (slot.correct) ++res.num_correct;
    const float* cam = slot.cam.data();
    for (int64_t d = 0; d < D; ++d) {
      float* mrow = res.mbar.data() + d * D * n;
      for (int64_t p = 0; p < D; ++p) {
        // Row r of C(S) holds dimension d at position p iff
        // r = (inv[d] - p) mod D (Definition 1).
        const int64_t r = RowIndex(slot.inverse[static_cast<size_t>(d)],
                                   static_cast<int>(p), static_cast<int>(D));
        const float* src = cam + r * n;
        float* dst = mrow + p * n;
        for (int64_t t = 0; t < n; ++t) dst[t] += src[t];
      }
    }
  }

  // Averages request i's accumulator over its committed permutations and
  // extracts Definition 3; with keep_mbar == false the (D, D, n)
  // accumulator, the dominant per-request memory, is released at once.
  void Finalize(size_t i, bool cancelled) {
    DcamResult& r = results_[i];
    Request& req = requests_[i];
    r.cancelled = cancelled;
    r.k = req.committed;
    const float inv = 1.0f / static_cast<float>(r.k);
    float* m = r.mbar.data();
    for (int64_t j = 0; j < r.mbar.size(); ++j) m[j] *= inv;
    ExtractDcam(r.mbar, &r.dcam, &r.mu);
    if (!req.prev_map.empty()) {
      r.convergence = RelativeL2Delta(r.dcam, req.prev_map);
      req.prev_map = Tensor();
    }
    if (!options_[i].keep_mbar) r.mbar = Tensor();
  }

  // Runs the oldest pending tick on the calling thread (mu_ held on entry
  // and exit; dropped around the callback). The request's accumulator stays
  // at the boundary until the verdict is in.
  void RunTick(std::unique_lock<std::mutex>* lock) {
    const size_t i = tick_queue_[tick_head_++];
    if (tick_head_ == tick_queue_.size()) {
      tick_queue_.clear();
      tick_head_ = 0;
    }
    Request& req = requests_[i];
    lock->unlock();
    DcamTick tick;
    tick.index = i;
    tick.k_done = req.committed;
    tick.k_target = options_[i].k;
    tick.num_correct = results_[i].num_correct;
    const bool emit = !emit_partial_.empty() && emit_partial_[i] != 0;
    if (emit) {
      // Partial M-bar = msum / k_done: the same estimator the terminal
      // path averages, at a smaller sample.
      const Tensor& msum = results_[i].mbar;
      EnsureTensorShape(&partial_, msum.shape());
      const float inv = 1.0f / static_cast<float>(tick.k_done);
      const float* src = msum.data();
      float* dst = partial_.data();
      for (int64_t j = 0; j < partial_.size(); ++j) dst[j] = src[j] * inv;
      ExtractDcam(partial_, &partial_map_, &partial_mu_);
      tick.map = &partial_map_;
      tick.mu = &partial_mu_;
      tick.delta = req.prev_map.empty()
                       ? 1.0
                       : RelativeL2Delta(partial_map_, req.prev_map);
    }
    const TickAction action = on_tick_(tick);
    if (emit) {
      // Keep this tick's map for the next delta; the moved-from tensor is
      // re-allocated by the next ExtractDcam, so the callback's pointer was
      // never aliased by prev_map while it could still be read.
      req.prev_map = std::move(partial_map_);
      partial_map_ = Tensor();
    }
    const bool cancel = action == TickAction::kCancel;
    if (cancel) Finalize(i, /*cancelled=*/true);
    lock->lock();
    req.tick_pending = false;
    if (cancel) {
      if (req.drawn < options_[i].k) --drawing_;
      req.finalized = true;
      --live_;
    }
    if (drawing_ == 0) exhausted_ = true;
    CommitReady(lock);
    cv_.notify_all();
  }

  DcamEngine* const engine_;
  const std::vector<Tensor>& series_;
  const std::vector<int>& class_idx_;
  const std::vector<DcamOptions>& options_;
  const std::vector<uint8_t>& emit_partial_;
  const DcamTickFn& on_tick_;
  std::vector<DcamResult>& results_;
  std::vector<Slot>& window_;
  const int64_t W_;
  const int tick_every_;

  std::mutex mu_;
  std::condition_variable cv_;  // a commit, a tick or an exhausted draw
  std::vector<Request> requests_;
  size_t live_;      // requests not yet finalized
  size_t drawing_;   // requests with budget left to draw
  bool exhausted_ = false;
  size_t round_pos_ = 0;  // draw order: the request of the current turn
  int round_taken_ = 0;   // and the slots it drew this turn
  int64_t claimed_ = 0;
  int64_t committed_ = 0;
  bool committing_ = false;
  int emitting_in_flight_ = 0;  // claimed slots that end an emitting round
  std::vector<size_t> tick_queue_;  // requests at a tick boundary, in order
  size_t tick_head_ = 0;

  const std::thread::id caller_;  // the thread that runs the ticks
  Tensor partial_, partial_map_, partial_mu_;  // its tick scratch
};

DcamResult DcamEngine::Compute(const Tensor& series, int class_idx,
                               const DcamOptions& options) {
  return ComputeMany(std::vector<Tensor>{series}, std::vector<int>{class_idx},
                     std::vector<DcamOptions>{options})[0];
}

std::vector<DcamResult> DcamEngine::ComputeMany(
    const std::vector<Tensor>& series, const std::vector<int>& class_idx,
    const DcamOptions& options) {
  std::vector<DcamOptions> per_instance(series.size(), options);
  for (size_t i = 0; i < per_instance.size(); ++i) {
    per_instance[i].seed = options.seed + i;
  }
  return ComputeMany(series, class_idx, per_instance);
}

std::vector<DcamResult> DcamEngine::ComputeMany(
    const std::vector<Tensor>& series, const std::vector<int>& class_idx,
    const std::vector<DcamOptions>& options, const DcamTickConfig& ticks,
    const DcamTickFn& on_tick) {
  const size_t N = series.size();
  DCAM_CHECK_EQ(class_idx.size(), N);
  DCAM_CHECK_EQ(options.size(), N);
  DCAM_CHECK(ticks.emit_partial.empty() || ticks.emit_partial.size() == N)
      << "emit_partial must be empty or match the request count";
  DCAM_CHECK_GE(ticks.tick_every, 0);
  DCAM_CHECK(!running_) << "ComputeMany may not be re-entered";
  std::vector<DcamResult> results(N);
  if (N == 0) return results;
  for (size_t i = 0; i < N; ++i) {
    DCAM_CHECK_EQ(series[i].rank(), 2)
        << "series " << i << " must be a (D, n) tensor";
    DCAM_CHECK_GT(options[i].k, 0)
        << "DcamOptions.k must be a positive permutation count";
    DCAM_CHECK_GE(class_idx[i], 0);
    DCAM_CHECK_LT(class_idx[i], model_->num_classes());
    CheckCubeModel(series[i].dim(0), series[i].dim(1));
  }
  // The replicas serve the model's weights as they are at this call.
  RefreshLanes();

  running_ = true;
  Sweep sweep(this, series, class_idx, options, ticks, on_tick, &results);
  // One lane per pool participant. The pool's workers can hold at most
  // num_threads - 1 of them while the draw order is not exhausted (a worker
  // only moves on to a second lane after its first found nothing left to
  // claim), so the caller always gets a lane while there is work a lane
  // could wait on; if the workers exhausted the draw order first, the
  // caller finishes the commits and ticks after the sweep.
  ParallelMorsel(0, GlobalPool().num_threads(), /*grain=*/1,
                 [&](int worker, int64_t lo, int64_t hi) {
                   for (int64_t l = lo; l < hi; ++l) sweep.RunLane(worker);
                 });
  if (!sweep.done()) sweep.RunLane(CurrentWorkerId());
  running_ = false;
  return results;
}

}  // namespace core
}  // namespace dcam
