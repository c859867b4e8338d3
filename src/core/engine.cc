#include "core/engine.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
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
      << "DcamEngine batch must be a permutation count (or 0 for auto)";
  if (config_.batch == 0) {
    // Adapt to the *configured* worker set, not raw hardware concurrency:
    // GlobalPool is sized by DCAM_CPU_SET when one is exported, so a service
    // pinned to 4 cores gets a 4-wide batch even on a 64-core host (a
    // 64-wide batch would stream activations through 4 cores' caches with
    // no parallelism to pay for it).
    config_.batch = std::min(16, std::max(1, GlobalPool().num_threads()));
  }
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

Tensor* DcamEngine::ScratchCube(int64_t b, int64_t dims, int64_t len) {
  const Shape shape{b, dims, dims, len};
  return b == config_.batch ? EnsureTensorShape(&cube_full_, shape)
                            : EnsureTensorShape(&cube_tail_, shape);
}

Tensor* DcamEngine::ScratchCam(int64_t b, int64_t dims, int64_t len) {
  const Shape shape{b, dims, len};
  return b == config_.batch ? EnsureTensorShape(&cam_full_, shape)
                            : EnsureTensorShape(&cam_tail_, shape);
}

DcamEngine::Slot* DcamEngine::NextSlot() {
  if (static_cast<size_t>(pending_count_) == pending_.size()) {
    pending_.emplace_back();
  }
  return &pending_[static_cast<size_t>(pending_count_++)];
}

DcamEngine::Lane* DcamEngine::LaneFor(int worker) {
  const size_t w = static_cast<size_t>(worker);
  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    if (w >= lanes_.size()) lanes_.resize(w + 1);
    if (lanes_[w] != nullptr) return lanes_[w].get();
  }
  // First flush on this worker id: clone here, on the worker's own thread,
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

void DcamEngine::Flush() {
  if (pending_count_ == 0) return;
  const int64_t B = pending_count_;
  const int64_t D = pending_[0].series->dim(0);
  const int64_t n = pending_[0].series->dim(1);
  CheckCubeModel(D, n);

  // 1. One morsel per slot: its permuted cube goes straight into row b of
  // the persistent input tensor, a (1, D, D, n) view of that row runs
  // through the executing worker's replica (forward-only Infer, whose
  // nested layer calls are serial and whose activations live in the
  // replica's planned buffers), and the slot's vote and CAM land in the
  // slot and in row b of the CAM scratch.
  Tensor* cube = ScratchCube(B, D, n);
  Tensor* cam = ScratchCam(B, D, n);
  Slot* slot_data = pending_.data();
  ParallelMorsel(0, B, /*grain=*/1, [&](int worker, int64_t lo, int64_t hi) {
    Lane* lane = LaneFor(worker);
    for (int64_t b = lo; b < hi; ++b) {
      Slot& slot = slot_data[b];
      BuildCubeInto(*slot.series, slot.perm, cube, b);
      const Tensor logits = lane->model->Infer(cube->Row(b));
      slot.correct = RowArgmax(logits, 0) == slot.class_idx;
      Tensor cam_row = cam->Row(b);
      cam::CamFromActivationInto(lane->model->last_activation(),
                                 lane->model->head(), slot.class_idx,
                                 &cam_row);
    }
  });

  // 2. n_g votes and inverse permutations for the gather-form scatter.
  for (int64_t b = 0; b < B; ++b) {
    Slot& slot = slot_data[b];
    if (slot.correct) ++*slot.num_correct;
    slot.inverse.resize(slot.perm.size());
    for (size_t q = 0; q < slot.perm.size(); ++q) {
      slot.inverse[static_cast<size_t>(slot.perm[q])] = static_cast<int>(q);
    }
  }

  // 3. M-transformation scatter (Definition 2). Slots are grouped by their
  // target accumulator (consecutive in the stream); each (group, dimension)
  // pair is an independent item of the morsel range, so every msum cell has
  // exactly one writer and slot order — hence float addition order — matches
  // the serial path regardless of chunking. Morsels claim contiguous runs of
  // (group, d) rows: one atomic per run instead of one per row, and — with
  // shard affinity hints routing a shard's flushes to the same workers —
  // the same accumulator rows stay resident on the same cores across the
  // whole k-loop.
  groups_.clear();
  for (int64_t b = 0; b < B; ++b) {
    if (groups_.empty() || groups_.back().msum != slot_data[b].msum) {
      groups_.push_back({slot_data[b].msum, b, b + 1});
    } else {
      groups_.back().last = b + 1;
    }
  }
  const Group* group_data = groups_.data();
  const float* cam_data = cam->data();
  const int64_t num_groups = static_cast<int64_t>(groups_.size());
  ParallelMorsel(
      0, num_groups * D, ThreadPool::kAdaptiveGrain,
      [&](int /*worker*/, int64_t lo, int64_t hi) {
        for (int64_t idx = lo; idx < hi; ++idx) {
          const Group& g = group_data[static_cast<size_t>(idx / D)];
          const int64_t d = idx % D;
          float* mrow = g.msum->data() + d * D * n;
          for (int64_t b = g.first; b < g.last; ++b) {
            const std::vector<int>& inv = slot_data[b].inverse;
            const float* cam_b = cam_data + b * D * n;
            for (int64_t p = 0; p < D; ++p) {
              // Row r of C(S) holds dimension d at position p iff
              // r = (inv[d] - p) mod D (Definition 1).
              const int64_t r = RowIndex(inv[d], static_cast<int>(p),
                                         static_cast<int>(D));
              const float* src = cam_b + r * n;
              float* dst = mrow + p * n;
              for (int64_t t = 0; t < n; ++t) dst[t] += src[t];
            }
          }
        }
      });

  pending_count_ = 0;
}

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
  DCAM_CHECK_EQ(pending_count_, 0) << "ComputeMany may not be re-entered";
  std::vector<DcamResult> results(N);
  if (N == 0) return results;
  // The replicas serve the model's weights as they are at this call.
  RefreshLanes();

  for (size_t i = 0; i < N; ++i) {
    DCAM_CHECK_EQ(series[i].rank(), 2)
        << "series " << i << " must be a (D, n) tensor";
    DCAM_CHECK_GT(options[i].k, 0)
        << "DcamOptions.k must be a positive permutation count";
    DCAM_CHECK_GE(class_idx[i], 0);
    DCAM_CHECK_LT(class_idx[i], model_->num_classes());
  }
  // Without a callback nobody can observe a tick, so the whole budget is
  // drawn in one round.
  const int tick_every = !on_tick ? std::numeric_limits<int>::max()
                         : ticks.tick_every > 0 ? ticks.tick_every
                                                : config_.batch;

  // The permutation cursor of one request: its private Rng stream, and the
  // previous tick's map for the convergence delta.
  struct Cursor {
    Rng rng;
    int drawn = 0;
    bool live = true;
    Tensor prev_map;
    explicit Cursor(uint64_t seed) : rng(seed) {}
  };
  std::vector<Cursor> cursors;
  cursors.reserve(N);
  for (size_t i = 0; i < N; ++i) cursors.emplace_back(options[i].seed);

  // Averages request i's accumulator over the permutations it drew and
  // extracts Definition 3; with keep_mbar == false the (D, D, n)
  // accumulator, the dominant per-request memory, is released at once.
  size_t live_count = N;
  const auto finalize = [&](size_t i, bool cancelled) {
    DcamResult& r = results[i];
    Cursor& c = cursors[i];
    c.live = false;
    --live_count;
    r.cancelled = cancelled;
    r.k = c.drawn;
    const float inv = 1.0f / static_cast<float>(r.k);
    float* m = r.mbar.data();
    for (int64_t j = 0; j < r.mbar.size(); ++j) m[j] *= inv;
    ExtractDcam(r.mbar, &r.dcam, &r.mu);
    if (!c.prev_map.empty()) {
      r.convergence = RelativeL2Delta(r.dcam, c.prev_map);
      c.prev_map = Tensor();
    }
    if (!options[i].keep_mbar) r.mbar = Tensor();
  };

  // Requests whose last permutation is pending; the next flush accumulates
  // it, so they are finalized right behind it. Together with allocating an
  // accumulator at its request's first draw, this bounds the live
  // accumulators by the packing horizon instead of by N.
  std::vector<size_t> drawn_out;
  const auto flush = [&] {
    Flush();
    for (size_t i : drawn_out) finalize(i, /*cancelled=*/false);
    drawn_out.clear();
  };

  Tensor partial, partial_map, partial_mu;  // emit scratch, reused per tick
  while (live_count > 0) {
    // Draw phase: up to tick_every permutations per live request, packed
    // into shared forward batches; a shape change flushes so one input
    // tensor serves each flush. The end-of-round flush is the tick barrier:
    // every drawn permutation is accumulated before a callback observes a
    // cursor.
    for (size_t i = 0; i < N; ++i) {
      Cursor& c = cursors[i];
      if (!c.live) continue;
      if (pending_count_ > 0 &&
          pending_[0].series->shape() != series[i].shape()) {
        flush();
      }
      const int64_t D = series[i].dim(0);
      if (c.drawn == 0) {
        results[i].mbar = Tensor({D, D, series[i].dim(1)});
      }
      const int take = std::min(tick_every, options[i].k - c.drawn);
      for (int j = 0; j < take; ++j) {
        Slot* slot = NextSlot();
        slot->series = &series[i];
        slot->class_idx = class_idx[i];
        slot->msum = &results[i].mbar;
        slot->num_correct = &results[i].num_correct;
        if (c.drawn == 0 && options[i].include_identity) {
          slot->perm.resize(static_cast<size_t>(D));
          std::iota(slot->perm.begin(), slot->perm.end(), 0);
        } else {
          c.rng.PermutationInto(static_cast<int>(D), &slot->perm);
        }
        if (++c.drawn == options[i].k) drawn_out.push_back(i);
        if (pending_count_ == config_.batch) flush();
      }
    }
    flush();

    // Tick phase: every request still live has budget left; it reports its
    // cursor and may be cancelled at this boundary.
    for (size_t i = 0; i < N; ++i) {
      Cursor& c = cursors[i];
      if (!c.live) continue;
      DcamTick tick;
      tick.index = i;
      tick.k_done = c.drawn;
      tick.k_target = options[i].k;
      tick.num_correct = results[i].num_correct;
      const bool emit =
          !ticks.emit_partial.empty() && ticks.emit_partial[i] != 0;
      if (emit) {
        // Partial M-bar = msum / k_done: the same estimator the terminal
        // path averages, at a smaller sample.
        EnsureTensorShape(&partial, results[i].mbar.shape());
        const float inv = 1.0f / static_cast<float>(c.drawn);
        const float* src = results[i].mbar.data();
        float* dst = partial.data();
        for (int64_t j = 0; j < partial.size(); ++j) dst[j] = src[j] * inv;
        ExtractDcam(partial, &partial_map, &partial_mu);
        tick.map = &partial_map;
        tick.mu = &partial_mu;
        tick.delta = c.prev_map.empty()
                         ? 1.0
                         : RelativeL2Delta(partial_map, c.prev_map);
      }
      const TickAction action = on_tick(tick);
      if (emit) {
        // Keep this tick's map for the next delta; the moved-from tensor is
        // re-allocated by the next ExtractDcam, so the callback's pointer
        // was never aliased by prev_map while it could still be read.
        c.prev_map = std::move(partial_map);
        partial_map = Tensor();
      }
      if (action == TickAction::kCancel) finalize(i, /*cancelled=*/true);
    }
  }
  return results;
}

}  // namespace core
}  // namespace dcam
