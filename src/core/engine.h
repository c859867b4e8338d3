// Batched dCAM explanation engine.
//
// The paper's explanation loop (Section 4.4) evaluates k random permutations
// per explained series: k forwards of a (D, D, n) cube through a trained
// d-architecture model. ComputeDcamSerial runs them one at a time and
// re-allocates the permuted series, the C(S) cube, and the CAM buffer on
// every iteration.
//
// DcamEngine amortizes the repeated evaluation and spreads it over the
// worker pool:
//   * permutations are packed into flushes of up to `Config::batch`
//     instances, whose cubes are written directly into one persistent
//     (B, D, D, n) input tensor (BuildCubeInto — no ApplyPermutation /
//     PrepareInput intermediates);
//   * a flush is one morsel sweep with one morsel per instance: each
//     instance's whole forward runs on the executing worker, on a model
//     replica the engine keeps for that worker id (a lane), over a
//     (1, D, D, n) row view of the input tensor. The layers' own nested
//     parallel calls then run serially, so a flush costs two pool dispatches
//     (this sweep and the scatter) rather than several per layer. Lanes run
//     GapModel::Infer, the forward-only path: for the CNN family each
//     Conv2d -> BatchNorm -> ReLU block is one GEMM plus one in-place pass
//     over activation buffers the replica plans once per input shape, so a
//     steady-state flush allocates no activations
//     (tests/engine_memory_test.cc);
//   * per-instance CAMs land in rows of a persistent (B, D, n) scratch
//     (CamFromActivationInto);
//   * the M-transformation scatter (Definition 2) is driven by a morsel
//     sweep over target dimensions, via the inverse permutation, so every
//     (d, p, t) cell of the accumulator is owned by exactly one thread.
// Nothing is re-allocated across the k-loop, and — because scratch buffers
// live on the engine — nothing is re-allocated across series either, which
// is what the dataset-level (global) explanation path exploits.
//
// Lanes: a replica is created by Model::Clone on the first flush its worker
// id runs, on that worker's thread, and keyed by the id (stable per thread),
// so each replica's tensors always come from one thread's malloc arena
// (replicas that moved between threads grew the heap). Every ComputeMany
// entry refreshes the replicas from the model (io::CopyModelWeights), so a
// call sees the model's weights and BatchNorm statistics as they are at the
// call; the engine's own model only serves PrepareInput's shape probe, the
// weights and the class count. With a one-thread pool the caller runs every
// morsel itself, one lane, as a serial loop would.
//
// ComputeMany is the one k-loop: draw a permutation, flush a batch,
// finalize a request. Compute, ExplainDataset, the explain service's
// coalesced and streaming groups, and the adaptive-k variant (a tick
// callback with a stopping rule, see variants.h) all run on it.
//
// Determinism contract: at a fixed seed the engine is bit-identical to
// ComputeDcamSerial for every batch size and pool width (same mbar, same
// dcam, same n_g). An instance's model output does not depend on the flush
// it rides in nor on which of the bit-identical replicas runs it (each
// forward is a single-instance forward of the same weights, and Infer is
// bit-identical to the Forward the serial path runs), the CAM is
// per-instance, and the scatter performs the same single float add per
// (d, p, t) cell per permutation, in permutation order.

#ifndef DCAM_CORE_ENGINE_H_
#define DCAM_CORE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/dcam.h"
#include "models/model.h"
#include "tensor/tensor.h"

namespace dcam {
namespace core {

/// One refinement checkpoint of a ComputeMany request: its
/// permutation cursor after a tick round, plus — when the request was asked
/// to emit partials — the anytime dCAM map at that cursor. Ticks exist
/// because the k-loop is an anytime algorithm: mbar at k_done < k_target is
/// the same estimator at a smaller sample, so the partial map is meaningful
/// the whole way down.
struct DcamTick {
  /// Position of the request in the ComputeMany argument arrays.
  size_t index = 0;
  /// Permutations accumulated so far (> 0) and the request's full budget.
  int k_done = 0;
  int k_target = 0;
  /// n_g over the k_done permutations evaluated so far.
  int num_correct = 0;
  /// Partial dCAM map (D, n) and temporal filter mu (n) at k_done. Null
  /// unless DcamTickConfig::emit_partial[index]; points at engine-owned
  /// scratch that is only valid during the callback (clone to keep).
  const Tensor* map = nullptr;
  const Tensor* mu = nullptr;
  /// Convergence score: relative L2 change of the partial map vs the
  /// previous tick's (1.0 at the first tick, when there is no previous map;
  /// 0.0 when partials are not emitted for this request).
  double delta = 0.0;
};

/// Verdict of a tick callback: keep refining, or stop this request now. A
/// cancelled request's DcamResult carries the partial state at the boundary
/// (k = k_done, cancelled = true); its remaining permutation budget is never
/// drawn, so batch-mates stop sharing forward batches with it immediately.
enum class TickAction { kContinue, kCancel };

using DcamTickFn = std::function<TickAction(const DcamTick&)>;

/// Per-call tick settings of DcamEngine::ComputeMany (ignored without a
/// callback).
struct DcamTickConfig {
  /// Permutations drawn per request per tick round; 0 = the engine batch
  /// width (one full forward batch per round per live request).
  int tick_every = 0;
  /// Per-request: emit the partial map (and delta) on each tick. Costs a
  /// (D, D, n) copy + extraction per tick. Empty = all false.
  std::vector<uint8_t> emit_partial;
};

class DcamEngine {
 public:
  struct Config {
    /// Permutations evaluated per flush, that is, the most instance
    /// forwards one flush runs side by side (one per worker, each on its
    /// worker's replica). 0 (the default) adapts to the configured worker
    /// set: the global pool's width — which follows DCAM_CPU_SET when a core
    /// set is pinned, hardware concurrency otherwise — clamped to [1, 16],
    /// so every worker gets one instance per flush. On a single core this
    /// is 1 and the flush runs inline on the caller; a 4-core-pinned
    /// service must not inherit a 64-wide batch (and 64 replicas) from a
    /// 64-core host.
    int batch = 0;
  };

  /// The engine keeps a non-owning pointer to `model`, which must be a
  /// cube-input (d-architecture) GapModel that supports Model::Clone and
  /// outlives the engine. Verified on first use via PrepareInput's output
  /// shape. The model must not be modified during a ComputeMany call; a
  /// change between calls is picked up by the next call.
  explicit DcamEngine(models::GapModel* model);
  DcamEngine(models::GapModel* model, Config config);

  /// Batched drop-in for ComputeDcam: dCAM of `series` (D, n) for
  /// `class_idx`. Bit-identical to ComputeDcamSerial at the same seed.
  DcamResult Compute(const Tensor& series, int class_idx,
                     const DcamOptions& options = {});

  /// The k-loop. Explains many series in one pass: result[i] explains
  /// series[i] (D, n_i) w.r.t. class_idx[i] under options[i]. Permutation
  /// batches are packed across series boundaries whenever consecutive
  /// series share (D, n), so tail underfill costs at most one partial batch
  /// per shape change — the dataset-level path of Section 4.6.
  ///
  /// Requests advance round-robin: each round draws up to
  /// `ticks.tick_every` permutations per live request, then `on_tick` fires
  /// once per still-unfinished request with its cursor — and, for requests
  /// flagged in `ticks.emit_partial`, the partial map plus the convergence
  /// delta. Returning kCancel retires the request at that boundary; its
  /// unspent budget is never drawn, so later rounds pack only live
  /// requests. Ticks never fire for a request whose budget completed during
  /// the round, so a request with k <= tick_every sees zero ticks. Without
  /// a callback the whole budget is drawn in a single round.
  ///
  /// Memory: a request's (D, D, n) accumulator is allocated at its first
  /// draw and finalized right after the flush that accumulates its last
  /// permutation, so with keep_mbar == false and no callback the live
  /// accumulators are bounded by the packing horizon, not by N. With a
  /// callback every started request stays live until it retires.
  ///
  /// Determinism: per-request accumulation order depends only on that
  /// request's own permutation order, and per-instance forwards/CAMs are
  /// batch-composition-independent, so an uncancelled request's result is
  /// bit-identical to ComputeDcamSerial at the same seed, regardless of
  /// tick_every, of cancellations among batch-mates, and of how rounds
  /// interleave requests. (Verified by engine_test.)
  std::vector<DcamResult> ComputeMany(const std::vector<Tensor>& series,
                                      const std::vector<int>& class_idx,
                                      const std::vector<DcamOptions>& options,
                                      const DcamTickConfig& ticks = {},
                                      const DcamTickFn& on_tick = nullptr);

  /// Shared-options overload: instance i uses options.seed + i so that
  /// per-instance permutation streams stay independent.
  std::vector<DcamResult> ComputeMany(const std::vector<Tensor>& series,
                                      const std::vector<int>& class_idx,
                                      const DcamOptions& options = {});

  models::GapModel* model() const { return model_; }
  int batch() const { return config_.batch; }

 private:
  // One (series, permutation) pair awaiting evaluation. Slots live in a
  // persistent pool (pending_) and are reused across flushes, so the perm
  // and inverse vectors keep their capacity instead of reallocating per
  // permutation.
  struct Slot {
    const Tensor* series = nullptr;
    std::vector<int> perm;
    std::vector<int> inverse;  // filled by Flush for the gather-form scatter
    int class_idx = 0;
    bool correct = false;      // this slot's n_g vote, set by its morsel
    Tensor* msum = nullptr;    // (D, D, n) accumulator this slot scatters into
    int* num_correct = nullptr;  // n_g counter this slot votes into
  };

  // Returns persistent scratch of the exact requested shape. The full-batch
  // shape and the most recent partial-batch shape are cached separately so
  // the k-loop tail does not thrash the main buffers.
  Tensor* ScratchCube(int64_t b, int64_t dims, int64_t len);
  Tensor* ScratchCam(int64_t b, int64_t dims, int64_t len);

  // The next free slot of the pool; Flush when the pool holds a full batch.
  Slot* NextSlot();

  // One worker id's model replica.
  struct Lane {
    std::unique_ptr<models::Model> replica;
    models::GapModel* model = nullptr;  // replica, as a GapModel
  };

  // The lane of worker id `worker`, created (by Model::Clone on the calling
  // thread) on first use.
  Lane* LaneFor(int worker);

  // Copies the model's current weights and buffers into every lane.
  void RefreshLanes();

  // Evaluates and scatters the pending slots (which share one (D, n)
  // shape), then marks the pool empty.
  void Flush();

  void CheckCubeModel(int64_t dims, int64_t len);

  models::GapModel* model_;
  Config config_;
  bool checked_cube_input_ = false;

  // Persistent scratch. The cube/CAM batches deliberately keep ordinary
  // Tensor storage rather than arena storage: a replica's layers cache a
  // shared-storage copy of their input (a row view that co-owns the whole
  // cube), so the cube must stay valid under shared ownership that can
  // outlive a flush. Warmth comes from reuse: the same buffers serve every
  // flush.
  Tensor cube_full_, cam_full_;  // batch == config_.batch
  Tensor cube_tail_, cam_tail_;  // most recent partial batch
  std::vector<Slot> pending_;    // slot pool; first pending_count_ are live
  int pending_count_ = 0;

  // Lanes indexed by worker id. The mutex guards the vector; a Lane itself
  // is only touched by its worker inside a sweep and by the calling thread
  // between sweeps.
  std::mutex lanes_mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  // Per-flush scatter grouping (slot ranges sharing one accumulator); a
  // member so the steady-state flush loop allocates nothing.
  struct Group {
    Tensor* msum;
    int64_t first, last;  // slot range [first, last)
  };
  std::vector<Group> groups_;
};

}  // namespace core
}  // namespace dcam

#endif  // DCAM_CORE_ENGINE_H_
