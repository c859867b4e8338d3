// Batched dCAM explanation engine.
//
// The paper's explanation loop (Section 4.4) evaluates k random permutations
// per explained series: k forwards of a (D, D, n) cube through a trained
// d-architecture model. ComputeDcamSerial runs them one at a time and
// re-allocates the permuted series, the C(S) cube, and the CAM buffer on
// every iteration.
//
// DcamEngine streams the k-loop through the worker pool as one pipeline per
// ComputeMany call:
//   * compute: the call makes one morsel sweep with one long-running lane
//     per pool participant. A lane repeatedly claims the next *slot* (one
//     (series, permutation) pair) in the deterministic draw order, builds
//     its cube into a lane-owned (1, D, D, n) buffer (BuildCubeInto — no
//     ApplyPermutation / PrepareInput intermediates), runs it through the
//     executing worker's model replica (GapModel::Infer, the fused
//     forward-only path, whose nested layer calls run serially inside the
//     lane), and leaves the slot's n_g vote and CAM in a window of
//     `Config::batch` in-flight slots. A lane runs at most one window ahead
//     of the oldest uncommitted slot;
//   * commit: slots are committed strictly in slot order, as soon as their
//     prefix is complete, by whichever lane completes that prefix. A commit
//     is the M-transformation scatter (Definition 2, via the inverse
//     permutation) into the request's (D, D, n) accumulator, the n_g vote,
//     and the finalize after a request's last permutation;
//   * ticks: a commit that reaches a request's tick boundary holds that
//     request's next slot back until the tick has run. Tick callbacks (the
//     partial-map snapshot, the callback itself, and a cancellation's
//     finalize) run on the thread that called ComputeMany, between its own
//     lane's forwards; the other lanes keep computing up to the window edge
//     meanwhile. So that a partial map is not held back by a forward, the
//     caller starts none while every slot up to an emitting tick boundary
//     is already in flight.
// There is no barrier per batch or per tick round: the only fork-join is the
// call's one sweep. Steady-state slots allocate nothing: the window's slots,
// the lanes' cubes and each replica's activation, GAP and logit buffers are
// reused across the k-loop, and across series too, which is what the
// dataset-level (global) explanation path exploits
// (tests/engine_memory_test.cc).
//
// Lanes: a replica is created by Model::Clone on the first slot its worker
// id claims, on that worker's thread, and keyed by the id (stable per
// thread), so each replica's tensors always come from one thread's malloc
// arena. Every ComputeMany entry refreshes the replicas from the model
// (io::CopyModelWeights), so a call sees the model's weights and BatchNorm
// statistics as they are at the call; the engine's own model only serves
// PrepareInput's shape probe, the weights and the class count. With a
// one-thread pool (or a call from inside another parallel region) the
// caller's lane runs every slot itself, as a serial loop would.
//
// ComputeMany is the one k-loop. Compute, ExplainDataset, the explain
// service's coalesced and streaming groups, and the adaptive-k variant (a
// tick callback with a stopping rule, see variants.h) all run on it.
//
// Determinism contract: at a fixed seed the engine is bit-identical to
// ComputeDcamSerial for every window, tick cadence and pool width (same
// mbar, same dcam, same n_g). A slot's model output does not depend on the
// lane that runs it (each forward is a single-instance forward of the same
// weights on a bit-identical replica, and Infer is bit-identical to the
// Forward the serial path runs), the CAM is per-slot, and the in-order
// commit performs the same single float add per (d, p, t) cell per
// permutation, in permutation order.

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
/// (k = k_done, cancelled = true). Its remaining budget is no longer drawn,
/// so batch-mates stop sharing the lanes with it at once; the slots of it
/// that lanes had already computed past the boundary (at most one window,
/// Config::batch) are dropped, never accumulated.
enum class TickAction { kContinue, kCancel };

/// A tick callback. It runs on the thread that called ComputeMany, once per
/// tick boundary of each request, in commit order (for requests ticking in
/// the same round: in request order). While it runs, the request's
/// accumulation waits at the boundary; the lanes keep computing. It runs
/// inside the engine's lane sweep, so it must not throw.
using DcamTickFn = std::function<TickAction(const DcamTick&)>;

/// Per-call tick settings of DcamEngine::ComputeMany (ignored without a
/// callback).
struct DcamTickConfig {
  /// Permutations drawn per request per tick round; 0 = the engine's window
  /// (Config::batch).
  int tick_every = 0;
  /// Per-request: emit the partial map (and delta) on each tick. Costs a
  /// (D, D, n) copy + extraction per tick. Empty = all false.
  std::vector<uint8_t> emit_partial;
};

class DcamEngine {
 public:
  struct Config {
    /// The commit window: the most slots (permutation forwards) in flight
    /// between the oldest uncommitted slot and the newest claimed one. A
    /// wider window lets lanes run further ahead of a slow forward or a
    /// pending tick; each slot holds its permutation and a (D, n) CAM.
    /// 0 (the default) adapts to the configured worker set: twice the
    /// global pool's width, which follows DCAM_CPU_SET when a core set is
    /// pinned and hardware concurrency otherwise. On a single core every
    /// slot runs inline on the caller.
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
  /// series[i] (D, n_i) w.r.t. class_idx[i] under options[i]. The lanes
  /// stream slots across series boundaries, so series of different shapes
  /// may share one call.
  ///
  /// Draw order: requests advance round-robin, up to `ticks.tick_every`
  /// permutations per live request per round. After a request's
  /// permutations of a round are committed, `on_tick` fires for it (on the
  /// calling thread) with its cursor — and, for requests flagged in
  /// `ticks.emit_partial`, the partial map plus the convergence delta.
  /// Returning kCancel retires the request at that boundary: its unspent
  /// budget is never drawn, and slots of it computed ahead are dropped.
  /// Ticks never fire for a request whose budget completes in the round, so
  /// a request with k <= tick_every sees zero ticks. Without a callback
  /// each request's whole budget is one round.
  ///
  /// Memory: a request's (D, D, n) accumulator is allocated at its first
  /// commit and finalized at its last, so with keep_mbar == false the live
  /// accumulators are bounded by the requests one window spans, not by N.
  ///
  /// Determinism: per-request accumulation order depends only on that
  /// request's own permutation order, and per-slot forwards/CAMs are
  /// lane-independent, so an uncancelled request's result is bit-identical
  /// to ComputeDcamSerial at the same seed, regardless of the window, of
  /// tick_every, of cancellations among batch-mates, and of how rounds
  /// interleave requests; a cancelled one is ComputeDcamSerial at
  /// k = k_done. (Verified by engine_test.)
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
  class Sweep;

  // One worker id's model replica and the cube its forwards read.
  struct Lane {
    std::unique_ptr<models::Model> replica;
    models::GapModel* model = nullptr;  // replica, as a GapModel
    Tensor cube;                        // (1, D, D, n)
  };

  // One window position: the slot in flight there, from its claim until
  // its commit (see Sweep). Entries are reused round the ring, so the
  // permutation vectors and the CAM keep their storage across the k-loop.
  struct Slot {
    size_t request = 0;
    std::vector<int> perm;
    std::vector<int> inverse;  // for the gather-form scatter
    Tensor cam;                // (1, D, n)
    bool correct = false;      // this slot's n_g vote
    bool ready = false;        // computed; committable once its prefix is
    bool ends_emitting_round = false;  // its commit ticks with a partial map
  };

  // The lane of worker id `worker`, created (by Model::Clone on the calling
  // thread) on first use.
  Lane* LaneFor(int worker);

  // Copies the model's current weights and buffers into every lane.
  void RefreshLanes();

  void CheckCubeModel(int64_t dims, int64_t len);

  models::GapModel* model_;
  Config config_;
  bool checked_cube_input_ = false;
  bool running_ = false;  // a ComputeMany call is in progress

  // The commit window, config_.batch entries; slot s lives at s % batch.
  std::vector<Slot> window_;

  // Lanes indexed by worker id. The mutex guards the vector; a Lane itself
  // is only touched by its worker inside a sweep and by the calling thread
  // between sweeps.
  std::mutex lanes_mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace core
}  // namespace dcam

#endif  // DCAM_CORE_ENGINE_H_
