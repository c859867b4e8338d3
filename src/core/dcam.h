// dCAM — Dimension-wise Class Activation Map (Section 4.4, the paper's core
// contribution).
//
// Pipeline, for one series T and target class C_j:
//   1. Sample k random permutations S_T of T's dimensions (4.4.1).
//   2. For each S_T: build C(S_T), forward through the trained
//      dCNN/dResNet/dInceptionTime, compute the standard CAM over the cube
//      rows, and scatter each row into the (dimension, position) matrix M
//      via idx (Definitions 1-2). Track n_g, the number of permutations the
//      model classifies as C_j (Section 4.6's explanation-quality proxy).
//   3. Average the k matrices into M-bar (4.4.2).
//   4. Extract dCAM[d][t] = Var_p(M-bar[d][p][t]) * mu(M-bar[:,:,t])
//      (Definition 3): a dimension whose activation is constant regardless of
//      its position is non-discriminant; strong per-position variance marks
//      discriminant subsequences (4.4.3).

#ifndef DCAM_CORE_DCAM_H_
#define DCAM_CORE_DCAM_H_

#include <cstdint>

#include "models/model.h"
#include "tensor/tensor.h"

namespace dcam {
namespace core {

struct DcamOptions {
  /// Number of random permutations k (the paper uses k = 100 by default and
  /// studies k in [1, 400] in Section 5.5).
  int k = 100;
  /// RNG seed for permutation sampling.
  uint64_t seed = 42;
  /// If true the first permutation is the identity (the order the model was
  /// trained on); the remaining k-1 are random.
  bool include_identity = true;
  /// If false, DcamResult.mbar is released once dcam/mu are extracted —
  /// saves D*D*n floats per instance, which dominates memory in
  /// dataset-level passes that only consume the final maps.
  bool keep_mbar = true;
};

struct DcamResult {
  /// The dimension-wise class activation map, shape (D, n).
  Tensor dcam;
  /// M-bar, shape (D, D, n): [dimension][position][time] averaged activation.
  Tensor mbar;
  /// mu(M-bar) per timestamp, shape (n) — the paper's temporal filter
  /// (sum over dimensions and positions divided by 2*D).
  Tensor mu;
  /// Number of permutations classified as the target class (n_g).
  int num_correct = 0;
  /// Number of permutations evaluated (k). For a request stopped early by a
  /// DcamEngine::ComputeMany tick callback this is the count actually
  /// accumulated, and dcam/mu are the partial map at that point.
  int k = 0;
  /// True when a ComputeMany tick callback returned kCancel before the full
  /// permutation budget was spent (for adaptive-k: the map converged).
  bool cancelled = false;
  /// Relative L2 change of the final map vs the last emitted partial map
  /// (ComputeMany with emit_partial and at least one tick; 0 otherwise).
  /// The anytime convergence score after a streaming client's final tick,
  /// and adaptive-k's last check when its budget runs out.
  double convergence = 0.0;

  /// n_g / k, the paper's explanation-quality proxy (Section 5.6).
  double CorrectRatio() const {
    return k > 0 ? static_cast<double>(num_correct) / k : 0.0;
  }
};

/// Computes dCAM for `series` (D, n) and class `class_idx` using a trained
/// d-architecture model (InputMode::kCube). The model is used in eval mode
/// and is not modified.
///
/// Thin wrapper over core::DcamEngine (see engine.h), which evaluates the k
/// permutations in batches; callers explaining more than one series should
/// hold an engine directly so its scratch buffers persist across calls.
DcamResult ComputeDcam(models::GapModel* model, const Tensor& series,
                       int class_idx, const DcamOptions& options = {});

/// Reference implementation: evaluates the k permutations strictly serially,
/// one batch-1 forward at a time, on the layers' own Forward (not the fused
/// GapModel::Infer the engine runs). Kept as the ground truth the batched
/// engine is tested (and benchmarked) against; produces bit-identical
/// results to ComputeDcam at the same seed.
DcamResult ComputeDcamSerial(models::GapModel* model, const Tensor& series,
                             int class_idx, const DcamOptions& options = {});

/// Definition 3 extraction alone: from an M-bar (D, D, n) produce the final
/// (D, n) map and the mu series. Exposed for tests and ablations.
void ExtractDcam(const Tensor& mbar, Tensor* dcam, Tensor* mu);

/// One permutation's contribution to M (Definition 2): forwards C(perm(T))
/// through the model, computes the CAM of `class_idx` over the cube rows and
/// scatters it into `msum` (D, D, n) via idx. Returns true when the model
/// classified this permutation as `class_idx` (the n_g counter's criterion).
/// The per-permutation step of ComputeDcamSerial.
bool AccumulatePermutation(models::GapModel* model, const Tensor& series,
                           int class_idx, const std::vector<int>& perm,
                           Tensor* msum);

}  // namespace core
}  // namespace dcam

#endif  // DCAM_CORE_DCAM_H_
