// Extensions and ablations of the dCAM pipeline:
//
//   * ExtractionRule — alternatives to Definition 3's variance x mean
//     extraction, used by bench_ablation to justify the paper's choice.
//   * ComputeDcamAdaptive — chooses the number of permutations k online by
//     stopping when the map stabilizes. The paper fixes k = 100 and notes
//     that "studying ... architectures that could reduce the number of
//     permutations needed is an open research problem" (Section 5.5); the
//     stopping rule here addresses the practical side: spend permutations
//     only while they still change the answer. It runs as a tick callback
//     over DcamEngine::ComputeMany, so a converged map is exactly the
//     fixed-k map at k = k_used.
//   * ContrastiveDcam — the difference map dCAM_Ca - dCAM_Cb, highlighting
//     features that argue for class a specifically over class b.

#ifndef DCAM_CORE_VARIANTS_H_
#define DCAM_CORE_VARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dcam.h"
#include "models/model.h"
#include "tensor/tensor.h"

namespace dcam {
namespace core {

/// How the final (D, n) map is extracted from M-bar (D, D, n).
enum class ExtractionRule {
  /// Definition 3: Var_p(mbar[d][:,t]) * mu_t — the paper's rule.
  kVarianceTimesMu,
  /// Variance alone: no temporal filtering by mu.
  kVarianceOnly,
  /// Position-mean alone: mean_p(mbar[d][:,t]) — ignores the positional
  /// variance signal; equivalent to an averaged CAM per dimension.
  kMeanOnly,
  /// Mean absolute deviation x mu: a robust variant of Definition 3.
  kMadTimesMu,
};

std::string ExtractionRuleName(ExtractionRule rule);

const std::vector<ExtractionRule>& AllExtractionRules();

/// Extracts a (D, n) map from `mbar` under `rule`.
Tensor ExtractWithRule(const Tensor& mbar, ExtractionRule rule);

/// Relative L2 change sqrt(|a - b|^2 / |b|^2) between two same-shaped maps —
/// the convergence score of the adaptive-k stopping rule and of the
/// streaming (anytime) tick path. |b| == 0 yields 0 when a == b, 1 otherwise.
double RelativeL2Delta(const Tensor& a, const Tensor& b);

struct AdaptiveDcamOptions {
  /// Permutations evaluated between convergence checks.
  int batch = 10;
  /// Hard ceiling on the total number of permutations.
  int max_k = 400;
  /// Converged when the relative L2 change of the map across a batch stays
  /// below this for `stable_batches` consecutive checks.
  double tolerance = 0.02;
  int stable_batches = 2;
  uint64_t seed = 42;
  bool include_identity = true;
};

struct AdaptiveDcamResult {
  /// Final map and bookkeeping, as in DcamResult.
  DcamResult result;
  /// Permutations actually spent.
  int k_used = 0;
  /// Relative L2 deltas observed at each convergence check.
  std::vector<double> deltas;
  /// True when the tolerance criterion fired before max_k.
  bool converged = false;
};

/// dCAM with an online stopping rule for k (see file comment).
AdaptiveDcamResult ComputeDcamAdaptive(models::GapModel* model,
                                       const Tensor& series, int class_idx,
                                       const AdaptiveDcamOptions& options = {});

/// dCAM_Ca(T) - dCAM_Cb(T): positive where a feature argues for class a
/// over class b, negative for the converse. Both maps share the same
/// permutation sample (same seed) so the difference isolates the class
/// axis.
Tensor ContrastiveDcam(models::GapModel* model, const Tensor& series,
                       int class_a, int class_b,
                       const DcamOptions& options = {});

}  // namespace core
}  // namespace dcam

#endif  // DCAM_CORE_VARIANTS_H_
