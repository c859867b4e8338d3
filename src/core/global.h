// Dataset-level aggregation of per-instance dCAMs (Section 4.6, used by the
// surgeon-skill use case of Section 5.8): max activation per sensor and mean
// activation per sensor per gesture, over a set of explained instances.

#ifndef DCAM_CORE_GLOBAL_H_
#define DCAM_CORE_GLOBAL_H_

#include <vector>

#include "core/engine.h"
#include "tensor/tensor.h"

namespace dcam {
namespace core {

struct GlobalExplanation {
  /// (num_instances, D): maximal dCAM activation of each sensor/dimension in
  /// each instance (the box-plot data of Figure 13(c)).
  Tensor max_per_sensor;
  /// (D, num_segments): mean dCAM activation of each sensor within each
  /// segment label (the heatmap of Figure 13(d)).
  Tensor mean_per_sensor_segment;
  /// (num_segments): number of timesteps observed per segment label.
  std::vector<int64_t> segment_support;
};

/// `dcams[i]` is the (D, n_i) dCAM of instance i; `segments[i]` assigns each
/// timestep of instance i a label in [0, num_segments) (e.g. surgical
/// gestures G1..G11). All instances must share D.
GlobalExplanation AggregateDcams(const std::vector<Tensor>& dcams,
                                 const std::vector<std::vector<int>>& segments,
                                 int num_segments);

/// A dataset-level explanation plus the per-instance results it aggregates.
struct DatasetExplanation {
  GlobalExplanation global;
  /// results[i] explains series[i]; its dcam feeds the aggregation.
  std::vector<DcamResult> results;
};

/// End-to-end dataset explanation (Section 4.6): explains series[i] w.r.t.
/// class_idx[i] under options[i] with the batched engine — one lane sweep
/// streams every series' permutations, so the whole dataset shares the
/// lanes' cubes and the commit window — then aggregates the per-instance
/// dCAMs over `segments` into a GlobalExplanation. The returned results
/// carry dcam, mu and n_g but not mbar: each accumulator is released as its
/// series completes, so live accumulators are bounded by the commit window,
/// not by the dataset size. Call ComputeMany with keep_mbar for the M-bars.
DatasetExplanation ExplainDataset(DcamEngine* engine,
                                  const std::vector<Tensor>& series,
                                  const std::vector<int>& class_idx,
                                  const std::vector<DcamOptions>& options,
                                  const std::vector<std::vector<int>>& segments,
                                  int num_segments);

}  // namespace core
}  // namespace dcam

#endif  // DCAM_CORE_GLOBAL_H_
