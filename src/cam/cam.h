// Class Activation Map (Zhou et al. 2016) for GAP-headed models, as applied
// to data series (Section 2.2 of the paper):
//
//   CAM_{C_j, i}(T) = sum_m w_m^{C_j} * A_{m,i}(T)
//
// where A is the last convolutional activation and w the dense weights from
// GAP features to the class-j logit. For the standard CNN the map is
// univariate (H = 1); for c-variants it is per-dimension (H = D, "cCAM");
// for d-variants rows index the C(T) cube combinations and must be
// post-processed by core/dcam.

#ifndef DCAM_CAM_CAM_H_
#define DCAM_CAM_CAM_H_

#include "models/model.h"
#include "tensor/tensor.h"

namespace dcam {
namespace cam {

/// Weighted sum of activation maps: activation (B, nf, H, W) and the dense
/// head's weight row of `class_idx` -> (B, H, W).
Tensor CamFromActivation(const Tensor& activation, const nn::Dense& head,
                         int class_idx);

/// In-place variant: the CAM of `class_idx` for every instance of a batch,
/// written into a preallocated (B, H, W) tensor; bit-identical to
/// CamFromActivation. Serial, so the engine's lanes call it per instance.
void CamFromActivationInto(const Tensor& activation, const nn::Dense& head,
                           int class_idx, Tensor* out);

/// Runs `model` on one raw series (D, n) in eval mode and returns the CAM of
/// `class_idx`, shape (H, W): (1, n) for standard models, (D, n) for
/// c-variants, (D, n) over cube rows for d-variants.
Tensor ComputeCam(models::GapModel* model, const Tensor& series,
                  int class_idx);

/// Broadcasts a (1, n) univariate CAM to (D, n) (how the paper scores the
/// Dr-acc of univariate-CAM models, marked with a star in Table 3); returns
/// the input unchanged if it already has D rows.
Tensor BroadcastCam(const Tensor& cam, int dims);

}  // namespace cam
}  // namespace dcam

#endif  // DCAM_CAM_CAM_H_
