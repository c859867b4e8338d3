#include "cam/cam.h"

#include <algorithm>

namespace dcam {
namespace cam {

Tensor CamFromActivation(const Tensor& activation, const nn::Dense& head,
                         int class_idx) {
  DCAM_CHECK_EQ(activation.rank(), 4);
  Tensor out({activation.dim(0), activation.dim(2), activation.dim(3)});
  CamFromActivationInto(activation, head, class_idx, &out);
  return out;
}

void CamFromActivationInto(const Tensor& activation, const nn::Dense& head,
                           int class_idx, Tensor* out) {
  DCAM_CHECK_EQ(activation.rank(), 4);
  const int64_t B = activation.dim(0), nf = activation.dim(1),
                H = activation.dim(2), W = activation.dim(3);
  DCAM_CHECK_EQ(head.in_features(), nf);
  DCAM_CHECK_GE(class_idx, 0);
  DCAM_CHECK_LT(class_idx, head.out_features());
  DCAM_CHECK(out != nullptr);
  DCAM_CHECK(HasShape(*out, {B, H, W}))
      << "out must be (B, H, W), got " << ShapeToString(out->shape());
  // The class's weight row of the (classes, nf) head.
  const float* w = head.weight().value.data() + class_idx * nf;

  const int64_t plane = H * W;
  float* out_data = out->data();
  const float* act = activation.data();
  for (int64_t b = 0; b < B; ++b) {
    float* dst = out_data + b * plane;
    std::fill(dst, dst + plane, 0.0f);
    for (int64_t m = 0; m < nf; ++m) {
      const float wm = w[m];
      if (wm == 0.0f) continue;
      const float* src = act + (b * nf + m) * plane;
      for (int64_t i = 0; i < plane; ++i) dst[i] += wm * src[i];
    }
  }
}

Tensor ComputeCam(models::GapModel* model, const Tensor& series,
                  int class_idx) {
  DCAM_CHECK_EQ(series.rank(), 2);
  Tensor batch = series.Reshape({1, series.dim(0), series.dim(1)});
  model->Forward(model->PrepareInput(batch), /*training=*/false);
  Tensor cam = CamFromActivation(model->last_activation(), model->head(),
                                 class_idx);
  return cam.Reshape({cam.dim(1), cam.dim(2)});
}

Tensor BroadcastCam(const Tensor& cam, int dims) {
  DCAM_CHECK_EQ(cam.rank(), 2);
  if (cam.dim(0) == dims) return cam;
  DCAM_CHECK_EQ(cam.dim(0), 1) << "cannot broadcast multi-row CAM";
  const int64_t n = cam.dim(1);
  Tensor out({static_cast<int64_t>(dims), n});
  for (int64_t d = 0; d < dims; ++d) {
    for (int64_t t = 0; t < n; ++t) out.at(d, t) = cam.at(0, t);
  }
  return out;
}

}  // namespace cam
}  // namespace dcam
