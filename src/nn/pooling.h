// Pooling and reshaping layers.
//
// GlobalAvgPool is the layer that makes CAM applicable at all (Section 2.2):
// it averages each activation map A_m into a single value so the following
// dense layer's weights w_m^{C_j} linearly score the maps.

#ifndef DCAM_NN_POOLING_H_
#define DCAM_NN_POOLING_H_

#include <string>

#include "nn/layer.h"

namespace dcam {
namespace nn {

/// Averages all spatial positions: (B, C, L) or (B, C, H, W) -> (B, C).
class GlobalAvgPool : public Layer {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  /// Forward-only: Forward's (B, C) output, bit for bit, written into `*out`
  /// (reshaped only when its shape differs). Keeps no backward cache.
  void Infer(const Tensor& input, Tensor* out) const;
  Tensor Backward(const Tensor& grad_output) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  Shape cached_shape_;
};

/// 1-D max pooling over (B, C, L) with the given kernel/stride/padding.
/// Padded positions are treated as -inf (never selected).
class MaxPool1d : public Layer {
 public:
  MaxPool1d(int kernel, int stride, int padding);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool1d"; }

 private:
  int kernel_;
  int stride_;
  int padding_;
  Shape cached_in_shape_;
  std::vector<int64_t> argmax_;  // flat input index per output element
};

/// 2-D max pooling over (B, C, H, W).
class MaxPool2d : public Layer {
 public:
  MaxPool2d(int kernel_h, int kernel_w, int stride_h, int stride_w, int pad_h,
            int pad_w);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2d"; }

 private:
  int kernel_h_, kernel_w_;
  int stride_h_, stride_w_;
  int pad_h_, pad_w_;
  Shape cached_in_shape_;
  std::vector<int64_t> argmax_;
};

/// Flattens (B, ...) -> (B, prod(...)).
class Flatten : public Layer {
 public:
  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  Shape cached_shape_;
};

}  // namespace nn
}  // namespace dcam

#endif  // DCAM_NN_POOLING_H_
