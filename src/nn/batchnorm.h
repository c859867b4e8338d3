// Batch normalization over the channel axis of rank-3 (B, C, L) or rank-4
// (B, C, H, W) tensors.
//
// All convolutional blocks in the paper's architectures interleave BatchNorm
// with ReLU (Section 2.1). Training mode uses batch statistics and updates
// exponential running averages; evaluation mode (the mode in which CAM and
// dCAM are computed) uses the running statistics.

#ifndef DCAM_NN_BATCHNORM_H_
#define DCAM_NN_BATCHNORM_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace dcam {
namespace nn {

class BatchNorm : public Layer {
 public:
  explicit BatchNorm(int num_features, float momentum = 0.1f,
                     float eps = 1e-5f);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

  /// Forward-only BatchNorm (running statistics) followed by ReLU, in place
  /// over `x`, in one pass: bit-identical to ReLU::Forward applied to
  /// Forward(x, false). Keeps no backward cache.
  void InferReluInPlace(Tensor* x) const;

  std::vector<Parameter*> Params() override;
  std::vector<std::pair<std::string, Tensor*>> Buffers() override {
    return {{"running_mean", &running_mean_}, {"running_var", &running_var_}};
  }
  std::string name() const override { return "BatchNorm"; }

  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  // 1 / sqrt(var + eps), rounded to float: the one place both forwards
  // derive a channel's scale from its variance.
  float InvStd(double var) const;

  int num_features_;
  float momentum_;
  float eps_;
  Parameter gamma_;  // (C) scale
  Parameter beta_;   // (C) shift
  Tensor running_mean_;
  Tensor running_var_;

  // Caches from the last Forward.
  bool cached_training_ = false;
  Tensor cached_xhat_;    // normalized input, same shape as input
  Tensor cached_invstd_;  // (C)
};

}  // namespace nn
}  // namespace dcam

#endif  // DCAM_NN_BATCHNORM_H_
