// Fully connected layer (B, in) -> (B, out).
//
// The dense layer after the Global Average Pooling is what CAM/dCAM read
// their class weights w_m^{C_j} from (Section 2.2).

#ifndef DCAM_NN_DENSE_H_
#define DCAM_NN_DENSE_H_

#include <string>
#include <vector>

#include "nn/layer.h"

namespace dcam {
namespace nn {

class Dense : public Layer {
 public:
  Dense(int in_features, int out_features, Rng* rng, bool use_bias = true);

  Tensor Forward(const Tensor& input, bool training) override;
  /// Forward-only: Forward's (B, out) output, bit for bit, written into
  /// `*out` (reshaped only when its shape differs). Keeps no backward cache.
  void Infer(const Tensor& input, Tensor* out) const;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Params() override;
  std::string name() const override { return "Dense"; }

  /// Weight matrix, shape (out_features, in_features). CAM reads row j as
  /// the per-kernel weights of class j.
  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  Parameter& bias() { return bias_; }
  const Parameter& bias() const { return bias_; }

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  bool use_bias_;
  Parameter weight_;  // (out, in)
  Parameter bias_;    // (out)
  Tensor cached_input_;
};

}  // namespace nn
}  // namespace dcam

#endif  // DCAM_NN_DENSE_H_
