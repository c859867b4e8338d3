// Sequential container of layers with per-layer activation and gradient
// capture (needed by CAM, which reads the last conv activation, and by
// grad-CAM, which reads the gradient flowing into an interior layer).

#ifndef DCAM_NN_SEQUENTIAL_H_
#define DCAM_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace dcam {
namespace nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns a raw observer pointer for later inspection.
  template <typename L, typename... Args>
  L* Emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* ptr = layer.get();
    layers_.push_back(std::move(layer));
    return ptr;
  }

  /// Appends an already-constructed layer.
  Layer* Add(std::unique_ptr<Layer> layer);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

  /// Forward-only evaluation, bit-identical to Forward(input, false). Each
  /// Conv2d -> BatchNorm -> ReLU run is one fused block: the convolution
  /// writes into a planned activation buffer and BatchNorm + ReLU are
  /// applied to it in place in one pass; any other layer runs its
  /// Forward(x, false). Block outputs alternate between two grow-only
  /// buffers sized by the first input of each shape, with one im2col
  /// scratch shared by every block, and each block keeps its view of them,
  /// so repeated calls at one shape allocate nothing (for an all-block
  /// body). The result is one of those views: it is valid until the next
  /// Infer. No layer caches are written and no per-layer outputs are kept,
  /// so Backward (and layer_output) must not follow; a fresh Forward
  /// restores them.
  const Tensor& Infer(const Tensor& input);

  std::vector<Parameter*> Params() override;
  std::vector<std::pair<std::string, Tensor*>> Buffers() override;
  std::string name() const override { return "Sequential"; }

  int num_layers() const { return static_cast<int>(layers_.size()); }
  Layer* layer(int i) { return layers_[i].get(); }

  /// Output of layer i from the most recent Forward().
  const Tensor& layer_output(int i) const;

  /// Gradient w.r.t. the *output* of layer i from the most recent Backward()
  /// (i.e., the gradient that entered layer i+1, or the top gradient for the
  /// last layer).
  const Tensor& layer_output_grad(int i) const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Tensor> outputs_;
  std::vector<Tensor> output_grads_;
  // Infer's plan: the im2col scratch, the two block-output buffers, and
  // per layer its output (a fused block's view of one of the buffers, or a
  // fallback layer's Forward result).
  Tensor infer_col_;
  Tensor infer_act_[2];
  std::vector<Tensor> infer_out_;
};

}  // namespace nn
}  // namespace dcam

#endif  // DCAM_NN_SEQUENTIAL_H_
