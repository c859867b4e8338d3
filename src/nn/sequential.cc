#include "nn/sequential.h"

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"

namespace dcam {
namespace nn {

Layer* Sequential::Add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return layers_.back().get();
}

Tensor Sequential::Forward(const Tensor& input, bool training) {
  DCAM_CHECK(!layers_.empty());
  outputs_.clear();
  outputs_.reserve(layers_.size());
  Tensor x = input;
  for (auto& layer : layers_) {
    x = layer->Forward(x, training);
    outputs_.push_back(x);
  }
  return x;
}

const Tensor& Sequential::Infer(const Tensor& input) {
  DCAM_CHECK(!layers_.empty());
  outputs_.clear();  // what Backward checks: Infer leaves nothing to reverse
  const size_t n = layers_.size();
  infer_out_.resize(n);
  const Tensor* x = &input;
  int next = 0;  // the block-output buffer the next fused block writes
  for (size_t i = 0; i < n; ++i) {
    const auto* conv = dynamic_cast<const Conv2d*>(layers_[i].get());
    const BatchNorm* bn =
        conv != nullptr && i + 2 < n
            ? dynamic_cast<const BatchNorm*>(layers_[i + 1].get())
            : nullptr;
    if (bn != nullptr &&
        dynamic_cast<const ReLU*>(layers_[i + 2].get()) != nullptr) {
      // *x never views infer_act_[next]: it is the input, a fallback layer's
      // output, or the other buffer.
      Tensor* out = &infer_out_[i];
      conv->Infer(*x, &infer_col_, &infer_act_[next], out);
      bn->InferReluInPlace(out);
      x = out;
      next ^= 1;
      i += 2;
    } else {
      infer_out_[i] = layers_[i]->Forward(*x, /*training=*/false);
      x = &infer_out_[i];
    }
  }
  return *x;
}

Tensor Sequential::Backward(const Tensor& grad_output) {
  DCAM_CHECK_EQ(outputs_.size(), layers_.size())
      << "Backward needs a preceding Forward (Infer keeps no caches)";
  output_grads_.assign(layers_.size(), Tensor());
  Tensor g = grad_output;
  for (int i = static_cast<int>(layers_.size()) - 1; i >= 0; --i) {
    output_grads_[i] = g;
    g = layers_[i]->Backward(g);
  }
  return g;
}

std::vector<Parameter*> Sequential::Params() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Params()) params.push_back(p);
  }
  return params;
}

std::vector<std::pair<std::string, Tensor*>> Sequential::Buffers() {
  std::vector<std::pair<std::string, Tensor*>> buffers;
  for (auto& layer : layers_) {
    for (auto& b : layer->Buffers()) buffers.push_back(std::move(b));
  }
  return buffers;
}

const Tensor& Sequential::layer_output(int i) const {
  DCAM_CHECK_GE(i, 0);
  DCAM_CHECK_LT(i, static_cast<int>(outputs_.size()));
  return outputs_[i];
}

const Tensor& Sequential::layer_output_grad(int i) const {
  DCAM_CHECK_GE(i, 0);
  DCAM_CHECK_LT(i, static_cast<int>(output_grads_.size()));
  return output_grads_[i];
}

}  // namespace nn
}  // namespace dcam
