// 1-D convolution over (batch, channels, length) tensors.
//
// Used by the standard CNN/ResNet/InceptionTime baselines, which mix all
// input dimensions in their first layer (Section 2.1 of the paper).

#ifndef DCAM_NN_CONV1D_H_
#define DCAM_NN_CONV1D_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace dcam {
namespace nn {

/// Conv1d with stride 1 and symmetric zero padding.
/// Input (B, Cin, L) -> output (B, Cout, L + 2*padding - kernel + 1).
///
/// Forward/Backward lower the convolution to im2col + SGEMM (tensor/gemm.h)
/// with persistent per-layer scratch; the direct per-element loops survive
/// as ForwardNaive/BackwardNaive, the reference the equivalence tests and
/// naive-vs-kernel benchmarks compare against.
class Conv1d : public Layer {
 public:
  Conv1d(int in_channels, int out_channels, int kernel, int padding, Rng* rng,
         bool use_bias = true);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

  /// Direct-convolution reference path, numerically equivalent to
  /// Forward/Backward up to float summation order. ForwardNaive sets the
  /// input cache BackwardNaive consumes but invalidates the im2col scratch,
  /// so pairing it with the GEMM Backward aborts instead of silently using
  /// stale columns (BackwardNaive after Forward is fine).
  Tensor ForwardNaive(const Tensor& input);
  Tensor BackwardNaive(const Tensor& grad_output);

  std::vector<Parameter*> Params() override;
  std::string name() const override { return "Conv1d"; }

  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel() const { return kernel_; }
  int padding() const { return padding_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  int in_channels_;
  int out_channels_;
  int kernel_;
  int padding_;
  bool use_bias_;
  Parameter weight_;  // (Cout, Cin, K)
  Parameter bias_;    // (Cout)
  Tensor cached_input_;
  // Persistent im2col scratch: col_ holds the lowered input for the whole
  // batch, (B, Cin*K, Lout), built in Forward and reused by the weight
  // gradient; dcol_, same shape, is what the input gradient scatters from
  // (per-instance slices, parallel over the batch).
  Tensor col_;
  Tensor dcol_;
};

}  // namespace nn
}  // namespace dcam

#endif  // DCAM_NN_CONV1D_H_
