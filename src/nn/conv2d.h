// 2-D convolution over (batch, channels, height, width) tensors.
//
// This is the workhorse of the paper's proposal: the dCNN/dResNet/
// dInceptionTime architectures feed the C(T) cube as a (B, D, D, n) tensor
// (channels = dimensions of one row-permutation, height = the D cyclic rows,
// width = time) through Conv2d layers with (1, l) kernels, realizing the
// paper's kernels of size (D, l, 1). The cCNN baselines use (B, 1, D, n)
// inputs, and MTEX-CNN uses (l, 1) kernels.

#ifndef DCAM_NN_CONV2D_H_
#define DCAM_NN_CONV2D_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.h"

namespace dcam {
namespace nn {

/// Conv2d with stride 1 and symmetric zero padding per axis.
/// Input (B, Cin, H, W) -> (B, Cout, H + 2*ph - kh + 1, W + 2*pw - kw + 1).
///
/// Forward/Backward lower the convolution to im2col + SGEMM (tensor/gemm.h)
/// with persistent per-layer scratch; the direct per-element loops survive
/// as ForwardNaive/BackwardNaive, the reference the equivalence tests and
/// naive-vs-kernel benchmarks compare against.
class Conv2d : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel_h, int kernel_w,
         int pad_h, int pad_w, Rng* rng, bool use_bias = true);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;

  /// Forward-only: the output of Forward(input, false), bit for bit, written
  /// into `*out`, a view of the grow-only scratch `out_buf` (see
  /// ScratchView), with `col_buf` as the grow-only im2col scratch. Touches no
  /// layer state, so it keeps no backward cache and leaves Forward's own
  /// scratch alone; with `*out` kept by the caller, a repeated call at one
  /// input shape allocates nothing.
  void Infer(const Tensor& input, Tensor* col_buf, Tensor* out_buf,
             Tensor* out) const;

  /// Direct-convolution reference path, numerically equivalent to
  /// Forward/Backward up to float summation order. ForwardNaive sets the
  /// input cache BackwardNaive consumes but invalidates the im2col scratch,
  /// so pairing it with the GEMM Backward aborts instead of silently using
  /// stale columns (BackwardNaive after Forward is fine).
  Tensor ForwardNaive(const Tensor& input);
  Tensor BackwardNaive(const Tensor& grad_output);

  std::vector<Parameter*> Params() override;
  std::string name() const override { return "Conv2d"; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  int out_channels() const { return out_channels_; }

 private:
  // (B, Cout, Hout, Wout) for a (B, Cin, H, W) input; CHECKs the input.
  Shape OutputShape(const Tensor& input) const;
  // Its (Hout, Wout), without building a Shape.
  std::pair<int64_t, int64_t> OutputHW(const Tensor& input) const;

  // im2col into `col` (B, Cin*KH*KW, Hout*Wout) + one batched GEMM into
  // `out`, whose shape is OutputShape(input): the body Forward and Infer
  // share.
  void Convolve(const Tensor& input, float* col, Tensor* out) const;

  int in_channels_;
  int out_channels_;
  int kernel_h_;
  int kernel_w_;
  int pad_h_;
  int pad_w_;
  bool use_bias_;
  Parameter weight_;  // (Cout, Cin, KH, KW)
  Parameter bias_;    // (Cout)
  Tensor cached_input_;
  // Persistent im2col scratch: col_ holds the lowered input for the whole
  // batch, (B, Cin*KH*KW, Hout*Wout), built in Forward and reused by the
  // weight gradient; dcol_, same shape, is what the input gradient scatters
  // from (per-instance slices, parallel over the batch).
  Tensor col_;
  Tensor dcol_;
};

}  // namespace nn
}  // namespace dcam

#endif  // DCAM_NN_CONV2D_H_
