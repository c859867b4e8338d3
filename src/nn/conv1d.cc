#include "nn/conv1d.h"

#include "tensor/gemm.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace dcam {
namespace nn {

Conv1d::Conv1d(int in_channels, int out_channels, int kernel, int padding,
               Rng* rng, bool use_bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      padding_(padding),
      use_bias_(use_bias),
      weight_("conv1d.w", {out_channels, in_channels, kernel}),
      bias_("conv1d.b", {out_channels}) {
  DCAM_CHECK_GT(in_channels, 0);
  DCAM_CHECK_GT(out_channels, 0);
  DCAM_CHECK_GT(kernel, 0);
  DCAM_CHECK_GE(padding, 0);
  HeUniformInit(&weight_.value, static_cast<int64_t>(in_channels) * kernel,
                rng);
}

Tensor Conv1d::Forward(const Tensor& input, bool /*training*/) {
  DCAM_CHECK_EQ(input.rank(), 3);
  DCAM_CHECK_EQ(input.dim(1), in_channels_);
  const int64_t B = input.dim(0), L = input.dim(2);
  const int64_t Lout = L + 2 * padding_ - kernel_ + 1;
  DCAM_CHECK_GT(Lout, 0) << "series too short for kernel";
  cached_input_ = input;

  const int64_t Cin = in_channels_, Cout = out_channels_, K = kernel_,
                P = padding_;
  const int64_t CK = Cin * K;

  EnsureTensorShape(&col_, {B, CK, Lout});
  Tensor out({B, Cout, Lout});
  const float* in = input.data();
  const float* w = weight_.value.data();
  const float* bias = bias_.value.data();
  float* col = col_.data();
  float* o = out.data();
  // One pass over the batch lowers each instance and, with a bias, fills its
  // output rows for the GEMM to accumulate onto.
  ParallelMorsel(0, B, 1, [&](int /*worker*/, int64_t lo, int64_t hi) {
    for (int64_t b = lo; b < hi; ++b) {
      gemm::Im2Col1d(in + b * Cin * L, Cin, L, K, P, col + b * CK * Lout);
      if (!use_bias_) continue;
      float* ob = o + b * Cout * Lout;
      for (int64_t co = 0; co < Cout; ++co) {
        float* orow = ob + co * Lout;
        for (int64_t i = 0; i < Lout; ++i) orow[i] = bias[co];
      }
    }
  });

  // Per instance: out_b (Cout, Lout) = W (Cout, Cin*K) * col_b (Cin*K, Lout)
  // (+ the bias already in out_b). One batched GEMM covers every instance's
  // blocks in a single morsel sweep, each blocked as a lone GEMM would be.
  gemm::SgemmStridedBatched(false, false, B, Cout, Lout, CK, 1.0f, w, CK, col,
                            Lout, CK * Lout, use_bias_ ? 1.0f : 0.0f, o, Lout,
                            Cout * Lout);
  return out;
}

Tensor Conv1d::Backward(const Tensor& grad_output) {
  DCAM_CHECK(!cached_input_.empty()) << "Backward before Forward";
  const Tensor& input = cached_input_;
  const int64_t B = input.dim(0), L = input.dim(2);
  const int64_t Lout = grad_output.dim(2);
  DCAM_CHECK_EQ(grad_output.dim(0), B);
  DCAM_CHECK_EQ(grad_output.dim(1), out_channels_);
  const int64_t Cin = in_channels_, Cout = out_channels_, K = kernel_,
                P = padding_;
  const int64_t CK = Cin * K;
  DCAM_CHECK(col_.shape() == Shape({B, CK, Lout}))
      << "Backward im2col scratch does not match Forward";
  const float* w = weight_.value.data();
  const float* go = grad_output.data();
  const float* col = col_.data();

  // Input gradient: dcol_b = W^T (Cin*K, Cout) * go_b (Cout, Lout), then
  // col2im scatters the columns back into the (zero-initialized) grad_in.
  // Parallel over the batch (disjoint dcol_/grad_in slices per instance);
  // the per-instance GEMMs degrade to serial inside the parallel region.
  Tensor grad_in(input.shape());
  EnsureTensorShape(&dcol_, {B, CK, Lout});
  float* gi = grad_in.data();
  float* dcol = dcol_.data();
  ParallelFor(0, B, [&](int64_t b) {
    float* dcol_b = dcol + b * CK * Lout;
    gemm::SgemmTN(CK, Lout, Cout, 1.0f, w, go + b * Cout * Lout, 0.0f,
                  dcol_b);
    gemm::Col2Im1d(dcol_b, Cin, L, K, P, gi + b * Cin * L);
  });

  // Weight gradient: dW (Cout, Cin*K) += go_b (Cout, Lout) * col_b^T,
  // beta = 1 accumulating straight into the parameter gradient.
  float* gw = weight_.grad.data();
  for (int64_t b = 0; b < B; ++b) {
    gemm::SgemmNT(Cout, CK, Lout, 1.0f, go + b * Cout * Lout,
                  col + b * CK * Lout, 1.0f, gw);
  }

  if (use_bias_) {
    float* gb = bias_.grad.data();
    ParallelFor(0, Cout, [&](int64_t co) {
      double acc = 0.0;
      for (int64_t b = 0; b < B; ++b) {
        const float* gorow = go + (b * Cout + co) * Lout;
        for (int64_t i = 0; i < Lout; ++i) acc += gorow[i];
      }
      gb[co] += static_cast<float>(acc);
    });
  }
  return grad_in;
}

Tensor Conv1d::ForwardNaive(const Tensor& input) {
  DCAM_CHECK_EQ(input.rank(), 3);
  DCAM_CHECK_EQ(input.dim(1), in_channels_);
  const int64_t B = input.dim(0), L = input.dim(2);
  const int64_t Lout = L + 2 * padding_ - kernel_ + 1;
  DCAM_CHECK_GT(Lout, 0) << "series too short for kernel";
  cached_input_ = input;
  // Invalidate the im2col scratch so a (mismatched) GEMM Backward after a
  // naive forward fails its shape check instead of reusing stale columns.
  col_ = Tensor();

  Tensor out({B, out_channels_, Lout});
  const float* w = weight_.value.data();
  const float* bias = bias_.value.data();
  const float* in = input.data();
  float* o = out.data();
  const int64_t Cin = in_channels_, Cout = out_channels_, K = kernel_,
                P = padding_;

  ParallelFor(0, B, [&](int64_t b) {
    const float* inb = in + b * Cin * L;
    float* ob = o + b * Cout * Lout;
    for (int64_t co = 0; co < Cout; ++co) {
      float* orow = ob + co * Lout;
      if (use_bias_) {
        for (int64_t i = 0; i < Lout; ++i) orow[i] = bias[co];
      }
      for (int64_t ci = 0; ci < Cin; ++ci) {
        const float* irow = inb + ci * L;
        const float* wrow = w + (co * Cin + ci) * K;
        for (int64_t k = 0; k < K; ++k) {
          const float wv = wrow[k];
          // out[i] += wv * in[i + k - P] for valid input index.
          const int64_t lo = std::max<int64_t>(0, P - k);
          const int64_t hi = std::min<int64_t>(Lout, L + P - k);
          const float* ip = irow + lo + k - P;
          float* op = orow + lo;
          for (int64_t i = lo; i < hi; ++i) *op++ += wv * *ip++;
        }
      }
    }
  });
  return out;
}

Tensor Conv1d::BackwardNaive(const Tensor& grad_output) {
  DCAM_CHECK(!cached_input_.empty()) << "Backward before Forward";
  const Tensor& input = cached_input_;
  const int64_t B = input.dim(0), L = input.dim(2);
  const int64_t Lout = grad_output.dim(2);
  DCAM_CHECK_EQ(grad_output.dim(0), B);
  DCAM_CHECK_EQ(grad_output.dim(1), out_channels_);
  const int64_t Cin = in_channels_, Cout = out_channels_, K = kernel_,
                P = padding_;
  const float* w = weight_.value.data();
  const float* in = input.data();
  const float* go = grad_output.data();

  // Gradient w.r.t. input, parallel over batch.
  Tensor grad_in(input.shape());
  float* gi = grad_in.data();
  ParallelFor(0, B, [&](int64_t b) {
    const float* gob = go + b * Cout * Lout;
    float* gib = gi + b * Cin * L;
    for (int64_t co = 0; co < Cout; ++co) {
      const float* gorow = gob + co * Lout;
      for (int64_t ci = 0; ci < Cin; ++ci) {
        float* girow = gib + ci * L;
        const float* wrow = w + (co * Cin + ci) * K;
        for (int64_t k = 0; k < K; ++k) {
          const float wv = wrow[k];
          const int64_t lo = std::max<int64_t>(0, P - k);
          const int64_t hi = std::min<int64_t>(Lout, L + P - k);
          const float* gp = gorow + lo;
          float* ip = girow + lo + k - P;
          for (int64_t i = lo; i < hi; ++i) *ip++ += wv * *gp++;
        }
      }
    }
  });

  // Gradient w.r.t. weights/bias, parallel over output channel (each thread
  // owns a disjoint slice of the gradient tensors).
  float* gw = weight_.grad.data();
  float* gb = bias_.grad.data();
  ParallelFor(0, Cout, [&](int64_t co) {
    double bias_acc = 0.0;
    for (int64_t b = 0; b < B; ++b) {
      const float* gorow = go + (b * Cout + co) * Lout;
      const float* inb = in + b * Cin * L;
      for (int64_t i = 0; i < Lout; ++i) bias_acc += gorow[i];
      for (int64_t ci = 0; ci < Cin; ++ci) {
        const float* irow = inb + ci * L;
        float* gwrow = gw + (co * Cin + ci) * K;
        for (int64_t k = 0; k < K; ++k) {
          const int64_t lo = std::max<int64_t>(0, P - k);
          const int64_t hi = std::min<int64_t>(Lout, L + P - k);
          double acc = 0.0;
          const float* gp = gorow + lo;
          const float* ip = irow + lo + k - P;
          for (int64_t i = lo; i < hi; ++i) acc += *gp++ * *ip++;
          gwrow[k] += static_cast<float>(acc);
        }
      }
    }
    if (use_bias_) gb[co] += static_cast<float>(bias_acc);
  });
  return grad_in;
}

std::vector<Parameter*> Conv1d::Params() {
  if (use_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace nn
}  // namespace dcam
