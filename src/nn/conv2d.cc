#include "nn/conv2d.h"

#include "tensor/gemm.h"
#include "tensor/gemm_bf16.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace dcam {
namespace nn {

Conv2d::Conv2d(int in_channels, int out_channels, int kernel_h, int kernel_w,
               int pad_h, int pad_w, Rng* rng, bool use_bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_h_(kernel_h),
      kernel_w_(kernel_w),
      pad_h_(pad_h),
      pad_w_(pad_w),
      use_bias_(use_bias),
      weight_("conv2d.w", {out_channels, in_channels, kernel_h, kernel_w}),
      bias_("conv2d.b", {out_channels}) {
  DCAM_CHECK_GT(in_channels, 0);
  DCAM_CHECK_GT(out_channels, 0);
  DCAM_CHECK_GT(kernel_h, 0);
  DCAM_CHECK_GT(kernel_w, 0);
  HeUniformInit(&weight_.value,
                static_cast<int64_t>(in_channels) * kernel_h * kernel_w, rng);
}

Tensor Conv2d::Forward(const Tensor& input, bool training) {
  DCAM_CHECK_EQ(input.rank(), 4);
  DCAM_CHECK_EQ(input.dim(1), in_channels_);
  const int64_t B = input.dim(0), H = input.dim(2), W = input.dim(3);
  const int64_t Hout = H + 2 * pad_h_ - kernel_h_ + 1;
  const int64_t Wout = W + 2 * pad_w_ - kernel_w_ + 1;
  DCAM_CHECK_GT(Hout, 0);
  DCAM_CHECK_GT(Wout, 0);
  cached_input_ = input;

  const int64_t Cin = in_channels_, Cout = out_channels_;
  const int64_t KH = kernel_h_, KW = kernel_w_, PH = pad_h_, PW = pad_w_;
  const int64_t CKK = Cin * KH * KW;
  const int64_t HW = Hout * Wout;

  if (!training && gemm::CurrentGemmPrecision() == gemm::Precision::kBf16) {
    // Inference-only bf16 path: the lowered input is written and re-read as
    // 16-bit columns (half the im2col traffic), and the widening GEMM rounds
    // the weights at pack time. Gradients never see this path — and the
    // float32 scratch is invalidated so a Backward after a bf16 forward
    // aborts on its shape check instead of consuming stale columns.
    col_ = Tensor();
    col16_.resize(static_cast<size_t>(B * CKK * HW));
    Tensor out({B, Cout, Hout, Wout});
    const float* in = input.data();
    uint16_t* col16 = col16_.data();
    ParallelFor(0, B, [&](int64_t b) {
      gemm::Im2Col2dBf16(in + b * Cin * H * W, Cin, H, W, KH, KW, PH, PW,
                         col16 + b * CKK * HW);
    });
    const float* w = weight_.value.data();
    const float* bias = bias_.value.data();
    float* o = out.data();
    for (int64_t b = 0; b < B; ++b) {
      float* ob = o + b * Cout * HW;
      float beta = 0.0f;
      if (use_bias_) {
        for (int64_t co = 0; co < Cout; ++co) {
          float* oplane = ob + co * HW;
          for (int64_t i = 0; i < HW; ++i) oplane[i] = bias[co];
        }
        beta = 1.0f;
      }
      gemm::SgemmBf16PackedB(Cout, HW, CKK, 1.0f, w, CKK,
                             col16 + b * CKK * HW, HW, beta, ob, HW);
    }
    return out;
  }

  EnsureTensorShape(&col_, {B, CKK, HW});
  Tensor out({B, Cout, Hout, Wout});
  const float* in = input.data();
  const float* w = weight_.value.data();
  const float* bias = bias_.value.data();
  float* col = col_.data();
  float* o = out.data();
  // One pass over the batch lowers each instance and, with a bias, fills its
  // output planes for the GEMM to accumulate onto.
  ParallelMorsel(0, B, 1, [&](int /*worker*/, int64_t lo, int64_t hi) {
    for (int64_t b = lo; b < hi; ++b) {
      gemm::Im2Col2d(in + b * Cin * H * W, Cin, H, W, KH, KW, PH, PW,
                     col + b * CKK * HW);
      if (!use_bias_) continue;
      float* ob = o + b * Cout * HW;
      for (int64_t co = 0; co < Cout; ++co) {
        float* oplane = ob + co * HW;
        for (int64_t i = 0; i < HW; ++i) oplane[i] = bias[co];
      }
    }
  });

  // Per instance: out_b (Cout, HW) = W (Cout, Cin*KH*KW) * col_b (CKK, HW)
  // (+ the bias already in out_b). One batched GEMM covers every instance's
  // blocks in a single morsel sweep, each blocked as a lone GEMM would be.
  gemm::SgemmStridedBatched(false, false, B, Cout, HW, CKK, 1.0f, w, CKK, col,
                            HW, CKK * HW, use_bias_ ? 1.0f : 0.0f, o, HW,
                            Cout * HW);
  return out;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  DCAM_CHECK(!cached_input_.empty()) << "Backward before Forward";
  const Tensor& input = cached_input_;
  const int64_t B = input.dim(0), H = input.dim(2), W = input.dim(3);
  const int64_t Hout = grad_output.dim(2), Wout = grad_output.dim(3);
  DCAM_CHECK_EQ(grad_output.dim(0), B);
  DCAM_CHECK_EQ(grad_output.dim(1), out_channels_);
  const int64_t Cin = in_channels_, Cout = out_channels_;
  const int64_t KH = kernel_h_, KW = kernel_w_, PH = pad_h_, PW = pad_w_;
  const int64_t CKK = Cin * KH * KW;
  const int64_t HW = Hout * Wout;
  DCAM_CHECK(col_.shape() == Shape({B, CKK, HW}))
      << "Backward im2col scratch does not match Forward";
  const float* w = weight_.value.data();
  const float* go = grad_output.data();
  const float* col = col_.data();

  // Input gradient: dcol_b = W^T (CKK, Cout) * go_b (Cout, HW), then col2im
  // scatters the columns back into the (zero-initialized) grad_in.
  // Parallel over the batch (disjoint dcol_/grad_in slices per instance);
  // the per-instance GEMMs degrade to serial inside the parallel region.
  Tensor grad_in(input.shape());
  EnsureTensorShape(&dcol_, {B, CKK, HW});
  float* gi = grad_in.data();
  float* dcol = dcol_.data();
  ParallelFor(0, B, [&](int64_t b) {
    float* dcol_b = dcol + b * CKK * HW;
    gemm::SgemmTN(CKK, HW, Cout, 1.0f, w, go + b * Cout * HW, 0.0f, dcol_b);
    gemm::Col2Im2d(dcol_b, Cin, H, W, KH, KW, PH, PW,
                   gi + b * Cin * H * W);
  });

  // Weight gradient: dW (Cout, CKK) += go_b (Cout, HW) * col_b^T, beta = 1
  // accumulating straight into the parameter gradient.
  float* gw = weight_.grad.data();
  for (int64_t b = 0; b < B; ++b) {
    gemm::SgemmNT(Cout, CKK, HW, 1.0f, go + b * Cout * HW, col + b * CKK * HW,
                  1.0f, gw);
  }

  if (use_bias_) {
    float* gb = bias_.grad.data();
    ParallelFor(0, Cout, [&](int64_t co) {
      double acc = 0.0;
      for (int64_t b = 0; b < B; ++b) {
        const float* gplane = go + (b * Cout + co) * HW;
        for (int64_t i = 0; i < HW; ++i) acc += gplane[i];
      }
      gb[co] += static_cast<float>(acc);
    });
  }
  return grad_in;
}

Tensor Conv2d::ForwardNaive(const Tensor& input) {
  DCAM_CHECK_EQ(input.rank(), 4);
  DCAM_CHECK_EQ(input.dim(1), in_channels_);
  const int64_t B = input.dim(0), H = input.dim(2), W = input.dim(3);
  const int64_t Hout = H + 2 * pad_h_ - kernel_h_ + 1;
  const int64_t Wout = W + 2 * pad_w_ - kernel_w_ + 1;
  DCAM_CHECK_GT(Hout, 0);
  DCAM_CHECK_GT(Wout, 0);
  cached_input_ = input;
  // Invalidate the im2col scratch so a (mismatched) GEMM Backward after a
  // naive forward fails its shape check instead of reusing stale columns.
  col_ = Tensor();

  Tensor out({B, out_channels_, Hout, Wout});
  const float* w = weight_.value.data();
  const float* bias = bias_.value.data();
  const float* in = input.data();
  float* o = out.data();
  const int64_t Cin = in_channels_, Cout = out_channels_;
  const int64_t KH = kernel_h_, KW = kernel_w_, PH = pad_h_, PW = pad_w_;

  ParallelFor(0, B * Cout, [&](int64_t idx) {
    const int64_t b = idx / Cout;
    const int64_t co = idx % Cout;
    const float* inb = in + b * Cin * H * W;
    float* oplane = o + (b * Cout + co) * Hout * Wout;
    if (use_bias_) {
      for (int64_t i = 0; i < Hout * Wout; ++i) oplane[i] = bias[co];
    }
    for (int64_t ci = 0; ci < Cin; ++ci) {
      const float* iplane = inb + ci * H * W;
      const float* wk = w + ((co * Cin + ci) * KH) * KW;
      for (int64_t kh = 0; kh < KH; ++kh) {
        const int64_t ylo = std::max<int64_t>(0, PH - kh);
        const int64_t yhi = std::min<int64_t>(Hout, H + PH - kh);
        for (int64_t kw = 0; kw < KW; ++kw) {
          const float wv = wk[kh * KW + kw];
          const int64_t xlo = std::max<int64_t>(0, PW - kw);
          const int64_t xhi = std::min<int64_t>(Wout, W + PW - kw);
          for (int64_t y = ylo; y < yhi; ++y) {
            const float* irow = iplane + (y + kh - PH) * W + xlo + kw - PW;
            float* orow = oplane + y * Wout + xlo;
            for (int64_t x = xlo; x < xhi; ++x) *orow++ += wv * *irow++;
          }
        }
      }
    }
  });
  return out;
}

Tensor Conv2d::BackwardNaive(const Tensor& grad_output) {
  DCAM_CHECK(!cached_input_.empty()) << "Backward before Forward";
  const Tensor& input = cached_input_;
  const int64_t B = input.dim(0), H = input.dim(2), W = input.dim(3);
  const int64_t Hout = grad_output.dim(2), Wout = grad_output.dim(3);
  DCAM_CHECK_EQ(grad_output.dim(0), B);
  DCAM_CHECK_EQ(grad_output.dim(1), out_channels_);
  const int64_t Cin = in_channels_, Cout = out_channels_;
  const int64_t KH = kernel_h_, KW = kernel_w_, PH = pad_h_, PW = pad_w_;
  const float* w = weight_.value.data();
  const float* in = input.data();
  const float* go = grad_output.data();

  Tensor grad_in(input.shape());
  float* gi = grad_in.data();
  ParallelFor(0, B, [&](int64_t b) {
    const float* gob = go + b * Cout * Hout * Wout;
    float* gib = gi + b * Cin * H * W;
    for (int64_t co = 0; co < Cout; ++co) {
      const float* gplane = gob + co * Hout * Wout;
      for (int64_t ci = 0; ci < Cin; ++ci) {
        float* iplane = gib + ci * H * W;
        const float* wk = w + ((co * Cin + ci) * KH) * KW;
        for (int64_t kh = 0; kh < KH; ++kh) {
          const int64_t ylo = std::max<int64_t>(0, PH - kh);
          const int64_t yhi = std::min<int64_t>(Hout, H + PH - kh);
          for (int64_t kw = 0; kw < KW; ++kw) {
            const float wv = wk[kh * KW + kw];
            const int64_t xlo = std::max<int64_t>(0, PW - kw);
            const int64_t xhi = std::min<int64_t>(Wout, W + PW - kw);
            for (int64_t y = ylo; y < yhi; ++y) {
              const float* gr = gplane + y * Wout + xlo;
              float* ir = iplane + (y + kh - PH) * W + xlo + kw - PW;
              for (int64_t x = xlo; x < xhi; ++x) *ir++ += wv * *gr++;
            }
          }
        }
      }
    }
  });

  float* gw = weight_.grad.data();
  float* gb = bias_.grad.data();
  ParallelFor(0, Cout, [&](int64_t co) {
    double bias_acc = 0.0;
    for (int64_t b = 0; b < B; ++b) {
      const float* gplane = go + (b * Cout + co) * Hout * Wout;
      const float* inb = in + b * Cin * H * W;
      for (int64_t i = 0; i < Hout * Wout; ++i) bias_acc += gplane[i];
      for (int64_t ci = 0; ci < Cin; ++ci) {
        const float* iplane = inb + ci * H * W;
        float* gwk = gw + ((co * Cin + ci) * KH) * KW;
        for (int64_t kh = 0; kh < KH; ++kh) {
          const int64_t ylo = std::max<int64_t>(0, PH - kh);
          const int64_t yhi = std::min<int64_t>(Hout, H + PH - kh);
          for (int64_t kw = 0; kw < KW; ++kw) {
            const int64_t xlo = std::max<int64_t>(0, PW - kw);
            const int64_t xhi = std::min<int64_t>(Wout, W + PW - kw);
            double acc = 0.0;
            for (int64_t y = ylo; y < yhi; ++y) {
              const float* gr = gplane + y * Wout + xlo;
              const float* ir = iplane + (y + kh - PH) * W + xlo + kw - PW;
              for (int64_t x = xlo; x < xhi; ++x) acc += *gr++ * *ir++;
            }
            gwk[kh * KW + kw] += static_cast<float>(acc);
          }
        }
      }
    }
    if (use_bias_) gb[co] += static_cast<float>(bias_acc);
  });
  return grad_in;
}

std::vector<Parameter*> Conv2d::Params() {
  if (use_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace nn
}  // namespace dcam
