// The im2col+GEMM Conv1d/Conv2d paths against the direct-loop
// ForwardNaive/BackwardNaive references, plus finite-difference gradient
// checks, across padding / batch / odd-shape configurations including the
// kernel-longer-than-series edge the dCAM short-series workloads hit.

#include <gtest/gtest.h>

#include <cstring>

#include "gradcheck.h"
#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace dcam {
namespace {

using nn::Conv1d;
using nn::Conv2d;

void ZeroGrads(nn::Layer* layer) {
  for (nn::Parameter* p : layer->Params()) p->ZeroGrad();
}

// Runs Forward/Backward on both paths of a fresh layer pair constructed with
// the same seed and compares output, input gradient, and parameter
// gradients.
void CompareConv1dPaths(int cin, int cout, int kernel, int pad, int64_t B,
                        int64_t L, bool use_bias) {
  SCOPED_TRACE(::testing::Message()
               << "cin=" << cin << " cout=" << cout << " k=" << kernel
               << " pad=" << pad << " B=" << B << " L=" << L
               << " bias=" << use_bias);
  Rng rng(99);
  Conv1d conv(cin, cout, kernel, pad, &rng, use_bias);
  Tensor in({B, cin, L});
  in.FillNormal(&rng, 0.0f, 1.0f);

  Tensor out_gemm = conv.Forward(in, true);
  Tensor out_naive = conv.ForwardNaive(in);
  EXPECT_TRUE(ops::AllClose(out_gemm, out_naive, 1e-4, 1e-4))
      << "forward diff " << ops::MaxAbsDiff(out_gemm, out_naive);

  Tensor go(out_gemm.shape());
  go.FillNormal(&rng, 0.0f, 1.0f);

  conv.Forward(in, true);
  ZeroGrads(&conv);
  Tensor gi_gemm = conv.Backward(go);
  Tensor gw_gemm = conv.weight().grad.Clone();
  Tensor gb_gemm = conv.bias().grad.Clone();

  conv.ForwardNaive(in);
  ZeroGrads(&conv);
  Tensor gi_naive = conv.BackwardNaive(go);
  EXPECT_TRUE(ops::AllClose(gi_gemm, gi_naive, 1e-4, 1e-4))
      << "grad_in diff " << ops::MaxAbsDiff(gi_gemm, gi_naive);
  EXPECT_TRUE(ops::AllClose(gw_gemm, conv.weight().grad, 1e-3, 1e-3))
      << "grad_w diff " << ops::MaxAbsDiff(gw_gemm, conv.weight().grad);
  if (use_bias) {
    EXPECT_TRUE(ops::AllClose(gb_gemm, conv.bias().grad, 1e-3, 1e-3));
  }
}

TEST(ConvIm2ColTest, Conv1dMatchesNaive) {
  CompareConv1dPaths(1, 1, 1, 0, 1, 5, true);
  CompareConv1dPaths(2, 3, 3, 1, 3, 7, true);
  CompareConv1dPaths(3, 4, 5, 2, 2, 9, false);
  CompareConv1dPaths(4, 8, 7, 3, 2, 16, true);
  CompareConv1dPaths(8, 16, 3, 1, 5, 64, true);
}

TEST(ConvIm2ColTest, Conv1dKernelLongerThanSeries) {
  // K > L: only valid with enough padding (Lout = L + 2P - K + 1 > 0).
  CompareConv1dPaths(2, 3, 5, 2, 2, 3, true);   // Lout = 2
  CompareConv1dPaths(1, 2, 7, 3, 1, 4, true);   // Lout = 4
  CompareConv1dPaths(3, 2, 9, 4, 2, 2, false);  // Lout = 1
  // K > L + P: some kernel taps never touch the series at all.
  CompareConv1dPaths(2, 2, 6, 3, 2, 1, true);   // Lout = 2
}

void CompareConv2dPaths(int cin, int cout, int kh, int kw, int ph, int pw,
                        int64_t B, int64_t H, int64_t W, bool use_bias) {
  SCOPED_TRACE(::testing::Message()
               << "cin=" << cin << " cout=" << cout << " k=" << kh << "x" << kw
               << " pad=" << ph << "x" << pw << " B=" << B << " H=" << H
               << " W=" << W << " bias=" << use_bias);
  Rng rng(7);
  Conv2d conv(cin, cout, kh, kw, ph, pw, &rng, use_bias);
  Tensor in({B, cin, H, W});
  in.FillNormal(&rng, 0.0f, 1.0f);

  Tensor out_gemm = conv.Forward(in, true);
  Tensor out_naive = conv.ForwardNaive(in);
  EXPECT_TRUE(ops::AllClose(out_gemm, out_naive, 1e-4, 1e-4))
      << "forward diff " << ops::MaxAbsDiff(out_gemm, out_naive);

  Tensor go(out_gemm.shape());
  go.FillNormal(&rng, 0.0f, 1.0f);

  conv.Forward(in, true);
  ZeroGrads(&conv);
  Tensor gi_gemm = conv.Backward(go);
  Tensor gw_gemm = conv.weight().grad.Clone();
  Tensor gb_gemm = conv.bias().grad.Clone();

  conv.ForwardNaive(in);
  ZeroGrads(&conv);
  Tensor gi_naive = conv.BackwardNaive(go);
  EXPECT_TRUE(ops::AllClose(gi_gemm, gi_naive, 1e-4, 1e-4))
      << "grad_in diff " << ops::MaxAbsDiff(gi_gemm, gi_naive);
  EXPECT_TRUE(ops::AllClose(gw_gemm, conv.weight().grad, 1e-3, 1e-3))
      << "grad_w diff " << ops::MaxAbsDiff(gw_gemm, conv.weight().grad);
  if (use_bias) {
    EXPECT_TRUE(ops::AllClose(gb_gemm, conv.bias().grad, 1e-3, 1e-3));
  }
}

TEST(ConvIm2ColTest, Conv2dMatchesNaive) {
  // The paper's (1, l) cube kernels, square kernels, and odd shapes.
  CompareConv2dPaths(10, 16, 1, 3, 0, 1, 2, 10, 32, true);
  CompareConv2dPaths(2, 3, 3, 3, 1, 1, 3, 5, 7, true);
  CompareConv2dPaths(1, 1, 1, 1, 0, 0, 1, 1, 1, true);
  CompareConv2dPaths(3, 5, 2, 4, 1, 2, 2, 6, 5, false);
  CompareConv2dPaths(4, 2, 5, 1, 2, 0, 2, 4, 9, true);  // KH > H
}

TEST(ConvIm2ColTest, Conv2dKernelLargerThanInput) {
  CompareConv2dPaths(2, 3, 5, 5, 2, 2, 2, 3, 3, true);   // both axes
  CompareConv2dPaths(1, 2, 1, 9, 0, 4, 1, 2, 4, true);   // width only
  CompareConv2dPaths(2, 2, 7, 3, 3, 1, 2, 4, 6, false);  // height only
  // KW > W + PW: some kernel taps never touch the input at all.
  CompareConv2dPaths(2, 3, 1, 6, 0, 3, 2, 3, 1, true);
}

TEST(ConvIm2ColTest, Conv1dGradcheck) {
  Rng rng(21);
  {
    Conv1d conv(2, 3, 3, 1, &rng);
    testing::CheckLayerGradients(&conv, {2, 2, 9}, true);
  }
  {
    Conv1d conv(3, 2, 4, 2, &rng, /*use_bias=*/false);
    testing::CheckLayerGradients(&conv, {1, 3, 6}, true);
  }
  {
    // Kernel longer than the series (K=5 > L=3, Lout = 2).
    Conv1d conv(2, 2, 5, 2, &rng);
    testing::CheckLayerGradients(&conv, {2, 2, 3}, true);
  }
}

TEST(ConvIm2ColTest, Conv2dGradcheck) {
  Rng rng(22);
  {
    // The paper's cube-kernel shape (1, l).
    Conv2d conv(3, 4, 1, 3, 0, 1, &rng);
    testing::CheckLayerGradients(&conv, {2, 3, 4, 7}, true);
  }
  {
    Conv2d conv(2, 3, 3, 3, 1, 1, &rng, /*use_bias=*/false);
    testing::CheckLayerGradients(&conv, {1, 2, 5, 5}, true);
  }
  {
    // Kernel larger than the input on both axes.
    Conv2d conv(2, 2, 5, 5, 2, 2, &rng);
    testing::CheckLayerGradients(&conv, {1, 2, 3, 3}, true);
  }
}

// The float32 forward lowers the whole batch and runs one batched GEMM over
// it; each instance's output must be bit-identical to a B = 1 forward of
// that instance alone. Width 130 is not a multiple of the 16-column wide
// microkernel, so the column tails go through the narrow remainder kernel.
void ExpectBatchedForwardMatchesSingles(nn::Layer* conv, const Tensor& in) {
  const Tensor out = conv->Forward(in, false);
  const int64_t B = in.dim(0);
  const int64_t in_per = in.size() / B, out_per = out.size() / B;
  Shape one = in.shape();
  one[0] = 1;
  for (int64_t b = 0; b < B; ++b) {
    Tensor single(one);
    std::memcpy(single.data(), in.data() + b * in_per,
                static_cast<size_t>(in_per) * sizeof(float));
    const Tensor want = conv->Forward(single, false);
    ASSERT_EQ(want.size(), out_per);
    EXPECT_EQ(std::memcmp(out.data() + b * out_per, want.data(),
                          static_cast<size_t>(out_per) * sizeof(float)),
              0)
        << "instance " << b;
  }
}

TEST(ConvIm2ColTest, Conv1dBatchedForwardBitIdenticalToSingles) {
  // cin * kernel = 30 and 300: one and two GEMM k-slabs.
  for (int cin : {6, 60}) {
    for (bool use_bias : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "cin=" << cin
                                        << " bias=" << use_bias);
      Rng rng(41);
      Conv1d conv(cin, 13, 5, 2, &rng, use_bias);
      conv.bias().value.FillNormal(&rng, 0.0f, 1.0f);  // constructed zero
      Tensor in({5, cin, 130});
      in.FillNormal(&rng, 0.0f, 1.0f);
      ExpectBatchedForwardMatchesSingles(&conv, in);
    }
  }
}

TEST(ConvIm2ColTest, Conv2dBatchedForwardBitIdenticalToSingles) {
  // cin * 3 * 3 = 36 and 288: one and two GEMM k-slabs.
  for (int cin : {4, 32}) {
    for (bool use_bias : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "cin=" << cin
                                        << " bias=" << use_bias);
      Rng rng(43);
      Conv2d conv(cin, 8, 3, 3, 1, 1, &rng, use_bias);
      conv.bias().value.FillNormal(&rng, 0.0f, 1.0f);  // constructed zero
      Tensor in({5, cin, 3, 130});
      in.FillNormal(&rng, 0.0f, 1.0f);
      ExpectBatchedForwardMatchesSingles(&conv, in);
    }
  }
}

TEST(ConvIm2ColTest, ScratchAdaptsAcrossBatchAndLengthChanges) {
  // The persistent col_/dcol_ scratch must follow shape changes between
  // calls (the engine first warms up with one batch size, then explains
  // with another).
  Rng rng(31);
  Conv1d conv(2, 3, 3, 1, &rng);
  for (const auto& bl : {std::pair<int64_t, int64_t>{1, 8},
                         {4, 8},
                         {2, 16},
                         {4, 8}}) {
    Tensor in({bl.first, 2, bl.second});
    in.FillNormal(&rng, 0.0f, 1.0f);
    Tensor out = conv.Forward(in, true);
    Tensor out_ref = conv.ForwardNaive(in);
    EXPECT_TRUE(ops::AllClose(out, out_ref, 1e-4, 1e-4));
    Tensor go(out.shape());
    go.FillNormal(&rng, 0.0f, 1.0f);
    conv.Forward(in, true);
    Tensor gi = conv.Backward(go);
    EXPECT_EQ(gi.shape(), in.shape());
  }
}

}  // namespace
}  // namespace dcam
