// Equivalence tests for the blocked SGEMM kernel layer (tensor/gemm.h)
// against an unblocked double-accumulator reference, across shapes chosen to
// straddle every blocking boundary (microkernel tile, MC/KC/NC cache blocks,
// the small-problem fallback), plus the im2col/col2im lowering helpers.

#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace dcam {
namespace {

std::vector<float> RandomVec(int64_t n, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng->Normal());
  return v;
}

// Reference: C = alpha * op(A) * op(B) + beta * C with double accumulation.
std::vector<float> RefGemm(bool ta, bool tb, int64_t m, int64_t n, int64_t k,
                           float alpha, const std::vector<float>& a,
                           const std::vector<float>& b, float beta,
                           const std::vector<float>& c_in) {
  std::vector<float> c = c_in;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[static_cast<size_t>(p * m + i)]
                            : a[static_cast<size_t>(i * k + p)];
        const float bv = tb ? b[static_cast<size_t>(j * k + p)]
                            : b[static_cast<size_t>(p * n + j)];
        acc += static_cast<double>(av) * bv;
      }
      const size_t idx = static_cast<size_t>(i * n + j);
      c[idx] = alpha * static_cast<float>(acc) +
               (beta == 0.0f ? 0.0f : beta * c[idx]);
    }
  }
  return c;
}

void ExpectClose(const std::vector<float>& got, const std::vector<float>& want,
                 int64_t k, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  // Accumulation-order differences grow with the reduction depth.
  const double tol = 1e-4 * std::sqrt(static_cast<double>(k) + 1.0);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol + 1e-3 * std::abs(want[i]))
        << what << " element " << i;
  }
}

// Shapes straddling the tile (6x8), block (96/256/256), and small-problem
// boundaries, plus degenerate dims.
struct Dims {
  int64_t m, n, k;
};
const Dims kShapes[] = {
    {1, 1, 1},   {1, 8, 3},    {6, 8, 4},    {7, 9, 5},     {5, 17, 33},
    {13, 40, 7}, {96, 8, 16},  {97, 260, 3}, {100, 33, 70}, {64, 64, 64},
    {1, 300, 2}, {130, 1, 90}, {40, 96, 257}};

TEST(GemmTest, MatchesReferenceNN) {
  Rng rng(11);
  for (const Dims& d : kShapes) {
    auto a = RandomVec(d.m * d.k, &rng);
    auto b = RandomVec(d.k * d.n, &rng);
    std::vector<float> c(static_cast<size_t>(d.m * d.n), 0.0f);
    gemm::SgemmNN(d.m, d.n, d.k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    ExpectClose(c, RefGemm(false, false, d.m, d.n, d.k, 1.0f, a, b, 0.0f, c),
                d.k, "NN");
  }
}

TEST(GemmTest, MatchesReferenceNT) {
  Rng rng(12);
  for (const Dims& d : kShapes) {
    auto a = RandomVec(d.m * d.k, &rng);
    auto b = RandomVec(d.n * d.k, &rng);
    std::vector<float> c(static_cast<size_t>(d.m * d.n), 0.0f);
    gemm::SgemmNT(d.m, d.n, d.k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    ExpectClose(c, RefGemm(false, true, d.m, d.n, d.k, 1.0f, a, b, 0.0f, c),
                d.k, "NT");
  }
}

TEST(GemmTest, MatchesReferenceTN) {
  Rng rng(13);
  for (const Dims& d : kShapes) {
    auto a = RandomVec(d.k * d.m, &rng);
    auto b = RandomVec(d.k * d.n, &rng);
    std::vector<float> c(static_cast<size_t>(d.m * d.n), 0.0f);
    gemm::SgemmTN(d.m, d.n, d.k, 1.0f, a.data(), b.data(), 0.0f, c.data());
    ExpectClose(c, RefGemm(true, false, d.m, d.n, d.k, 1.0f, a, b, 0.0f, c),
                d.k, "TN");
  }
}

TEST(GemmTest, AlphaBetaAccumulate) {
  Rng rng(14);
  for (const Dims& d : {Dims{7, 19, 5}, Dims{50, 70, 130}}) {
    auto a = RandomVec(d.m * d.k, &rng);
    auto b = RandomVec(d.k * d.n, &rng);
    auto c0 = RandomVec(d.m * d.n, &rng);
    auto c = c0;
    gemm::SgemmNN(d.m, d.n, d.k, 0.5f, a.data(), b.data(), -2.0f, c.data());
    ExpectClose(c, RefGemm(false, false, d.m, d.n, d.k, 0.5f, a, b, -2.0f, c0),
                d.k, "alpha-beta");
  }
}

TEST(GemmTest, BetaZeroOverwritesGarbage) {
  // beta == 0 must write C without reading it, even when it holds NaNs.
  Rng rng(15);
  const int64_t m = 9, n = 20, k = 300;  // blocked path, k crosses one slab
  auto a = RandomVec(m * k, &rng);
  auto b = RandomVec(k * n, &rng);
  std::vector<float> c(static_cast<size_t>(m * n),
                       std::numeric_limits<float>::quiet_NaN());
  gemm::SgemmNN(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  for (float v : c) EXPECT_FALSE(std::isnan(v));
  std::vector<float> zero(static_cast<size_t>(m * n), 0.0f);
  ExpectClose(c, RefGemm(false, false, m, n, k, 1.0f, a, b, 0.0f, zero), k,
              "beta0");
}

TEST(GemmTest, KZeroScalesC) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  const float a = 0.0f, b = 0.0f;
  gemm::SgemmNN(2, 2, 0, 1.0f, &a, &b, 0.5f, c.data());
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
  gemm::SgemmNN(2, 2, 0, 1.0f, &a, &b, 0.0f, c.data());
  for (float v : c) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(GemmTest, StridedSubmatrices) {
  // Operate on an interior block of a larger C via ldc.
  Rng rng(16);
  const int64_t m = 10, n = 12, k = 40, ldc = 30;
  auto a = RandomVec(m * k, &rng);
  auto b = RandomVec(k * n, &rng);
  std::vector<float> big(static_cast<size_t>(m * ldc), 7.0f);
  gemm::Sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
              big.data() + 5, ldc);
  std::vector<float> zero(static_cast<size_t>(m * n), 0.0f);
  auto want = RefGemm(false, false, m, n, k, 1.0f, a, b, 0.0f, zero);
  for (int64_t i = 0; i < m; ++i) {
    EXPECT_FLOAT_EQ(big[static_cast<size_t>(i * ldc)], 7.0f) << "row " << i;
    for (int64_t j = 0; j < n; ++j) {
      EXPECT_NEAR(big[static_cast<size_t>(i * ldc + 5 + j)],
                  want[static_cast<size_t>(i * n + j)], 1e-3)
          << i << "," << j;
    }
    EXPECT_FLOAT_EQ(big[static_cast<size_t>(i * ldc + 5 + n)], 7.0f);
  }
}

TEST(GemmTest, StridedBatchedBitIdenticalToSgemmLoop) {
  // Each instance of one batched call must equal a lone Sgemm over it, bit
  // for bit, whatever the batch size: that is what keeps a layer's output
  // independent of how many instances the engine packed into its batch.
  // n = 1000 ends in a 232-column block (16-wide tiles, then an 8-column
  // remainder) and n = 1032 in a lone 8-column block; k = 300 spans two
  // k-slabs; m = 1, k = 24 takes the small-problem path.
  // The instance strides leave gaps that neither path may touch.
  Rng rng(18);
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  for (int64_t m : {1, 8, 13}) {
    for (int64_t n : {1000, 1032}) {
      for (int64_t k : {24, 300}) {
        for (int64_t batch : {1, 3, 5}) {
          for (float beta : {0.0f, 1.0f}) {
            SCOPED_TRACE(::testing::Message()
                         << "m=" << m << " n=" << n << " k=" << k
                         << " batch=" << batch << " beta=" << beta);
            const int64_t stride_b = k * n + 7;
            const int64_t stride_c = m * n + 5;
            auto a = RandomVec(m * k, &rng);
            auto b = RandomVec(batch * stride_b, &rng);
            // beta == 0 must not read C: NaN garbage would leak through.
            std::vector<float> want =
                beta == 0.0f ? std::vector<float>(
                                   static_cast<size_t>(batch * stride_c), kNaN)
                             : RandomVec(batch * stride_c, &rng);
            std::vector<float> got = want;
            for (int64_t i = 0; i < batch; ++i) {
              gemm::Sgemm(false, false, m, n, k, 0.5f, a.data(), k,
                          b.data() + i * stride_b, n, beta,
                          want.data() + i * stride_c, n);
            }
            gemm::SgemmStridedBatched(false, false, batch, m, n, k, 0.5f,
                                      a.data(), k, b.data(), n, stride_b,
                                      beta, got.data(), n, stride_c);
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(float)),
                      0);
          }
        }
      }
    }
  }
}

TEST(GemmTest, StridedBatchedTransposedBitIdenticalToSgemmLoop) {
  Rng rng(19);
  const int64_t batch = 3, m = 13, n = 1032, k = 300;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "ta=" << ta << " tb=" << tb);
      const int64_t lda = ta ? m : k, ldb = tb ? k : n;
      auto a = RandomVec(m * k, &rng);
      auto b = RandomVec(batch * k * n, &rng);
      auto want = RandomVec(batch * m * n, &rng);
      std::vector<float> got = want;
      for (int64_t i = 0; i < batch; ++i) {
        gemm::Sgemm(ta, tb, m, n, k, 1.0f, a.data(), lda,
                    b.data() + i * k * n, ldb, 1.0f,
                    want.data() + i * m * n, n);
      }
      gemm::SgemmStridedBatched(ta, tb, batch, m, n, k, 1.0f, a.data(), lda,
                                b.data(), ldb, k * n, 1.0f, got.data(), n,
                                m * n);
      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0);
    }
  }
}

TEST(GemmTest, OpsWrappersMatchNaive) {
  Rng rng(17);
  for (const Dims& d : {Dims{3, 5, 4}, Dims{33, 65, 129}, Dims{96, 96, 96}}) {
    Tensor a({d.m, d.k}), b({d.k, d.n});
    a.FillNormal(&rng, 0.0f, 1.0f);
    b.FillNormal(&rng, 0.0f, 1.0f);
    EXPECT_TRUE(
        ops::AllClose(ops::MatMul(a, b), ops::MatMulNaive(a, b), 1e-3, 1e-3));

    Tensor bt({d.n, d.k});
    bt.FillNormal(&rng, 0.0f, 1.0f);
    EXPECT_TRUE(ops::AllClose(ops::MatMulBT(a, bt), ops::MatMulBTNaive(a, bt),
                              1e-3, 1e-3));

    Tensor at({d.k, d.m});
    at.FillNormal(&rng, 0.0f, 1.0f);
    EXPECT_TRUE(ops::AllClose(ops::MatMulAT(at, b), ops::MatMulATNaive(at, b),
                              1e-3, 1e-3));
  }
}

// ---- im2col / col2im --------------------------------------------------------

TEST(Im2ColTest, KnownValues1d) {
  // in = [1 2 3], K = 3, P = 1 -> Lout = 3; col row k reads in[i + k - 1].
  const float in[] = {1, 2, 3};
  float col[3 * 3];
  gemm::Im2Col1d(in, 1, 3, 3, 1, col);
  const float want[] = {0, 1, 2, 1, 2, 3, 2, 3, 0};
  for (int i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(col[i], want[i]) << "index " << i;
  }
}

TEST(Im2ColTest, KernelLongerThanSeries) {
  // K > L survives as long as padding keeps Lout positive.
  const float in[] = {1, 2};  // C=1, L=2
  const int64_t K = 5, P = 2;
  const int64_t Lout = 2 + 2 * P - K + 1;  // = 2
  ASSERT_GT(Lout, 0);
  float col[5 * 2];
  gemm::Im2Col1d(in, 1, 2, K, P, col);
  for (int64_t k = 0; k < K; ++k) {
    for (int64_t i = 0; i < Lout; ++i) {
      const int64_t src = i + k - P;
      const float want = (src >= 0 && src < 2) ? in[src] : 0.0f;
      EXPECT_FLOAT_EQ(col[k * Lout + i], want) << "k=" << k << " i=" << i;
    }
  }
}

// col2im is the adjoint of im2col: <col, im2col(x)> == <col2im(col), x>
// for all col and x. A dot-product identity over random draws pins both
// scatter patterns to each other.
TEST(Im2ColTest, Col2ImIsAdjoint2d) {
  Rng rng(18);
  const struct {
    int64_t C, H, W, KH, KW, PH, PW;
  } cases[] = {{1, 1, 5, 1, 3, 0, 1},
               {2, 4, 6, 3, 3, 1, 1},
               {3, 5, 4, 1, 5, 0, 2},
               {2, 3, 3, 5, 5, 2, 2},   // kernel larger than input
               {2, 3, 1, 1, 6, 0, 3},   // taps entirely off the input (W)
               {1, 1, 4, 6, 1, 3, 0}};  // taps entirely off the input (H)
  for (const auto& tc : cases) {
    const int64_t Hout = tc.H + 2 * tc.PH - tc.KH + 1;
    const int64_t Wout = tc.W + 2 * tc.PW - tc.KW + 1;
    ASSERT_GT(Hout, 0);
    ASSERT_GT(Wout, 0);
    const int64_t in_n = tc.C * tc.H * tc.W;
    const int64_t col_n = tc.C * tc.KH * tc.KW * Hout * Wout;
    auto x = RandomVec(in_n, &rng);
    auto col = RandomVec(col_n, &rng);
    std::vector<float> ix(static_cast<size_t>(col_n));
    gemm::Im2Col2d(x.data(), tc.C, tc.H, tc.W, tc.KH, tc.KW, tc.PH, tc.PW,
                   ix.data());
    std::vector<float> cx(static_cast<size_t>(in_n), 0.0f);
    gemm::Col2Im2d(col.data(), tc.C, tc.H, tc.W, tc.KH, tc.KW, tc.PH, tc.PW,
                   cx.data());
    double lhs = 0.0, rhs = 0.0;
    for (int64_t i = 0; i < col_n; ++i) lhs += double(col[i]) * ix[i];
    for (int64_t i = 0; i < in_n; ++i) rhs += double(cx[i]) * x[i];
    EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::abs(lhs)));
  }
}

}  // namespace
}  // namespace dcam
