// Blocked, threaded SGEMM kernel layer + im2col/col2im lowering helpers.
//
// Every hot path of the reproduction — Dense/Recurrent matmuls and, through
// im2col lowering, the Conv1d/Conv2d forward and backward passes that
// dominate dCAM's k-permutation loop (Sections 3-4 of the paper) — bottoms
// out in the one blocked GEMM below (Sgemm is its batch = 1 case). It
// follows the classical Goto/BLIS decomposition: the k dimension is split
// into KC-deep slabs, each slab's A and B blocks are packed into contiguous
// MR-row / NR-column panels (transposition and the alpha scale are absorbed
// by the packing), and a register-tiled MR x NR microkernel accumulates
// panel products into C. Block pairs of C are independent, so the
// (row-block, column-block) grid is distributed over the global ThreadPool.
// The strided batched form extends that grid by an instance axis, so a conv
// layer's whole batch is one sweep.
//
// All matrices are row-major with explicit leading dimensions, BLAS-style,
// so callers can address sub-matrices (e.g. one instance of a batched
// tensor) without copying.
//
// The microkernels behind Sgemm are selected once per process from a
// dispatch table keyed by the host ISA (util/cpu): a portable 6x8 kernel,
// a runtime-dispatched 6x16 AVX2+FMA kernel, and m-remainder-specialized
// edge variants of both so thin row tails skip the full-tile padding work.
// `DCAM_FORCE_BACKEND=portable|avx2` overrides the choice (see util/cpu.h);
// BackendName() reports it.

#ifndef DCAM_TENSOR_GEMM_H_
#define DCAM_TENSOR_GEMM_H_

#include <cstdint>

namespace dcam {
namespace gemm {

/// Operand storage precision for the inference GEMM path. kBf16 rounds both
/// operands to bfloat16 at pack time (accumulation stays float32) — roughly
/// half the packed-panel and im2col memory traffic in exchange for ~3
/// decimal digits of operand precision. Inference-only: layers fall back to
/// float32 whenever gradients will be needed.
enum class Precision : uint8_t {
  kFloat32 = 0,
  kBf16 = 1,
};

/// The calling thread's current GEMM precision (default kFloat32). Layers
/// consult this in their forward pass; it is plumbed per-request rather than
/// per-layer so one model instance can serve both precisions.
Precision CurrentGemmPrecision();

/// RAII scope setting the calling thread's GEMM precision, restoring the
/// previous value on destruction. The engine wraps each batched forward in
/// one of these with the batch's DcamOptions::precision.
class ScopedGemmPrecision {
 public:
  explicit ScopedGemmPrecision(Precision precision);
  ~ScopedGemmPrecision();
  ScopedGemmPrecision(const ScopedGemmPrecision&) = delete;
  ScopedGemmPrecision& operator=(const ScopedGemmPrecision&) = delete;

 private:
  Precision prev_;
};

/// Name of the process-wide microkernel backend ("portable" or "avx2"),
/// resolved once via util/cpu (honoring DCAM_FORCE_BACKEND).
const char* BackendName();

/// C (m x n, leading dim ldc) = alpha * op(A) * op(B) + beta * C.
///
/// op(A) is the stored matrix A read as (m x k) when `trans_a` is false, or
/// the stored (k x m) matrix read transposed when true; likewise op(B) is
/// (k x n) or the stored (n x k) read transposed. lda/ldb/ldc are the
/// leading dimensions of the *stored* row-major matrices. beta == 0 writes C
/// without reading it (so C may be uninitialized). Thread-safe; runs as a
/// morsel sweep over the (i, j) block grid of the global pool — workers pack
/// panels into their thread-local arena — unless called from inside a
/// parallel region (then serial) or the problem is too small to amortize
/// packing. The batch = 1 case of SgemmStridedBatched.
void Sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           float alpha, const float* a, int64_t lda, const float* b,
           int64_t ldb, float beta, float* c, int64_t ldc);

/// For each instance i in [0, batch):
///   C_i = alpha * op(A) * op(B_i) + beta * C_i,
/// with B_i = b + i * stride_b and C_i = c + i * stride_c; op(A) is shared by
/// every instance (a layer's weights against each instance's im2col
/// columns). Shapes, transposes and leading dimensions are as in Sgemm; the
/// C_i must not overlap (stride_c >= (m - 1) * ldc + n when batch > 1).
///
/// One morsel sweep per k-slab over the (i-block, instance, j-block) grid,
/// so a batch costs one pool dispatch per slab rather than one per instance,
/// and a small per-instance grid still splits into enough morsels to occupy
/// the pool. Each packed A panel is reused across the instances of a morsel.
/// Every instance is blocked exactly as a lone Sgemm over it would be: C_i is
/// bit-identical to Sgemm(trans_a, trans_b, m, n, k, alpha, a, lda, B_i, ldb,
/// beta, C_i, ldc), whatever the batch size or the instance's position in
/// it.
void SgemmStridedBatched(bool trans_a, bool trans_b, int64_t batch,
                         int64_t m, int64_t n, int64_t k, float alpha,
                         const float* a, int64_t lda, const float* b,
                         int64_t ldb, int64_t stride_b, float beta, float* c,
                         int64_t ldc, int64_t stride_c);

/// C (m x n) = alpha * A (m x k) * B (k x n) + beta * C. Contiguous storage.
inline void SgemmNN(int64_t m, int64_t n, int64_t k, float alpha,
                    const float* a, const float* b, float beta, float* c) {
  Sgemm(false, false, m, n, k, alpha, a, k, b, n, beta, c, n);
}

/// C (m x n) = alpha * A (m x k) * B (n x k)^T + beta * C.
inline void SgemmNT(int64_t m, int64_t n, int64_t k, float alpha,
                    const float* a, const float* b, float beta, float* c) {
  Sgemm(false, true, m, n, k, alpha, a, k, b, k, beta, c, n);
}

/// C (m x n) = alpha * A (k x m)^T * B (k x n) + beta * C.
inline void SgemmTN(int64_t m, int64_t n, int64_t k, float alpha,
                    const float* a, const float* b, float beta, float* c) {
  Sgemm(true, false, m, n, k, alpha, a, m, b, n, beta, c, n);
}

/// im2col for stride-1 2-D convolution with symmetric zero padding.
///
/// Lowers one instance `in` (C, H, W) into `col` with shape
/// (C*KH*KW, Hout*Wout), Hout = H + 2*PH - KH + 1, Wout = W + 2*PW - KW + 1:
/// col[(c*KH + kh)*KW + kw][y*Wout + x] = in[c][y + kh - PH][x + kw - PW]
/// (zero where the input index falls into the padding). After this, a
/// convolution with weights W (Cout, C*KH*KW) is exactly the GEMM
/// out = W * col.
void Im2Col2d(const float* in, int64_t C, int64_t H, int64_t W, int64_t KH,
              int64_t KW, int64_t PH, int64_t PW, float* col);

/// Adjoint of Im2Col2d: accumulates `col` (C*KH*KW, Hout*Wout) back into
/// `in` (C, H, W), dropping padding positions. Does NOT zero `in` first —
/// callers that want the plain adjoint must clear it themselves.
void Col2Im2d(const float* col, int64_t C, int64_t H, int64_t W, int64_t KH,
              int64_t KW, int64_t PH, int64_t PW, float* in);

/// 1-D specializations (a length-L series is a height-1 image):
/// in (C, L) -> col (C*K, Lout), Lout = L + 2*P - K + 1.
void Im2Col1d(const float* in, int64_t C, int64_t L, int64_t K, int64_t P,
              float* col);

/// Adjoint of Im2Col1d; accumulates into `in` (C, L) without zeroing.
void Col2Im1d(const float* col, int64_t C, int64_t L, int64_t K, int64_t P,
              float* in);

}  // namespace gemm
}  // namespace dcam

#endif  // DCAM_TENSOR_GEMM_H_
