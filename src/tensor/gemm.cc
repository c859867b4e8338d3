#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "util/arena.h"
#include "util/check.h"
#include "util/cpu.h"
#include "util/parallel.h"

namespace dcam {
namespace gemm {
namespace {

// Microkernel tile. 6x8 keeps the accumulator tile plus one A broadcast and
// one B row inside the 16-register SSE2 file (the portable baseline the
// default build targets) while still giving wider ISAs full rows to fuse.
constexpr int64_t kMr = 6;
constexpr int64_t kNr = 8;

// Cache blocking: an (kMc x kKc) packed A block (~96 KiB) and an
// (kKc x kNc) packed B block (~256 KiB) live comfortably in L2 while the
// kMr x kKc panel of the moment stays in L1.
constexpr int64_t kMc = 96;   // multiple of kMr
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 256;  // multiple of kNr

// Below this many multiply-adds the packing + pool-dispatch overhead costs
// more than it saves; fall through to a plain dot-product loop.
constexpr int64_t kSmallFlops = 32 * 1024;

// Element accessors folding the transpose flags into the index math.
inline float AtA(const float* a, int64_t lda, bool trans, int64_t i,
                 int64_t p) {
  return trans ? a[p * lda + i] : a[i * lda + p];
}
inline float AtB(const float* b, int64_t ldb, bool trans, int64_t p,
                 int64_t j) {
  return trans ? b[j * ldb + p] : b[p * ldb + j];
}

// Packs the (mc x kc) block of op(A) starting at (i0, p0) into kMr-row
// panels: panel ir/kMr holds [p * kMr + r] = alpha * opA(i0+ir+r, p0+p),
// zero-padded past the row tail so the microkernel never branches on m.
void PackA(const float* a, int64_t lda, bool trans, float alpha, int64_t i0,
           int64_t p0, int64_t mc, int64_t kc, float* dst) {
  for (int64_t ir = 0; ir < mc; ir += kMr) {
    const int64_t rows = std::min(kMr, mc - ir);
    float* panel = dst + (ir / kMr) * kMr * kc;
    for (int64_t p = 0; p < kc; ++p) {
      float* out = panel + p * kMr;
      for (int64_t r = 0; r < rows; ++r) {
        out[r] = alpha * AtA(a, lda, trans, i0 + ir + r, p0 + p);
      }
      for (int64_t r = rows; r < kMr; ++r) out[r] = 0.0f;
    }
  }
}

// Packs the (kc x nc) block of op(B) starting at (p0, j0) into kNr-column
// panels: panel jr/kNr holds [p * kNr + c] = opB(p0+p, j0+jr+c), zero-padded
// past the column tail.
void PackB(const float* b, int64_t ldb, bool trans, int64_t p0, int64_t j0,
           int64_t kc, int64_t nc, float* dst) {
  for (int64_t jr = 0; jr < nc; jr += kNr) {
    const int64_t cols = std::min(kNr, nc - jr);
    float* panel = dst + (jr / kNr) * kNr * kc;
    if (!trans && cols == kNr) {
      // Contiguous rows of B: straight 8-wide copies.
      for (int64_t p = 0; p < kc; ++p) {
        std::memcpy(panel + p * kNr, b + (p0 + p) * ldb + j0 + jr,
                    kNr * sizeof(float));
      }
      continue;
    }
    for (int64_t p = 0; p < kc; ++p) {
      float* out = panel + p * kNr;
      for (int64_t c = 0; c < cols; ++c) {
        out[c] = AtB(b, ldb, trans, p0 + p, j0 + jr + c);
      }
      for (int64_t c = cols; c < kNr; ++c) out[c] = 0.0f;
    }
  }
}

// Beta-aware write-back of a computed kMr x kNr register tile (held in
// `acc`, row-major) into the `rows` x `cols` valid corner of C.
inline void WriteTile(const float* acc, float* c, int64_t ldc, int64_t rows,
                      int64_t cols, float beta) {
  if (beta == 0.0f) {
    for (int64_t i = 0; i < rows; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < cols; ++j) crow[j] = acc[i * kNr + j];
    }
  } else {
    for (int64_t i = 0; i < rows; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < cols; ++j) {
        crow[j] = beta * crow[j] + acc[i * kNr + j];
      }
    }
  }
}

#if defined(__GNUC__)
#define DCAM_GEMM_VECTOR_EXT 1
typedef float v4f __attribute__((vector_size(16)));

inline v4f LoadV4(const float* p) {
  v4f v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
#endif

// kc-deep rank-1 updates of a kMr x kNr register tile from packed panels,
// then a write-back of the `rows` x `cols` valid corner. Written with
// explicit 4-wide vector arithmetic where available: left to the
// auto-vectorizer, the fully-unrollable nested loops tempt GCC into an
// interleaving strategy whose shuffle traffic dwarfs the multiplies.
void MicroKernel(int64_t kc, const float* pa, const float* pb, float* c,
                 int64_t ldc, int64_t rows, int64_t cols, float beta) {
#if defined(DCAM_GEMM_VECTOR_EXT)
  v4f acc[kMr][2] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* ap = pa + p * kMr;
    const v4f b0 = LoadV4(pb + p * kNr);
    const v4f b1 = LoadV4(pb + p * kNr + 4);
    for (int64_t i = 0; i < kMr; ++i) {
      const float av = ap[i];
      const v4f a = {av, av, av, av};
      acc[i][0] += a * b0;
      acc[i][1] += a * b1;
    }
  }
  float tile[kMr * kNr];
  for (int64_t i = 0; i < kMr; ++i) {
    __builtin_memcpy(tile + i * kNr, &acc[i][0], sizeof(v4f));
    __builtin_memcpy(tile + i * kNr + 4, &acc[i][1], sizeof(v4f));
  }
#else
  float tile[kMr * kNr] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* ap = pa + p * kMr;
    const float* bp = pb + p * kNr;
    for (int64_t i = 0; i < kMr; ++i) {
      const float av = ap[i];
      for (int64_t j = 0; j < kNr; ++j) tile[i * kNr + j] += av * bp[j];
    }
  }
#endif
  WriteTile(tile, c, ldc, rows, cols, beta);
}

// m-remainder edge variant: the row count is a compile-time constant, so a
// thin tail (dCAM's 8-output-channel conv GEMMs leave a 2-row tail every
// kMc block) runs ROWS rank-1 update rows instead of always paying the full
// kMr. Per-row arithmetic is the exact expression sequence of MicroKernel —
// rows accumulate independently, so the surviving rows are bit-identical to
// what the full kernel would have written.
template <int ROWS>
void MicroKernelEdge(int64_t kc, const float* pa, const float* pb, float* c,
                     int64_t ldc, int64_t rows, int64_t cols, float beta) {
  (void)rows;  // == ROWS by construction of the dispatch table
#if defined(DCAM_GEMM_VECTOR_EXT)
  v4f acc[ROWS][2] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* ap = pa + p * kMr;
    const v4f b0 = LoadV4(pb + p * kNr);
    const v4f b1 = LoadV4(pb + p * kNr + 4);
    for (int64_t i = 0; i < ROWS; ++i) {
      const float av = ap[i];
      const v4f a = {av, av, av, av};
      acc[i][0] += a * b0;
      acc[i][1] += a * b1;
    }
  }
  float tile[ROWS * kNr];
  for (int64_t i = 0; i < ROWS; ++i) {
    __builtin_memcpy(tile + i * kNr, &acc[i][0], sizeof(v4f));
    __builtin_memcpy(tile + i * kNr + 4, &acc[i][1], sizeof(v4f));
  }
#else
  float tile[ROWS * kNr] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* ap = pa + p * kMr;
    const float* bp = pb + p * kNr;
    for (int64_t i = 0; i < ROWS; ++i) {
      const float av = ap[i];
      for (int64_t j = 0; j < kNr; ++j) tile[i * kNr + j] += av * bp[j];
    }
  }
#endif
  WriteTile(tile, c, ldc, ROWS, cols, beta);
}

#if defined(DCAM_GEMM_VECTOR_EXT) && defined(__x86_64__)
#define DCAM_GEMM_X86_DISPATCH 1

// Wide variant compiled for AVX2+FMA regardless of the build's baseline ISA
// and selected at runtime: processes TWO adjacent full packed-B panels
// (16 columns) per pass with 12 ymm accumulators. Only called when both
// panels carry 16 real columns; the row tail is handled by write-back.
__attribute__((target("avx2,fma"))) void MicroKernel6x16Avx2(
    int64_t kc, const float* pa, const float* pb0, const float* pb1, float* c,
    int64_t ldc, int64_t rows, float beta) {
  typedef float v8f __attribute__((vector_size(32)));
  v8f acc[kMr][2] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* ap = pa + p * kMr;
    v8f b0, b1;
    __builtin_memcpy(&b0, pb0 + p * kNr, sizeof(v8f));
    __builtin_memcpy(&b1, pb1 + p * kNr, sizeof(v8f));
    for (int64_t i = 0; i < kMr; ++i) {
      const float av = ap[i];
      const v8f a = {av, av, av, av, av, av, av, av};
      acc[i][0] += a * b0;
      acc[i][1] += a * b1;
    }
  }
  float tile[kMr][16];
  for (int64_t i = 0; i < kMr; ++i) {
    __builtin_memcpy(&tile[i][0], &acc[i][0], sizeof(v8f));
    __builtin_memcpy(&tile[i][8], &acc[i][1], sizeof(v8f));
  }
  if (beta == 0.0f) {
    for (int64_t i = 0; i < rows; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < 16; ++j) crow[j] = tile[i][j];
    }
  } else {
    for (int64_t i = 0; i < rows; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < 16; ++j) {
        crow[j] = beta * crow[j] + tile[i][j];
      }
    }
  }
}

// m-remainder edge variant of the 16-wide kernel (see MicroKernelEdge for
// the contract): ROWS compile-time rows, bit-identical per surviving row.
template <int ROWS>
__attribute__((target("avx2,fma"))) void MicroKernelEdge6x16Avx2(
    int64_t kc, const float* pa, const float* pb0, const float* pb1, float* c,
    int64_t ldc, int64_t rows, float beta) {
  (void)rows;  // == ROWS by construction of the dispatch table
  typedef float v8f __attribute__((vector_size(32)));
  v8f acc[ROWS][2] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* ap = pa + p * kMr;
    v8f b0, b1;
    __builtin_memcpy(&b0, pb0 + p * kNr, sizeof(v8f));
    __builtin_memcpy(&b1, pb1 + p * kNr, sizeof(v8f));
    for (int64_t i = 0; i < ROWS; ++i) {
      const float av = ap[i];
      const v8f a = {av, av, av, av, av, av, av, av};
      acc[i][0] += a * b0;
      acc[i][1] += a * b1;
    }
  }
  float tile[ROWS][16];
  for (int64_t i = 0; i < ROWS; ++i) {
    __builtin_memcpy(&tile[i][0], &acc[i][0], sizeof(v8f));
    __builtin_memcpy(&tile[i][8], &acc[i][1], sizeof(v8f));
  }
  if (beta == 0.0f) {
    for (int64_t i = 0; i < ROWS; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < 16; ++j) crow[j] = tile[i][j];
    }
  } else {
    for (int64_t i = 0; i < ROWS; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < 16; ++j) {
        crow[j] = beta * crow[j] + tile[i][j];
      }
    }
  }
}
#endif  // DCAM_GEMM_X86_DISPATCH

// The per-backend microkernel dispatch table, selected once per process by
// util/cpu's ActiveKernelBackend(). full8 runs complete kMr-row tiles over
// one packed-B panel; edge8[r] (r in [1, kMr)) is its r-row specialization
// for the block's row tail. full16/edge16 are the paired-panel 16-column
// kernels, null when the backend has no wide lane. The avx2 set keeps the
// PORTABLE 8-column kernels for remainder columns — exactly what the
// pre-dispatch code did, which keeps default float32 results bit-identical.
using Kernel8Fn = void (*)(int64_t kc, const float* pa, const float* pb,
                           float* c, int64_t ldc, int64_t rows, int64_t cols,
                           float beta);
using Kernel16Fn = void (*)(int64_t kc, const float* pa, const float* pb0,
                            const float* pb1, float* c, int64_t ldc,
                            int64_t rows, float beta);

struct KernelSet {
  Kernel8Fn full8;
  Kernel8Fn edge8[kMr];  // indexed by rows; [0] never consulted
  Kernel16Fn full16;
  Kernel16Fn edge16[kMr];
};

constexpr KernelSet kPortableKernels = {
    MicroKernel,
    {nullptr, MicroKernelEdge<1>, MicroKernelEdge<2>, MicroKernelEdge<3>,
     MicroKernelEdge<4>, MicroKernelEdge<5>},
    nullptr,
    {nullptr, nullptr, nullptr, nullptr, nullptr, nullptr},
};

#if defined(DCAM_GEMM_X86_DISPATCH)
constexpr KernelSet kAvx2Kernels = {
    MicroKernel,
    {nullptr, MicroKernelEdge<1>, MicroKernelEdge<2>, MicroKernelEdge<3>,
     MicroKernelEdge<4>, MicroKernelEdge<5>},
    MicroKernel6x16Avx2,
    {nullptr, MicroKernelEdge6x16Avx2<1>, MicroKernelEdge6x16Avx2<2>,
     MicroKernelEdge6x16Avx2<3>, MicroKernelEdge6x16Avx2<4>,
     MicroKernelEdge6x16Avx2<5>},
};
#endif

const KernelSet& ActiveKernels() {
  static const KernelSet* const kernels = [] {
#if defined(DCAM_GEMM_X86_DISPATCH)
    if (ActiveKernelBackend() == KernelBackend::kAvx2) return &kAvx2Kernels;
#else
    (void)ActiveKernelBackend();  // still resolves + logs the choice once
#endif
    return &kPortableKernels;
  }();
  return *kernels;
}

void ScaleC(int64_t m, int64_t n, float beta, float* c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f) {
      std::memset(crow, 0, static_cast<size_t>(n) * sizeof(float));
    } else if (beta != 1.0f) {
      for (int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

// Unblocked fallback for problems too small to pay for packing.
void SmallGemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
               float alpha, const float* a, int64_t lda, const float* b,
               int64_t ldb, float beta, float* c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += AtA(a, lda, trans_a, i, p) * AtB(b, ldb, trans_b, p, j);
      }
      crow[j] = alpha * acc + (beta == 0.0f ? 0.0f : beta * crow[j]);
    }
  }
}

}  // namespace

void SgemmStridedBatched(bool trans_a, bool trans_b, int64_t batch,
                         int64_t m, int64_t n, int64_t k, float alpha,
                         const float* a, int64_t lda, const float* b,
                         int64_t ldb, int64_t stride_b, float beta, float* c,
                         int64_t ldc, int64_t stride_c) {
  DCAM_CHECK_GE(batch, 0);
  DCAM_CHECK_GE(m, 0);
  DCAM_CHECK_GE(n, 0);
  DCAM_CHECK_GE(k, 0);
  DCAM_CHECK_GE(lda, trans_a ? m : k);
  DCAM_CHECK_GE(ldb, trans_b ? k : n);
  DCAM_CHECK_GE(ldc, n);
  if (batch == 0 || m == 0 || n == 0) return;
  // Instances' blocks run in any order on any worker, so their C matrices
  // must not overlap.
  if (batch > 1) {
    DCAM_CHECK_GE(stride_c, (m - 1) * ldc + n);
  }
  if (k == 0 || alpha == 0.0f) {
    for (int64_t inst = 0; inst < batch; ++inst) {
      ScaleC(m, n, beta, c + inst * stride_c, ldc);
    }
    return;
  }
  if (m * n * k <= kSmallFlops) {
    for (int64_t inst = 0; inst < batch; ++inst) {
      SmallGemm(trans_a, trans_b, m, n, k, alpha, a, lda, b + inst * stride_b,
                ldb, beta, c + inst * stride_c, ldc);
    }
    return;
  }

  const KernelSet& ks = ActiveKernels();
  const int64_t iblocks = (m + kMc - 1) / kMc;
  const int64_t jblocks = (n + kNc - 1) / kNc;
  // The C-block grid is (i-block, instance, j-block), j fastest. Every
  // instance is blocked from its own column 0, exactly as a lone Sgemm over
  // it would be, so its result does not depend on the batch around it. A
  // morsel is a contiguous run of blocks, so the packed-A panel (shared by
  // all instances; it depends only on the i-row) is derived once per run
  // instead of once per block. Capped at one i-row (batch * jblocks) —
  // longer chunks would re-pack A anyway — and floored at 2 so even tiny
  // grids amortize at least one repack.
  const int64_t row_blocks = batch * jblocks;
  const int64_t grid = iblocks * row_blocks;
  const int64_t grain = std::min(
      row_blocks, std::max<int64_t>(2, GlobalPool().AdaptiveGrainFor(grid)));
  for (int64_t pc = 0; pc < k; pc += kKc) {
    const int64_t kc = std::min(kKc, k - pc);
    // The first k-slab applies the caller's beta; later slabs accumulate.
    const float beta_eff = pc == 0 ? beta : 1.0f;
    ParallelMorsel(0, grid, grain, [&](int /*worker*/, int64_t lo,
                                       int64_t hi) {
      // Pack panels live in the executing worker's arena: bump-allocated,
      // rewound after the chunk, and — because worker ids (and, when pinned,
      // cores) are stable — re-touched warm on the next chunk this worker
      // claims instead of bouncing between cores.
      Arena& arena = ThisThreadArena();
      ArenaScope scope(&arena);
      float* pack_a = arena.AllocateFloats(static_cast<size_t>(kMc * kKc));
      float* pack_b = arena.AllocateFloats(static_cast<size_t>(kKc * kNc));
      int64_t packed_i0 = -1;
      for (int64_t t = lo; t < hi; ++t) {
        const int64_t i0 = (t / row_blocks) * kMc;
        const int64_t inst = (t % row_blocks) / jblocks;
        const int64_t j0 = (t % jblocks) * kNc;
        const int64_t mc = std::min(kMc, m - i0);
        const int64_t nc = std::min(kNc, n - j0);
        if (i0 != packed_i0) {
          PackA(a, lda, trans_a, alpha, i0, pc, mc, kc, pack_a);
          packed_i0 = i0;
        }
        PackB(b + inst * stride_b, ldb, trans_b, pc, j0, kc, nc, pack_b);
        float* cblock = c + inst * stride_c + i0 * ldc + j0;
        int64_t jr = 0;
        if (ks.full16 != nullptr) {
          for (; jr + 2 * kNr <= nc; jr += 2 * kNr) {
            const float* pb0 = pack_b + (jr / kNr) * kNr * kc;
            const float* pb1 = pb0 + kNr * kc;
            for (int64_t ir = 0; ir < mc; ir += kMr) {
              const float* pa = pack_a + (ir / kMr) * kMr * kc;
              const int64_t rows = std::min(kMr, mc - ir);
              const Kernel16Fn k16 =
                  rows == kMr ? ks.full16 : ks.edge16[rows];
              k16(kc, pa, pb0, pb1, cblock + ir * ldc + jr, ldc, rows,
                  beta_eff);
            }
          }
        }
        for (; jr < nc; jr += kNr) {
          const float* pb = pack_b + (jr / kNr) * kNr * kc;
          for (int64_t ir = 0; ir < mc; ir += kMr) {
            const float* pa = pack_a + (ir / kMr) * kMr * kc;
            const int64_t rows = std::min(kMr, mc - ir);
            const Kernel8Fn k8 = rows == kMr ? ks.full8 : ks.edge8[rows];
            k8(kc, pa, pb, cblock + ir * ldc + jr, ldc, rows,
               std::min(kNr, nc - jr), beta_eff);
          }
        }
      }
    });
  }
}

void Sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           float alpha, const float* a, int64_t lda, const float* b,
           int64_t ldb, float beta, float* c, int64_t ldc) {
  SgemmStridedBatched(trans_a, trans_b, /*batch=*/1, m, n, k, alpha, a, lda,
                      b, ldb, /*stride_b=*/0, beta, c, ldc, /*stride_c=*/0);
}

void Im2Col2d(const float* in, int64_t C, int64_t H, int64_t W, int64_t KH,
              int64_t KW, int64_t PH, int64_t PW, float* col) {
  const int64_t Hout = H + 2 * PH - KH + 1;
  const int64_t Wout = W + 2 * PW - KW + 1;
  DCAM_CHECK_GT(Hout, 0);
  DCAM_CHECK_GT(Wout, 0);
  for (int64_t ci = 0; ci < C; ++ci) {
    const float* iplane = in + ci * H * W;
    for (int64_t kh = 0; kh < KH; ++kh) {
      // Clamped into [0, Hout] with ylo <= yhi: extreme padding can push a
      // tap entirely off the input (no valid rows/columns at all), and the
      // zero-fill spans below must stay inside the col row either way.
      const int64_t ylo = std::min(Hout, std::max<int64_t>(0, PH - kh));
      const int64_t yhi =
          std::max(ylo, std::min<int64_t>(Hout, H + PH - kh));
      for (int64_t kw = 0; kw < KW; ++kw) {
        float* crow = col + ((ci * KH + kh) * KW + kw) * Hout * Wout;
        const int64_t xlo = std::min(Wout, std::max<int64_t>(0, PW - kw));
        const int64_t xhi =
            std::max(xlo, std::min<int64_t>(Wout, W + PW - kw));
        if (ylo > 0) {
          std::memset(crow, 0,
                      static_cast<size_t>(ylo * Wout) * sizeof(float));
        }
        for (int64_t y = ylo; y < yhi; ++y) {
          float* dst = crow + y * Wout;
          for (int64_t x = 0; x < xlo; ++x) dst[x] = 0.0f;
          if (xhi > xlo) {
            std::memcpy(dst + xlo,
                        iplane + (y + kh - PH) * W + xlo + kw - PW,
                        static_cast<size_t>(xhi - xlo) * sizeof(float));
          }
          for (int64_t x = xhi; x < Wout; ++x) dst[x] = 0.0f;
        }
        if (yhi < Hout) {
          std::memset(crow + yhi * Wout, 0,
                      static_cast<size_t>((Hout - yhi) * Wout) *
                          sizeof(float));
        }
      }
    }
  }
}

void Col2Im2d(const float* col, int64_t C, int64_t H, int64_t W, int64_t KH,
              int64_t KW, int64_t PH, int64_t PW, float* in) {
  const int64_t Hout = H + 2 * PH - KH + 1;
  const int64_t Wout = W + 2 * PW - KW + 1;
  DCAM_CHECK_GT(Hout, 0);
  DCAM_CHECK_GT(Wout, 0);
  for (int64_t ci = 0; ci < C; ++ci) {
    float* iplane = in + ci * H * W;
    for (int64_t kh = 0; kh < KH; ++kh) {
      const int64_t ylo = std::max<int64_t>(0, PH - kh);
      const int64_t yhi = std::min<int64_t>(Hout, H + PH - kh);
      for (int64_t kw = 0; kw < KW; ++kw) {
        const float* crow = col + ((ci * KH + kh) * KW + kw) * Hout * Wout;
        const int64_t xlo = std::max<int64_t>(0, PW - kw);
        const int64_t xhi = std::min<int64_t>(Wout, W + PW - kw);
        for (int64_t y = ylo; y < yhi; ++y) {
          const float* src = crow + y * Wout + xlo;
          float* dst = iplane + (y + kh - PH) * W + xlo + kw - PW;
          for (int64_t x = xlo; x < xhi; ++x) *dst++ += *src++;
        }
      }
    }
  }
}

void Im2Col1d(const float* in, int64_t C, int64_t L, int64_t K, int64_t P,
              float* col) {
  Im2Col2d(in, C, /*H=*/1, /*W=*/L, /*KH=*/1, /*KW=*/K, /*PH=*/0, /*PW=*/P,
           col);
}

void Col2Im1d(const float* col, int64_t C, int64_t L, int64_t K, int64_t P,
              float* in) {
  Col2Im2d(col, C, /*H=*/1, /*W=*/L, /*KH=*/1, /*KW=*/K, /*PH=*/0, /*PW=*/P,
           in);
}

namespace {
// Per-thread because requests of different precisions run concurrently on
// different shard schedulers against the same model instance.
thread_local Precision g_precision = Precision::kFloat32;
}  // namespace

Precision CurrentGemmPrecision() { return g_precision; }

ScopedGemmPrecision::ScopedGemmPrecision(Precision precision)
    : prev_(g_precision) {
  g_precision = precision;
}

ScopedGemmPrecision::~ScopedGemmPrecision() { g_precision = prev_; }

const char* BackendName() { return ActiveKernelBackendName(); }

}  // namespace gemm
}  // namespace dcam
