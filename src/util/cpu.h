// Cached host-CPU feature detection and kernel-backend selection.
//
// The GEMM layer (tensor/gemm) dispatches its microkernels through a
// per-process backend chosen here, instead of sprinkling
// __builtin_cpu_supports probes through every inner loop. Detection runs
// exactly once; the selected backend is queryable (ActiveKernelBackendName)
// and logged to stderr on first use so a bench or CI log always states which
// code path produced its numbers.
//
// CI coverage on heterogeneous runners comes from the DCAM_FORCE_BACKEND
// environment variable: setting it to "portable" on an AVX2 host exercises
// the scalar/vector-extension path; setting it to "avx2" on a host without
// AVX2+FMA aborts loudly instead of executing illegal instructions. The
// override is read once, before the first GEMM call caches the backend.

#ifndef DCAM_UTIL_CPU_H_
#define DCAM_UTIL_CPU_H_

#include <string>

namespace dcam {

/// The ISA features the kernel layer cares about, probed once per process.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
  bool avx512f = false;
};

/// Host features, detected on first call and cached. Always all-false on
/// non-x86-64 targets or compilers without __builtin_cpu_supports.
const CpuFeatures& HostCpuFeatures();

/// The ISA lane the GEMM microkernels dispatch through. kAvx2 requires both
/// AVX2 and FMA (the 16-wide kernels use fused multiply-add throughout).
/// AVX-512 is probed and reported but has no dedicated kernels yet; hosts
/// with it run the AVX2 lane.
enum class KernelBackend {
  kPortable = 0,
  kAvx2 = 1,
};

/// Stable lowercase name ("portable", "avx2") — the same strings accepted by
/// DCAM_FORCE_BACKEND and emitted in bench_micro --json "backend" fields.
const char* KernelBackendName(KernelBackend backend);

/// Pure resolution, exposed for tests: picks the widest backend `features`
/// supports, unless `forced` (the DCAM_FORCE_BACKEND value) names one
/// explicitly. An empty `forced` means auto. Aborts (DCAM_CHECK) when
/// `forced` names an unknown backend or one the features cannot run.
KernelBackend ResolveKernelBackend(const CpuFeatures& features,
                                   const std::string& forced);

/// The process-wide backend: ResolveKernelBackend(HostCpuFeatures(),
/// getenv("DCAM_FORCE_BACKEND")), computed once on first call and logged to
/// stderr. Every GEMM entry point routes through this.
KernelBackend ActiveKernelBackend();

/// KernelBackendName(ActiveKernelBackend()).
const char* ActiveKernelBackendName();

}  // namespace dcam

#endif  // DCAM_UTIL_CPU_H_
