// Backend dispatch: this binary pins DCAM_FORCE_BACKEND=portable before any
// GEMM call caches the process-wide backend, then checks (a) the forced
// portable lane is what actually runs, (b) ResolveKernelBackend's pure
// selection logic, (c) Sgemm correctness on the portable kernels across the
// blocking boundaries, (d) the (method, backend) explainer registry and its
// portable fallback, and (e) an ExplainService round-trip staying
// bit-identical to the direct registry path under the forced backend.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/dcam.h"
#include "explain/explainer.h"
#include "explain/service.h"
#include "models/cnn.h"
#include "tensor/gemm.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace dcam {
namespace {

// Must run before the first GEMM/backend query in this process: the backend
// is resolved once and cached. gtest runs after static initialization, so a
// file-scope initializer is early enough.
const bool kForcedPortable = [] {
  setenv("DCAM_FORCE_BACKEND", "portable", 1);
  return true;
}();

TEST(CpuDispatchTest, ForcedPortableIsActive) {
  ASSERT_TRUE(kForcedPortable);
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kPortable);
  EXPECT_STREQ(ActiveKernelBackendName(), "portable");
  EXPECT_STREQ(gemm::BackendName(), "portable");
}

TEST(CpuDispatchTest, ResolvePicksWidestSupported) {
  CpuFeatures none;
  EXPECT_EQ(ResolveKernelBackend(none, ""), KernelBackend::kPortable);
  CpuFeatures avx2_only;
  avx2_only.avx2 = true;  // no FMA: the 16-wide kernels need both
  EXPECT_EQ(ResolveKernelBackend(avx2_only, ""), KernelBackend::kPortable);
  CpuFeatures full;
  full.avx2 = true;
  full.fma = true;
  EXPECT_EQ(ResolveKernelBackend(full, ""), KernelBackend::kAvx2);
  full.avx512f = true;  // probed and reported, but runs the AVX2 lane
  EXPECT_EQ(ResolveKernelBackend(full, ""), KernelBackend::kAvx2);
}

TEST(CpuDispatchTest, ForcedNameOverridesAutoSelection) {
  CpuFeatures full;
  full.avx2 = true;
  full.fma = true;
  EXPECT_EQ(ResolveKernelBackend(full, "portable"), KernelBackend::kPortable);
  EXPECT_EQ(ResolveKernelBackend(full, "avx2"), KernelBackend::kAvx2);
}

TEST(CpuDispatchDeathTest, UnknownOrUnsupportedForcedNameAborts) {
  CpuFeatures none;
  EXPECT_DEATH((void)ResolveKernelBackend(none, "avx2"), "DCAM_CHECK failed");
  CpuFeatures full;
  full.avx2 = true;
  full.fma = true;
  EXPECT_DEATH((void)ResolveKernelBackend(full, "avx512"),
               "DCAM_CHECK failed");
}

TEST(CpuDispatchTest, BackendNamesAreStable) {
  EXPECT_STREQ(KernelBackendName(KernelBackend::kPortable), "portable");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kAvx2), "avx2");
}

// ---- portable Sgemm correctness --------------------------------------------

std::vector<float> RandomVec(int64_t n, Rng* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng->Normal());
  return v;
}

TEST(PortableSgemmTest, MatchesReferenceAcrossBlockingBoundaries) {
  Rng rng(3);
  struct Shape {
    int64_t m, n, k;
  };
  // Straddles the microkernel tile (6x8), every m-remainder edge kernel,
  // the MC/KC/NC blocks, and the small-problem fallback.
  const Shape shapes[] = {{1, 1, 1},   {1, 8, 3},    {6, 8, 4},
                          {7, 9, 5},   {5, 17, 33},  {13, 40, 7},
                          {96, 8, 16}, {97, 260, 3}, {100, 33, 70},
                          {64, 64, 64}, {40, 96, 257}};
  for (const Shape& s : shapes) {
    SCOPED_TRACE("m=" + std::to_string(s.m) + " n=" + std::to_string(s.n) +
                 " k=" + std::to_string(s.k));
    const auto a = RandomVec(s.m * s.k, &rng);
    const auto b = RandomVec(s.k * s.n, &rng);
    std::vector<float> c(static_cast<size_t>(s.m * s.n), 0.0f);
    gemm::Sgemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), s.k, b.data(),
                s.n, 0.0f, c.data(), s.n);
    const double tol = 1e-4 * std::sqrt(static_cast<double>(s.k) + 1.0);
    for (int64_t i = 0; i < s.m; ++i) {
      for (int64_t j = 0; j < s.n; ++j) {
        double acc = 0.0;
        for (int64_t p = 0; p < s.k; ++p) {
          acc += static_cast<double>(a[static_cast<size_t>(i * s.k + p)]) *
                 b[static_cast<size_t>(p * s.n + j)];
        }
        ASSERT_NEAR(c[static_cast<size_t>(i * s.n + j)], acc,
                    tol + 1e-3 * std::abs(acc))
            << "element (" << i << "," << j << ")";
      }
    }
  }
}

// ---- (method, backend) registry --------------------------------------------

TEST(ExplainerBackendRegistryTest, KnownBackendsAndMethodEnumeration) {
  EXPECT_TRUE(explain::KnownExplainerBackend("portable"));
  EXPECT_TRUE(explain::KnownExplainerBackend("avx2"));
  EXPECT_FALSE(explain::KnownExplainerBackend("bf16"));
  EXPECT_FALSE(explain::KnownExplainerBackend("cuda"));
  EXPECT_FALSE(explain::KnownExplainerBackend(""));

  // Every built-in ships only its portable registration.
  EXPECT_EQ(explain::ExplainerBackends("dcam"),
            std::vector<std::string>{"portable"});
  EXPECT_TRUE(explain::ExplainerBackends("no-such-method").empty());

  EXPECT_TRUE(explain::HasExplainerBackend("dcam", "portable"));
  // Known backend, but no avx2-specialized dcam registration: exact-pair
  // lookup says no (MakeExplainer falls back instead).
  EXPECT_FALSE(explain::HasExplainerBackend("dcam", "avx2"));
}

TEST(ExplainerBackendRegistryTest, DuplicateRegistrationIsRejected) {
  EXPECT_FALSE(explain::RegisterExplainerBackend(
      "dcam", "portable", [] { return explain::MakeExplainer("dcam"); }));
  // A fresh (method, backend) pair under a known backend name registers.
  EXPECT_TRUE(explain::RegisterExplainerBackend(
      "cam", "avx2", [] { return explain::MakeExplainer("cam"); }));
  EXPECT_TRUE(explain::HasExplainerBackend("cam", "avx2"));
  EXPECT_FALSE(explain::RegisterExplainerBackend(
      "cam", "avx2", [] { return explain::MakeExplainer("cam"); }));
}

TEST(ExplainerBackendRegistryDeathTest, UnknownNamesFailLoudly) {
  EXPECT_DEATH((void)explain::MakeExplainer("dcam", "nope"),
               "unknown explainer backend");
  EXPECT_DEATH((void)explain::MakeExplainer("no-such-method", "portable"),
               "DCAM_CHECK failed");
}

std::unique_ptr<models::ConvNet> TinyDcnn(Rng* rng) {
  models::ConvNetConfig cfg;
  cfg.filters = {4, 4};
  return std::make_unique<models::ConvNet>(models::InputMode::kCube, 4, 2,
                                           cfg, rng);
}

void ExpectSameMap(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "maps differ at flat index " << i;
  }
}

// A known backend with no specialized registration must produce the exact
// portable computation.
TEST(ExplainerBackendRegistryTest, AbsentBackendFallsBackToPortable) {
  Rng rng(17);
  auto model = TinyDcnn(&rng);
  Tensor series({4, 12});
  series.FillNormal(&rng, 0.0f, 1.0f);
  explain::ExplainOptions opts;
  opts.dcam.k = 5;
  auto portable = explain::MakeExplainer("dcam");
  auto fallback = explain::MakeExplainer("dcam", "avx2");
  ExpectSameMap(fallback->Explain(model.get(), series, 0, opts).map,
                portable->Explain(model.get(), series, 0, opts).map);
}

// ---- forced-portable service round-trip ------------------------------------

// With the whole process on the portable lane, the service path (dispatch,
// coalescing, caching) must still be bit-identical to a direct registry
// Explain and to the serial reference — the dispatch layer introduces no
// numeric change of its own.
TEST(ForcedPortableServiceTest, RoundTripBitIdenticalToDirectExplain) {
  Rng rng(18);
  auto model = TinyDcnn(&rng);
  Tensor series({4, 12});
  series.FillNormal(&rng, 0.0f, 1.0f);

  explain::ExplainOptions opts;
  opts.dcam.k = 7;
  opts.dcam.seed = 5;
  const explain::ExplanationResult direct =
      explain::Explain("dcam", model.get(), series, 1, opts);

  core::DcamOptions serial_opts = opts.dcam;
  serial_opts.keep_mbar = false;
  const core::DcamResult serial =
      core::ComputeDcamSerial(model.get(), series, 1, serial_opts);
  ExpectSameMap(direct.map, serial.dcam);

  explain::ExplainService service;
  service.RegisterModel(explain::ModelSpec("m", model.get()));
  explain::ExplainRequest req;
  req.model_id = "m";
  req.method = "dcam";
  req.series = series;
  req.class_idx = 1;
  req.options = opts;
  ExpectSameMap(service.Explain(req).map, direct.map);

  // An explicitly-requested portable backend and the empty default share
  // the computation and the cache entry.
  req.backend = "portable";
  ExpectSameMap(service.Explain(req).map, direct.map);
  EXPECT_GE(service.stats().cache_hits, 1u);
}

// Requesting a known-but-unregistered backend falls back to portable and
// shares its cache key; an unknown name throws on the submitting thread.
TEST(ForcedPortableServiceTest, BackendFallbackSharesCacheKey) {
  Rng rng(19);
  auto model = TinyDcnn(&rng);
  Tensor series({4, 12});
  series.FillNormal(&rng, 0.0f, 1.0f);
  explain::ExplainService service;
  service.RegisterModel(explain::ModelSpec("m", model.get()));
  explain::ExplainRequest req;
  req.model_id = "m";
  req.method = "dcam";
  req.series = series;
  req.options.dcam.k = 5;
  const Tensor first = service.Explain(req).map;
  req.backend = "avx2";  // known backend, no dcam specialization
  ExpectSameMap(service.Explain(req).map, first);
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

// An unknown backend name is a caller error: ValidateRequest throws
// std::invalid_argument on the submitting thread instead of CHECK-failing a
// scheduler (which would take every other client's in-flight work down).
TEST(ForcedPortableServiceTest, UnknownRequestBackendThrows) {
  Rng rng(20);
  auto model = TinyDcnn(&rng);
  Tensor series({4, 12});
  series.FillNormal(&rng, 0.0f, 1.0f);
  explain::ExplainService service;
  service.RegisterModel(explain::ModelSpec("m", model.get()));
  explain::ExplainRequest req;
  req.model_id = "m";
  req.method = "dcam";
  req.series = series;
  req.backend = "tpu";
  EXPECT_THROW((void)service.Explain(req), std::invalid_argument);
  // The failed submit engaged no sink and queued nothing.
  EXPECT_EQ(service.stats().requests, 0u);
}

}  // namespace
}  // namespace dcam
