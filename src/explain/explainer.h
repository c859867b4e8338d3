// Unified explanation-method layer.
//
// The paper evaluates dCAM against CAM, Grad-CAM, gradient saliency, and
// occlusion baselines (Sections 2.2-2.3, 5.2), but the underlying
// implementations live in src/core/ and src/cam/ as free functions with
// incompatible signatures, so every bench and example re-plumbs the method
// dispatch by hand. This layer gives them one shape:
//
//     Explain(model, series, class_idx, options) -> ExplanationResult
//
// behind an abstract Explainer, plus a string-keyed registry so methods are
// addressable by name ("dcam", "occlusion", ...) in sweeps, services, and
// config files. Every adapter delegates to the existing free function — at
// the same options/seed the registry path is bit-identical to a direct call.
//
// Registered method names (AllExplainerNames() returns this order):
//
//   dcam                  batched-engine dCAM        core/engine.h   §4.4
//   dcam_serial           serial reference dCAM      core/dcam.h     §4.4
//   dcam_adaptive         online-k dCAM              core/variants.h §5.5
//   dcam_contrastive      dCAM_Ca - dCAM_Cb          core/variants.h (ext.)
//   cam                   CAM, broadcast to (D, n)   cam/cam.h       §2.2
//   gradcam               Grad-CAM                   cam/grad_cam.h  §2.3
//   gradient              signed input gradient      cam/saliency.h  §5.2
//   saliency              |input gradient|           cam/saliency.h  §5.2
//   grad_times_input      gradient x input           cam/saliency.h  §5.2
//   smoothgrad            SmoothGrad                 cam/saliency.h  §5.2
//   integrated_gradients  integrated gradients       cam/saliency.h  §5.2
//   occlusion             windowed occlusion map     cam/occlusion.h §2.3
//   dimension_occlusion   per-dimension occlusion    cam/occlusion.h Fig 13(c)
//
// The registry is keyed (method, backend): variants of a method specialized
// for a kernel backend register under the same method name with a backend tag
// ("portable", "avx2", or externally registered names). Every built-in above
// lives under "portable". Lookup falls back to the method's "portable" entry
// when the requested backend has no specialized registration, so asking for
// ("cam", "avx2") is valid and returns the portable implementation — the ISA
// dispatch for pure float32 methods already happens inside tensor/gemm.cc.

#ifndef DCAM_EXPLAIN_EXPLAINER_H_
#define DCAM_EXPLAIN_EXPLAINER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cam/occlusion.h"
#include "cam/saliency.h"
#include "core/dcam.h"
#include "core/variants.h"
#include "models/model.h"
#include "tensor/tensor.h"
#include "util/fnv.h"

namespace dcam {
namespace explain {

/// Per-method option structs bundled into one uniform argument. Each method
/// reads only its own struct (plus contrast_class for dcam_contrastive);
/// Explainer::OptionsDigest hashes exactly the fields the method consumes,
/// so unrelated fields do not fragment result caches.
struct ExplainOptions {
  core::DcamOptions dcam;                      // dcam, dcam_serial, *_contrastive
  core::AdaptiveDcamOptions adaptive;          // dcam_adaptive
  cam::OcclusionOptions occlusion;             // occlusion
  cam::SmoothGradOptions smoothgrad;           // smoothgrad
  cam::IntegratedGradientsOptions integrated;  // integrated_gradients
  /// The "against" class C_b of dcam_contrastive. Must be set (>= 0) for
  /// that method; ignored by all others.
  int contrast_class = -1;
};

/// Uniform result: a (D, n) attribution over the raw series, plus the dCAM
/// family's bookkeeping (zeroed for methods without a permutation loop).
struct ExplanationResult {
  /// Attribution map, shape (D, n). Methods whose native output is coarser
  /// (univariate CAM, dimension_occlusion) are broadcast to (D, n).
  Tensor map;
  /// Permutations evaluated (dCAM family; 0 otherwise).
  int k = 0;
  /// Permutations classified as the target class, n_g (dCAM family).
  int num_correct = 0;
  /// Whether the adaptive-k stopping rule fired before max_k.
  bool converged = false;
  /// Anytime convergence score: relative L2 change of the map vs the
  /// previous streaming tick's map (core::RelativeL2Delta). Set on kTick
  /// completions (1.0 at the first tick) and on the terminal result of a
  /// streamed request; 0 for non-streamed requests.
  double convergence = 0.0;

  /// n_g / k, the paper's label-free explanation-quality proxy (§5.6).
  double CorrectRatio() const {
    return k > 0 ? static_cast<double>(num_correct) / k : 0.0;
  }
};

/// One explanation method behind the uniform signature. Adapters may cache
/// per-model scratch (the dCAM adapters keep a DcamEngine keyed on the model
/// pointer), so instances are NOT safe for concurrent Explain calls — share
/// across threads via explain::ExplainService, which serializes model work.
class Explainer {
 public:
  virtual ~Explainer() = default;

  /// Registry name ("dcam", "occlusion", ...).
  virtual std::string name() const = 0;

  /// True when this method can explain `model` for series of this shape:
  /// the dCAM family needs a cube-input (d-architecture) GapModel, CAM a
  /// GAP head, grad-CAM a GAP head or MTEX; perturbation/gradient methods
  /// accept any model. `series` supplies the probe shape (D, n).
  virtual bool Supports(const models::Model& model,
                        const Tensor& series) const = 0;

  /// True when the result is a pure function of (model, series, class_idx,
  /// options) — i.e. all randomness is seeded through the options. Every
  /// built-in method is deterministic; the flag exists so external
  /// registrations can opt out of result caching.
  virtual bool Deterministic() const { return true; }

  /// Digest of class_idx plus the option fields this method actually reads.
  /// Two calls with equal (model, series, digest) return bit-identical maps;
  /// the ExplainService result cache keys on it.
  virtual uint64_t OptionsDigest(int class_idx,
                                 const ExplainOptions& options) const;

  /// Computes the explanation. The model is used in eval mode (gradient
  /// methods also run Backward, which accumulates into parameter gradients —
  /// zero them before resuming training). CHECK-fails on unsupported models
  /// or invalid options.
  virtual ExplanationResult Explain(models::Model* model, const Tensor& series,
                                    int class_idx,
                                    const ExplainOptions& options) = 0;
};

using ExplainerFactory = std::function<std::unique_ptr<Explainer>()>;

/// Registers a factory under (`name`, "portable"). Returns false (and
/// ignores the call) when that slot is already taken. Thread-safe. Built-in
/// methods are registered on first registry access.
bool RegisterExplainer(const std::string& name, ExplainerFactory factory);

/// Registers a backend-specialized factory under (`name`, `backend`).
/// Returns false when the pair is already taken. A previously unseen
/// `backend` string becomes a known backend name for validation purposes.
bool RegisterExplainerBackend(const std::string& name,
                              const std::string& backend,
                              ExplainerFactory factory);

/// True when `name` is registered under any backend.
bool HasExplainer(const std::string& name);

/// True when the exact (`name`, `backend`) pair is registered (no portable
/// fallback — use this to probe whether a specialization exists).
bool HasExplainerBackend(const std::string& name, const std::string& backend);

/// True when `backend` is a valid backend name: one of the built-in tags
/// ("portable", "avx2") or a name seen by RegisterExplainerBackend.
bool KnownExplainerBackend(const std::string& backend);

/// Backends registered for `name`, lexicographically sorted. Empty when the
/// method is unknown.
std::vector<std::string> ExplainerBackends(const std::string& name);

/// All registered names: built-ins in the file-comment order, then external
/// registrations in registration order.
std::vector<std::string> AllExplainerNames();

/// Instantiates the named method's "portable" registration. CHECK-fails on
/// unknown names (HasExplainer is the non-fatal probe).
std::unique_ptr<Explainer> MakeExplainer(const std::string& name);

/// Instantiates (`name`, `backend`), falling back to (`name`, "portable")
/// when the backend has no specialized registration for this method.
/// CHECK-fails on unknown method names and on backend strings that are not
/// known backend names (KnownExplainerBackend is the non-fatal probe).
std::unique_ptr<Explainer> MakeExplainer(const std::string& name,
                                         const std::string& backend);

/// One-shot convenience: MakeExplainer(method)->Explain(...). Callers
/// explaining many instances should hold the Explainer (or use
/// ExplainService) so per-model scratch persists.
ExplanationResult Explain(const std::string& method, models::Model* model,
                          const Tensor& series, int class_idx,
                          const ExplainOptions& options = {});

// ---- hashing helpers (FNV-1a; used for cache keys and option digests) ------

inline constexpr uint64_t kFnvOffset = kFnv1aOffsetBasis;

/// Folds `len` bytes into `h` (util/fnv.h's FNV-1a, re-exported under the
/// explain:: digest vocabulary).
uint64_t HashBytes(const void* data, size_t len, uint64_t h = kFnvOffset);

/// Digest of a tensor: rank, dims, and raw float contents. Empty tensors
/// hash to a fixed value distinct from any non-empty tensor.
uint64_t HashTensor(const Tensor& t, uint64_t h = kFnvOffset);

}  // namespace explain
}  // namespace dcam

#endif  // DCAM_EXPLAIN_EXPLAINER_H_
