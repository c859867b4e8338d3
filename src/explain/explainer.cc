#include "explain/explainer.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "cam/cam.h"
#include "cam/grad_cam.h"
#include "core/engine.h"
#include "models/mtex.h"

namespace dcam {
namespace explain {
namespace {

// Field-wise hashing (structs may contain padding, so never hash a struct's
// bytes wholesale).
template <typename T>
uint64_t HashPod(const T& value, uint64_t h) {
  static_assert(std::is_trivially_copyable<T>::value, "pod only");
  return HashBytes(&value, sizeof value, h);
}

uint64_t HashString(const std::string& s, uint64_t h) {
  h = HashPod(s.size(), h);
  return HashBytes(s.data(), s.size(), h);
}

// Digest for methods that read no option fields at all: the cached result
// depends only on the method and the target class (plus the model/series
// keyed separately by the cache).
uint64_t NameClassDigest(const std::string& name, int class_idx) {
  return HashPod(class_idx, HashString(name, kFnvOffset));
}

uint64_t HashDcamOptions(const core::DcamOptions& o, uint64_t h) {
  // keep_mbar is excluded on purpose: ExplanationResult never carries M-bar,
  // so the flag cannot change an observable field of the cached result.
  h = HashPod(o.k, h);
  h = HashPod(o.seed, h);
  return HashPod(static_cast<uint8_t>(o.include_identity), h);
}

/// True when `model` is a GAP-headed d-architecture for this series shape:
/// a (1, D, n) batch prepares to the (1, D, D, n) cube of Section 4.2.
bool IsCubeGapModel(const models::Model& model, const Tensor& series) {
  if (dynamic_cast<const models::GapModel*>(&model) == nullptr) return false;
  if (series.rank() != 2) return false;
  const int64_t D = series.dim(0), n = series.dim(1);
  Tensor probe({1, D, n});
  return model.PrepareInput(probe).shape() == (Shape{1, D, D, n});
}

models::GapModel* AsGapModel(models::Model* model, const char* method) {
  auto* gap = dynamic_cast<models::GapModel*>(model);
  DCAM_CHECK(gap != nullptr)
      << method << " requires a GAP-headed model (models::GapModel), got "
      << model->name();
  return gap;
}

ExplanationResult FromDcamResult(const core::DcamResult& res) {
  ExplanationResult out;
  out.map = res.dcam;
  out.k = res.k;
  out.num_correct = res.num_correct;
  return out;
}

// ---- dCAM family -----------------------------------------------------------

/// Shared base: keeps one batched DcamEngine per model pointer so scratch
/// buffers persist across the Explain calls of a sweep.
class DcamFamilyExplainer : public Explainer {
 public:
  bool Supports(const models::Model& model,
                const Tensor& series) const override {
    return IsCubeGapModel(model, series);
  }

 protected:
  core::DcamEngine* EngineFor(models::Model* model) {
    models::GapModel* gap = AsGapModel(model, name().c_str());
    if (engine_ == nullptr || engine_->model() != gap) {
      engine_ = std::make_unique<core::DcamEngine>(gap);
    }
    return engine_.get();
  }

 private:
  std::unique_ptr<core::DcamEngine> engine_;
};

class DcamExplainer : public DcamFamilyExplainer {
 public:
  std::string name() const override { return "dcam"; }

  uint64_t OptionsDigest(int class_idx,
                         const ExplainOptions& options) const override {
    uint64_t h = HashString(name(), kFnvOffset);
    h = HashPod(class_idx, h);
    return HashDcamOptions(options.dcam, h);
  }

  ExplanationResult Explain(models::Model* model, const Tensor& series,
                            int class_idx,
                            const ExplainOptions& options) override {
    core::DcamOptions opts = options.dcam;
    opts.keep_mbar = false;  // the uniform result only carries the map
    return FromDcamResult(EngineFor(model)->Compute(series, class_idx, opts));
  }
};

class DcamSerialExplainer : public DcamFamilyExplainer {
 public:
  std::string name() const override { return "dcam_serial"; }

  uint64_t OptionsDigest(int class_idx,
                         const ExplainOptions& options) const override {
    uint64_t h = HashString(name(), kFnvOffset);
    h = HashPod(class_idx, h);
    return HashDcamOptions(options.dcam, h);
  }

  ExplanationResult Explain(models::Model* model, const Tensor& series,
                            int class_idx,
                            const ExplainOptions& options) override {
    core::DcamOptions opts = options.dcam;
    opts.keep_mbar = false;
    return FromDcamResult(core::ComputeDcamSerial(
        AsGapModel(model, "dcam_serial"), series, class_idx, opts));
  }
};

class DcamAdaptiveExplainer : public DcamFamilyExplainer {
 public:
  std::string name() const override { return "dcam_adaptive"; }

  uint64_t OptionsDigest(int class_idx,
                         const ExplainOptions& options) const override {
    const core::AdaptiveDcamOptions& o = options.adaptive;
    uint64_t h = HashString(name(), kFnvOffset);
    h = HashPod(class_idx, h);
    h = HashPod(o.batch, h);
    h = HashPod(o.max_k, h);
    h = HashPod(o.tolerance, h);
    h = HashPod(o.stable_batches, h);
    h = HashPod(o.seed, h);
    return HashPod(static_cast<uint8_t>(o.include_identity), h);
  }

  ExplanationResult Explain(models::Model* model, const Tensor& series,
                            int class_idx,
                            const ExplainOptions& options) override {
    const core::AdaptiveDcamResult res = core::ComputeDcamAdaptive(
        AsGapModel(model, "dcam_adaptive"), series, class_idx,
        options.adaptive);
    ExplanationResult out = FromDcamResult(res.result);
    out.k = res.k_used;
    out.converged = res.converged;
    return out;
  }
};

class DcamContrastiveExplainer : public DcamFamilyExplainer {
 public:
  std::string name() const override { return "dcam_contrastive"; }

  uint64_t OptionsDigest(int class_idx,
                         const ExplainOptions& options) const override {
    uint64_t h = HashString(name(), kFnvOffset);
    h = HashPod(class_idx, h);
    h = HashPod(options.contrast_class, h);
    return HashDcamOptions(options.dcam, h);
  }

  ExplanationResult Explain(models::Model* model, const Tensor& series,
                            int class_idx,
                            const ExplainOptions& options) override {
    DCAM_CHECK_GE(options.contrast_class, 0)
        << "dcam_contrastive needs ExplainOptions.contrast_class (the class "
           "the map argues against)";
    DCAM_CHECK_NE(options.contrast_class, class_idx);
    core::DcamOptions opts = options.dcam;
    opts.keep_mbar = false;
    // Same computation as core::ContrastiveDcam (both classes share the
    // permutation sample via the shared seed), on the persistent engine.
    core::DcamEngine* engine = EngineFor(model);
    const core::DcamResult a = engine->Compute(series, class_idx, opts);
    const core::DcamResult b =
        engine->Compute(series, options.contrast_class, opts);
    ExplanationResult out;
    out.map = Tensor(a.dcam.shape());
    for (int64_t i = 0; i < out.map.size(); ++i) {
      out.map[i] = a.dcam[i] - b.dcam[i];
    }
    out.k = a.k + b.k;
    out.num_correct = a.num_correct + b.num_correct;
    return out;
  }
};

// ---- CAM / Grad-CAM --------------------------------------------------------

class CamExplainer : public Explainer {
 public:
  std::string name() const override { return "cam"; }

  bool Supports(const models::Model& model,
                const Tensor& series) const override {
    (void)series;
    return dynamic_cast<const models::GapModel*>(&model) != nullptr;
  }

  uint64_t OptionsDigest(int class_idx,
                         const ExplainOptions& options) const override {
    (void)options;  // CAM reads no option fields
    return NameClassDigest(name(), class_idx);
  }

  ExplanationResult Explain(models::Model* model, const Tensor& series,
                            int class_idx,
                            const ExplainOptions& options) override {
    (void)options;
    const Tensor cam =
        cam::ComputeCam(AsGapModel(model, "cam"), series, class_idx);
    ExplanationResult out;
    out.map = cam::BroadcastCam(cam, static_cast<int>(series.dim(0)));
    return out;
  }
};

class GradCamExplainer : public Explainer {
 public:
  std::string name() const override { return "gradcam"; }

  bool Supports(const models::Model& model,
                const Tensor& series) const override {
    (void)series;
    return dynamic_cast<const models::MtexCnn*>(&model) != nullptr ||
           dynamic_cast<const models::GapModel*>(&model) != nullptr;
  }

  uint64_t OptionsDigest(int class_idx,
                         const ExplainOptions& options) const override {
    (void)options;  // grad-CAM reads no option fields
    return NameClassDigest(name(), class_idx);
  }

  ExplanationResult Explain(models::Model* model, const Tensor& series,
                            int class_idx,
                            const ExplainOptions& options) override {
    (void)options;
    ExplanationResult out;
    if (auto* mtex = dynamic_cast<models::MtexCnn*>(model)) {
      // The paper's MTEX-grad: block-1 per-dimension grad-CAM modulated by
      // the block-2 temporal grad-CAM (Section 2.3).
      out.map = mtex->Explain(series, class_idx);
      return out;
    }
    // For a GAP head the class-logit gradient w.r.t. the last activation is
    // constant per map, d logit / d A_m = w_m^{C_j} / (H*W), so grad-CAM is
    // computed exactly (no finite differences). For standard models the
    // (1, n) map is broadcast to all dimensions like starred CAM in Table 3;
    // for d-variants the rows index the identity cube's combinations.
    models::GapModel* gap = AsGapModel(model, "gradcam");
    const int64_t D = series.dim(0), n = series.dim(1);
    Tensor batch = series.Reshape({1, D, n});
    (void)gap->Forward(gap->PrepareInput(batch), /*training=*/false);
    const Tensor& act = gap->last_activation();  // (1, nf, H, W)
    const int64_t nf = act.dim(1), H = act.dim(2), W = act.dim(3);
    const Tensor& weight = gap->head().weight().value;  // (classes, nf)
    Tensor grad(act.shape());
    const float inv_hw = 1.0f / static_cast<float>(H * W);
    for (int64_t m = 0; m < nf; ++m) {
      const float g = weight.at(class_idx, m) * inv_hw;
      float* plane = grad.data() + m * H * W;
      for (int64_t i = 0; i < H * W; ++i) plane[i] = g;
    }
    const Tensor map = cam::GradCamFromActivation(act, grad);  // (H, W)
    out.map = cam::BroadcastCam(map, static_cast<int>(D));
    return out;
  }
};

// ---- gradient family -------------------------------------------------------

/// Adapter over a (model, series, class) -> map free function with no
/// method-specific options.
class SimpleMapExplainer : public Explainer {
 public:
  using Fn = Tensor (*)(models::Model*, const Tensor&, int);
  SimpleMapExplainer(std::string name, Fn fn)
      : name_(std::move(name)), fn_(fn) {}

  std::string name() const override { return name_; }

  bool Supports(const models::Model& model,
                const Tensor& series) const override {
    (void)model;
    (void)series;
    return true;  // model-agnostic: needs only Forward (+ Backward)
  }

  uint64_t OptionsDigest(int class_idx,
                         const ExplainOptions& options) const override {
    (void)options;  // the plain gradient maps read no option fields
    return NameClassDigest(name(), class_idx);
  }

  ExplanationResult Explain(models::Model* model, const Tensor& series,
                            int class_idx,
                            const ExplainOptions& options) override {
    (void)options;
    ExplanationResult out;
    out.map = fn_(model, series, class_idx);
    return out;
  }

 private:
  std::string name_;
  Fn fn_;
};

class SmoothGradExplainer : public Explainer {
 public:
  std::string name() const override { return "smoothgrad"; }

  bool Supports(const models::Model&, const Tensor&) const override {
    return true;
  }

  uint64_t OptionsDigest(int class_idx,
                         const ExplainOptions& options) const override {
    const cam::SmoothGradOptions& o = options.smoothgrad;
    uint64_t h = HashString(name(), kFnvOffset);
    h = HashPod(class_idx, h);
    h = HashPod(o.samples, h);
    h = HashPod(o.noise_fraction, h);
    return HashPod(o.seed, h);
  }

  ExplanationResult Explain(models::Model* model, const Tensor& series,
                            int class_idx,
                            const ExplainOptions& options) override {
    ExplanationResult out;
    out.map = cam::SmoothGrad(model, series, class_idx, options.smoothgrad);
    return out;
  }
};

class IntegratedGradientsExplainer : public Explainer {
 public:
  std::string name() const override { return "integrated_gradients"; }

  bool Supports(const models::Model&, const Tensor&) const override {
    return true;
  }

  uint64_t OptionsDigest(int class_idx,
                         const ExplainOptions& options) const override {
    uint64_t h = HashString(name(), kFnvOffset);
    h = HashPod(class_idx, h);
    h = HashPod(options.integrated.steps, h);
    return HashTensor(options.integrated.baseline, h);
  }

  ExplanationResult Explain(models::Model* model, const Tensor& series,
                            int class_idx,
                            const ExplainOptions& options) override {
    ExplanationResult out;
    out.map = cam::IntegratedGradients(model, series, class_idx,
                                       options.integrated);
    return out;
  }
};

// ---- occlusion family ------------------------------------------------------

class OcclusionExplainer : public Explainer {
 public:
  std::string name() const override { return "occlusion"; }

  bool Supports(const models::Model&, const Tensor&) const override {
    return true;
  }

  uint64_t OptionsDigest(int class_idx,
                         const ExplainOptions& options) const override {
    const cam::OcclusionOptions& o = options.occlusion;
    // `batch` only groups forward passes; per-instance logits (and hence the
    // map) are independent of it, so it is excluded from the digest.
    uint64_t h = HashString(name(), kFnvOffset);
    h = HashPod(class_idx, h);
    h = HashPod(o.window, h);
    h = HashPod(o.stride, h);
    return HashPod(static_cast<int>(o.fill), h);
  }

  ExplanationResult Explain(models::Model* model, const Tensor& series,
                            int class_idx,
                            const ExplainOptions& options) override {
    ExplanationResult out;
    out.map = cam::OcclusionMap(model, series, class_idx, options.occlusion);
    return out;
  }
};

class DimensionOcclusionExplainer : public Explainer {
 public:
  std::string name() const override { return "dimension_occlusion"; }

  bool Supports(const models::Model&, const Tensor&) const override {
    return true;
  }

  uint64_t OptionsDigest(int class_idx,
                         const ExplainOptions& options) const override {
    (void)options;  // whole-dimension occlusion reads no option fields
    return NameClassDigest(name(), class_idx);
  }

  ExplanationResult Explain(models::Model* model, const Tensor& series,
                            int class_idx,
                            const ExplainOptions& options) override {
    (void)options;
    // (D) per-dimension logit drops, broadcast across time so the result
    // shape matches every other method (constant rows: "which sensor").
    const Tensor drops = cam::DimensionOcclusion(model, series, class_idx);
    const int64_t D = series.dim(0), n = series.dim(1);
    DCAM_CHECK_EQ(drops.size(), D);
    ExplanationResult out;
    out.map = Tensor({D, n});
    for (int64_t d = 0; d < D; ++d) {
      float* row = out.map.data() + d * n;
      for (int64_t t = 0; t < n; ++t) row[t] = drops[d];
    }
    return out;
  }
};

// ---- registry --------------------------------------------------------------

constexpr char kPortableBackend[] = "portable";

struct Registry {
  std::mutex mu;
  std::vector<std::string> names;  // method registration order (unique)
  // Keyed (method, backend). The std::map keeps ExplainerBackends sorted.
  std::map<std::pair<std::string, std::string>, ExplainerFactory> factories;
  // Valid backend tags: the kernel-layer names, extended by
  // RegisterExplainerBackend. A request naming anything else is a spelling
  // error and CHECK-fails instead of silently falling back to portable.
  std::set<std::string> backends{"portable", "avx2"};

  bool HasMethod(const std::string& name) const {
    return std::find(names.begin(), names.end(), name) != names.end();
  }

  void Add(const std::string& name, const std::string& backend,
           ExplainerFactory factory) {
    if (!HasMethod(name)) names.push_back(name);
    backends.insert(backend);
    factories[{name, backend}] = std::move(factory);
  }
};

Registry& GetRegistry() {
  static Registry* registry = [] {
    auto* r = new Registry();
    auto add = [r](const char* name, ExplainerFactory factory) {
      r->Add(name, kPortableBackend, std::move(factory));
    };
    add("dcam", []() -> std::unique_ptr<Explainer> {
      return std::make_unique<DcamExplainer>();
    });
    add("dcam_serial", []() -> std::unique_ptr<Explainer> {
      return std::make_unique<DcamSerialExplainer>();
    });
    add("dcam_adaptive", []() -> std::unique_ptr<Explainer> {
      return std::make_unique<DcamAdaptiveExplainer>();
    });
    add("dcam_contrastive", []() -> std::unique_ptr<Explainer> {
      return std::make_unique<DcamContrastiveExplainer>();
    });
    add("cam", []() -> std::unique_ptr<Explainer> {
      return std::make_unique<CamExplainer>();
    });
    add("gradcam", []() -> std::unique_ptr<Explainer> {
      return std::make_unique<GradCamExplainer>();
    });
    add("gradient", []() -> std::unique_ptr<Explainer> {
      return std::make_unique<SimpleMapExplainer>("gradient",
                                                  &cam::InputGradient);
    });
    add("saliency", []() -> std::unique_ptr<Explainer> {
      return std::make_unique<SimpleMapExplainer>("saliency",
                                                  &cam::GradientSaliency);
    });
    add("grad_times_input", []() -> std::unique_ptr<Explainer> {
      return std::make_unique<SimpleMapExplainer>("grad_times_input",
                                                  &cam::GradientTimesInput);
    });
    add("smoothgrad", []() -> std::unique_ptr<Explainer> {
      return std::make_unique<SmoothGradExplainer>();
    });
    add("integrated_gradients", []() -> std::unique_ptr<Explainer> {
      return std::make_unique<IntegratedGradientsExplainer>();
    });
    add("occlusion", []() -> std::unique_ptr<Explainer> {
      return std::make_unique<OcclusionExplainer>();
    });
    add("dimension_occlusion", []() -> std::unique_ptr<Explainer> {
      return std::make_unique<DimensionOcclusionExplainer>();
    });
    return r;
  }();
  return *registry;
}

}  // namespace

uint64_t Explainer::OptionsDigest(int class_idx,
                                  const ExplainOptions& options) const {
  // Conservative default for external registrations: digest every field so
  // the cache can never alias two calls the method might distinguish.
  uint64_t h = HashString(name(), kFnvOffset);
  h = HashPod(class_idx, h);
  h = HashDcamOptions(options.dcam, h);
  h = HashPod(static_cast<uint8_t>(options.dcam.keep_mbar), h);
  h = HashPod(options.adaptive.batch, h);
  h = HashPod(options.adaptive.max_k, h);
  h = HashPod(options.adaptive.tolerance, h);
  h = HashPod(options.adaptive.stable_batches, h);
  h = HashPod(options.adaptive.seed, h);
  h = HashPod(static_cast<uint8_t>(options.adaptive.include_identity), h);
  h = HashPod(options.occlusion.window, h);
  h = HashPod(options.occlusion.stride, h);
  h = HashPod(static_cast<int>(options.occlusion.fill), h);
  h = HashPod(options.occlusion.batch, h);
  h = HashPod(options.smoothgrad.samples, h);
  h = HashPod(options.smoothgrad.noise_fraction, h);
  h = HashPod(options.smoothgrad.seed, h);
  h = HashPod(options.integrated.steps, h);
  h = HashTensor(options.integrated.baseline, h);
  return HashPod(options.contrast_class, h);
}

bool RegisterExplainer(const std::string& name, ExplainerFactory factory) {
  return RegisterExplainerBackend(name, kPortableBackend, std::move(factory));
}

bool RegisterExplainerBackend(const std::string& name,
                              const std::string& backend,
                              ExplainerFactory factory) {
  DCAM_CHECK(!backend.empty()) << "empty explainer backend name";
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.factories.count({name, backend}) > 0) return false;
  r.Add(name, backend, std::move(factory));
  return true;
}

bool HasExplainer(const std::string& name) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.HasMethod(name);
}

bool HasExplainerBackend(const std::string& name, const std::string& backend) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.factories.count({name, backend}) > 0;
}

bool KnownExplainerBackend(const std::string& backend) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.backends.count(backend) > 0;
}

std::vector<std::string> ExplainerBackends(const std::string& name) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> out;
  for (const auto& kv : r.factories) {
    if (kv.first.first == name) out.push_back(kv.first.second);
  }
  return out;
}

std::vector<std::string> AllExplainerNames() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.names;
}

std::unique_ptr<Explainer> MakeExplainer(const std::string& name) {
  return MakeExplainer(name, kPortableBackend);
}

std::unique_ptr<Explainer> MakeExplainer(const std::string& name,
                                         const std::string& backend) {
  ExplainerFactory factory;
  {
    Registry& r = GetRegistry();
    std::lock_guard<std::mutex> lock(r.mu);
    DCAM_CHECK(r.HasMethod(name))
        << "unknown explainer \"" << name
        << "\" (probe with HasExplainer; AllExplainerNames lists the "
           "registered methods)";
    DCAM_CHECK(r.backends.count(backend) > 0)
        << "unknown explainer backend \"" << backend << "\" for method \""
        << name
        << "\" (expected \"portable\", \"avx2\", or a name seen by "
           "RegisterExplainerBackend; probe with KnownExplainerBackend)";
    auto it = r.factories.find({name, backend});
    if (it == r.factories.end()) {
      it = r.factories.find({name, kPortableBackend});
    }
    DCAM_CHECK(it != r.factories.end())
        << "explainer \"" << name << "\" has no \"" << backend
        << "\" registration and no portable fallback";
    factory = it->second;
  }
  std::unique_ptr<Explainer> explainer = factory();
  DCAM_CHECK(explainer != nullptr);
  return explainer;
}

ExplanationResult Explain(const std::string& method, models::Model* model,
                          const Tensor& series, int class_idx,
                          const ExplainOptions& options) {
  return MakeExplainer(method)->Explain(model, series, class_idx, options);
}

uint64_t HashBytes(const void* data, size_t len, uint64_t h) {
  return Fnv1a(data, len, h);
}

uint64_t HashTensor(const Tensor& t, uint64_t h) {
  const int rank = t.empty() ? -1 : t.rank();
  h = HashBytes(&rank, sizeof rank, h);
  if (t.empty()) return h;
  for (int i = 0; i < rank; ++i) {
    const int64_t d = t.dim(i);
    h = HashBytes(&d, sizeof d, h);
  }
  return HashBytes(t.data(), static_cast<size_t>(t.size()) * sizeof(float), h);
}

}  // namespace explain
}  // namespace dcam
