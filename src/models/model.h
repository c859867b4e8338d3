// Model interface shared by every architecture in the paper's benchmark:
// CNN / ResNet / InceptionTime, their c- and d- variants, MTEX-CNN, and the
// recurrent baselines.
//
// Input convention: raw batches are (B, D, n) multivariate series. Each model
// declares how the raw batch is reorganized via PrepareInput:
//   * standard models  -> (B, D, 1, n)   (channels = dimensions; 1-D conv)
//   * c-variants       -> (B, 1, D, n)   (each dimension convolved alone)
//   * d-variants       -> (B, D, D, n)   (the C(T) cube of Section 4.2)
//   * recurrent models -> (B, D, n)      (unchanged)
// A 1-D convolution is realized as a 2-D convolution with a (1, l) kernel, so
// the three convolutional layouts share one implementation per architecture.

#ifndef DCAM_MODELS_MODEL_H_
#define DCAM_MODELS_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/dense.h"
#include "nn/layer.h"
#include "tensor/tensor.h"

namespace dcam {
namespace models {

/// Input layout of a convolutional model (see file comment).
enum class InputMode {
  kStandard,  // (B, D, 1, n): classic CNN/ResNet/InceptionTime
  kSeparate,  // (B, 1, D, n): cCNN/cResNet/cInceptionTime
  kCube,      // (B, D, D, n): dCNN/dResNet/dInceptionTime
};

std::string InputModeName(InputMode mode);

/// Reorganizes a raw (B, D, n) batch according to `mode`. For kCube the
/// dimension order of each instance is kept as-is (training uses the natural
/// order; dCAM permutes at explanation time).
Tensor PrepareConvInput(const Tensor& batch, InputMode mode);

/// Base interface.
class Model {
 public:
  virtual ~Model() = default;

  virtual std::string name() const = 0;
  virtual int num_classes() const = 0;

  /// Reorganizes a raw (B, D, n) batch into this model's input format.
  virtual Tensor PrepareInput(const Tensor& batch) const = 0;

  /// Prepared input -> logits (B, num_classes).
  virtual Tensor Forward(const Tensor& input, bool training) = 0;

  /// Gradient of the loss w.r.t. logits -> gradient w.r.t. prepared input.
  /// Accumulates parameter gradients.
  virtual Tensor Backward(const Tensor& grad_logits) = 0;

  virtual std::vector<nn::Parameter*> Params() = 0;

  /// Named non-trainable state (BatchNorm running statistics and the like),
  /// persisted by io::SaveModelWeights alongside Params().
  virtual std::vector<std::pair<std::string, Tensor*>> Buffers() { return {}; }

  /// Deep copy: a freshly constructed model of this topology whose
  /// parameters and buffers are bit-identical copies of this model's (the
  /// io/serialize.h entry round-trip, in memory). The clone owns private
  /// storage — no Tensor is shared — so original and clone can run Forward
  /// concurrently; this is what ExplainService replica sharding is built on.
  /// Implemented in zoo.cc; CHECK-fails when the subclass does not provide
  /// CloneArchitecture.
  std::unique_ptr<Model> Clone();

  /// A new model of the same topology with freshly initialized weights —
  /// the construction half of Clone. Subclasses that cannot rebuild
  /// themselves return nullptr (the default), which makes Clone CHECK-fail.
  virtual std::unique_ptr<Model> CloneArchitecture() const { return nullptr; }

  /// Total number of trainable scalars.
  int64_t NumParams();

  /// Convenience: argmax class predictions for a raw batch (eval mode).
  std::vector<int> Predict(const Tensor& raw_batch);
};

/// A model whose classifier head is GAP + Dense — the precondition for CAM
/// (Section 2.2). Exposes the last conv activation and the dense head.
class GapModel : public Model {
 public:
  /// Forward-only evaluation: the logits of Forward(input, false), bit for
  /// bit, for inference loops that never run Backward (the dCAM engine's
  /// lanes). Contract:
  ///   * no Backward may follow an Infer — a model with a fused Infer keeps
  ///     no backward caches and CHECK-fails; run Forward first;
  ///   * last_activation() is valid until the next Forward or Infer, which
  ///     may overwrite it in place.
  ///   * the returned logits are valid until the next Forward or Infer.
  /// The default runs Forward(input, false); the CNN family overrides it
  /// with fused Conv2d -> BatchNorm -> ReLU blocks, GAP and the dense head
  /// over buffers planned per input shape, so repeated calls at one shape
  /// allocate nothing.
  virtual const Tensor& Infer(const Tensor& input) {
    infer_logits_ = Forward(input, /*training=*/false);
    return infer_logits_;
  }

  /// Activation A of the last convolutional block from the most recent
  /// Forward or Infer, shape (B, nf, H, W).
  virtual const Tensor& last_activation() const = 0;

  /// The dense layer mapping GAP output to class logits.
  virtual const nn::Dense& head() const = 0;

 private:
  Tensor infer_logits_;  // the default Infer's result
};

}  // namespace models
}  // namespace dcam

#endif  // DCAM_MODELS_MODEL_H_
