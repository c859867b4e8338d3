// The CNN architecture family: CNN (standard), cCNN, and dCNN, selected by
// InputMode. Architecture per Section 5.2 of the paper: five convolutional
// blocks (Conv + BatchNorm + ReLU) with (64, 128, 256, 256, 256) filters and
// kernel length 3, followed by Global Average Pooling and a dense classifier.
//
// Deviation noted in DESIGN.md: convolutions use symmetric "same" padding
// ((k-1)/2) instead of the paper's padding of 2 so that activation maps stay
// aligned index-for-index with the input series, which is what Dr-acc needs.

#ifndef DCAM_MODELS_CNN_H_
#define DCAM_MODELS_CNN_H_

#include <memory>
#include <string>
#include <vector>

#include "models/model.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace dcam {
namespace models {

struct ConvNetConfig {
  /// Filters per convolutional block.
  std::vector<int> filters = {64, 128, 256, 256, 256};
  /// Kernel length along time (odd so "same" padding is symmetric).
  int kernel = 3;

  /// Returns a copy with every filter count divided by `factor` (min 1);
  /// used by tests/benches to run the same topology at reduced width.
  ConvNetConfig Scaled(int factor) const;
};

class ConvNet : public GapModel {
 public:
  ConvNet(InputMode mode, int dims, int num_classes,
          const ConvNetConfig& config, Rng* rng);

  std::string name() const override;
  int num_classes() const override { return num_classes_; }
  Tensor PrepareInput(const Tensor& batch) const override;
  Tensor Forward(const Tensor& input, bool training) override;
  /// Fused forward-only path (nn::Sequential::Infer, then GAP and the head
  /// into replica-owned buffers): no backward caches, and the logits and
  /// last_activation() view buffers the next Infer overwrites.
  const Tensor& Infer(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_logits) override;
  std::vector<nn::Parameter*> Params() override;
  std::vector<std::pair<std::string, Tensor*>> Buffers() override;
  std::unique_ptr<Model> CloneArchitecture() const override;

  const Tensor& last_activation() const override { return activation_; }
  const nn::Dense& head() const override { return *dense_; }

  InputMode mode() const { return mode_; }

 private:
  InputMode mode_;
  int dims_;
  int num_classes_;
  ConvNetConfig config_;  // kept verbatim so CloneArchitecture can rebuild
  nn::Sequential body_;
  nn::GlobalAvgPool gap_;
  std::unique_ptr<nn::Dense> dense_;
  Tensor activation_;
  Tensor pooled_, logits_;  // Infer's GAP and head outputs
};

}  // namespace models
}  // namespace dcam

#endif  // DCAM_MODELS_CNN_H_
