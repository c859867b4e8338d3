// Dense row-major float32 tensor.
//
// This is the storage substrate for the from-scratch neural-network stack
// (the paper's reference implementation uses PyTorch; we rebuild the minimum
// surface it needs). Shapes are small vectors of int64_t; data is owned by a
// shared_ptr so tensors copy cheaply by reference while Clone() provides a
// deep copy. All indexing helpers bounds-check via DCAM_CHECK.

#ifndef DCAM_TENSOR_TENSOR_H_
#define DCAM_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/check.h"

namespace dcam {

class Rng;

/// Shape of a tensor; dims ordered outermost-first (row-major layout).
using Shape = std::vector<int64_t>;

/// Returns the number of elements of a shape (product of dims).
int64_t NumElements(const Shape& shape);

/// Idempotent allocator tuning for workloads that repeatedly allocate and
/// free same-shaped large tensors (batched forwards): raises glibc's
/// mmap/trim thresholds so big blocks stay in the arena instead of being
/// re-mmapped (and re-faulted) every iteration. Process-global and
/// irreversible; retains up to ~64 MiB of freed heap. No-op off glibc.
/// Applied automatically by core::DcamEngine (and therefore by the
/// ComputeDcam wrapper — memory-constrained embedders can use
/// ComputeDcamSerial to avoid it); long-running trainers/servers may call
/// it directly.
void TuneAllocatorForRepeatedTensors();

/// Human-readable "(a, b, c)" rendering.
std::string ShapeToString(const Shape& shape);

/// Dense float tensor. Rank 0 is disallowed; scalars are shape {1}.
class Tensor {
 public:
  /// Empty tensor (rank 0, no storage). Valid only as a placeholder.
  Tensor() = default;

  /// Allocates a zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Allocates and fills with `value`.
  Tensor(Shape shape, float value);

  /// Wraps the given values (copied). values.size() must match the shape.
  Tensor(Shape shape, const std::vector<float>& values);

  /// Deep copy.
  Tensor Clone() const;

  /// True if no storage is attached.
  bool empty() const { return data_ == nullptr; }

  const Shape& shape() const { return shape_; }
  int rank() const { return static_cast<int>(shape_.size()); }
  int64_t dim(int i) const;
  int64_t size() const { return size_; }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  /// Flat element access.
  float& operator[](int64_t i) {
    DCAM_CHECK_GE(i, 0);
    DCAM_CHECK_LT(i, size_);
    return data_.get()[i];
  }
  float operator[](int64_t i) const {
    DCAM_CHECK_GE(i, 0);
    DCAM_CHECK_LT(i, size_);
    return data_.get()[i];
  }

  /// Multi-dimensional accessors for ranks 2..4 (the ranks the NN stack
  /// uses). Checked in debug and release.
  float& at(int64_t i, int64_t j);
  float at(int64_t i, int64_t j) const;
  float& at(int64_t i, int64_t j, int64_t k);
  float at(int64_t i, int64_t j, int64_t k) const;
  float& at(int64_t i, int64_t j, int64_t k, int64_t l);
  float at(int64_t i, int64_t j, int64_t k, int64_t l) const;

  /// Sets every element to `value`.
  void Fill(float value);

  /// Fills with N(mean, stddev) draws from `rng`.
  void FillNormal(Rng* rng, float mean, float stddev);

  /// Fills with U[lo, hi) draws from `rng`.
  void FillUniform(Rng* rng, float lo, float hi);

  /// Returns a tensor sharing storage but with a different shape of equal
  /// element count.
  Tensor Reshape(Shape new_shape) const;

  /// Returns a view of outermost row `i` as a (1, dims...) tensor sharing
  /// this tensor's storage. The view co-owns the whole buffer, so it keeps
  /// the parent's storage alive on its own.
  Tensor Row(int64_t i) const;

  /// Sum of all elements (double accumulator).
  double Sum() const;

  /// Mean of all elements.
  double Mean() const;

  /// Maximum element. Requires non-empty.
  float Max() const;

  /// Minimum element. Requires non-empty.
  float Min() const;

  /// Index of the maximum element (first on ties).
  int64_t Argmax() const;

 private:
  Shape shape_;
  int64_t size_ = 0;
  std::shared_ptr<float[]> data_;
};

/// Reuses `t` if it already has exactly `shape`, otherwise replaces it with
/// a fresh zero-initialized tensor of that shape. The persistent-scratch
/// idiom shared by the batched engine and the occlusion baseline. Returns
/// `t` for call-site convenience.
Tensor* EnsureTensorShape(Tensor* t, const Shape& shape);

}  // namespace dcam

#endif  // DCAM_TENSOR_TENSOR_H_
