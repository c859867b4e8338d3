#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/rng.h"

namespace dcam {

bool HasShape(const Tensor& t, std::initializer_list<int64_t> shape) {
  return std::equal(t.shape().begin(), t.shape().end(), shape.begin(),
                    shape.end());
}

Tensor* EnsureTensorShape(Tensor* t, const Shape& shape) {
  DCAM_CHECK(t != nullptr);
  if (t->empty() || t->shape() != shape) *t = Tensor(shape);
  return t;
}

Tensor* EnsureTensorShape(Tensor* t, std::initializer_list<int64_t> shape) {
  DCAM_CHECK(t != nullptr);
  if (t->empty() || !HasShape(*t, shape)) *t = Tensor(Shape(shape));
  return t;
}

void ScratchView(Tensor* buf, std::initializer_list<int64_t> shape,
                 Tensor* view) {
  DCAM_CHECK(buf != nullptr && view != nullptr);
  int64_t size = 1;
  for (int64_t d : shape) {
    DCAM_CHECK_GT(d, 0);
    size *= d;
  }
  if (buf->size() < size) *buf = Tensor({size});
  if (view->data() == buf->data() && HasShape(*view, shape)) return;
  view->shape_.assign(shape);
  view->size_ = size;
  view->data_ = buf->data_;
}

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    DCAM_CHECK_GT(d, 0) << "shape " << ShapeToString(shape);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << '(';
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ')';
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  DCAM_CHECK(!shape_.empty()) << "rank-0 tensors are not supported";
  size_ = NumElements(shape_);
  data_ = std::shared_ptr<float[]>(new float[size_]());
}

Tensor::Tensor(Shape shape, float value) : Tensor(std::move(shape)) {
  Fill(value);
}

Tensor::Tensor(Shape shape, const std::vector<float>& values)
    : Tensor(std::move(shape)) {
  DCAM_CHECK_EQ(static_cast<int64_t>(values.size()), size_);
  std::memcpy(data_.get(), values.data(), sizeof(float) * size_);
}

Tensor Tensor::Clone() const {
  Tensor out(shape_);
  if (size_ > 0) std::memcpy(out.data(), data_.get(), sizeof(float) * size_);
  return out;
}

int64_t Tensor::dim(int i) const {
  DCAM_CHECK_GE(i, 0);
  DCAM_CHECK_LT(i, rank());
  return shape_[i];
}

float& Tensor::at(int64_t i, int64_t j) {
  DCAM_CHECK_EQ(rank(), 2);
  DCAM_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1])
      << "index (" << i << ", " << j << ") out of " << ShapeToString(shape_);
  return data_.get()[i * shape_[1] + j];
}

float Tensor::at(int64_t i, int64_t j) const {
  return const_cast<Tensor*>(this)->at(i, j);
}

float& Tensor::at(int64_t i, int64_t j, int64_t k) {
  DCAM_CHECK_EQ(rank(), 3);
  DCAM_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] && k >= 0 &&
             k < shape_[2])
      << "index (" << i << ", " << j << ", " << k << ") out of "
      << ShapeToString(shape_);
  return data_.get()[(i * shape_[1] + j) * shape_[2] + k];
}

float Tensor::at(int64_t i, int64_t j, int64_t k) const {
  return const_cast<Tensor*>(this)->at(i, j, k);
}

float& Tensor::at(int64_t i, int64_t j, int64_t k, int64_t l) {
  DCAM_CHECK_EQ(rank(), 4);
  DCAM_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] && k >= 0 &&
             k < shape_[2] && l >= 0 && l < shape_[3])
      << "index (" << i << ", " << j << ", " << k << ", " << l << ") out of "
      << ShapeToString(shape_);
  return data_.get()[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
}

float Tensor::at(int64_t i, int64_t j, int64_t k, int64_t l) const {
  return const_cast<Tensor*>(this)->at(i, j, k, l);
}

void Tensor::Fill(float value) {
  std::fill(data_.get(), data_.get() + size_, value);
}

void Tensor::FillNormal(Rng* rng, float mean, float stddev) {
  for (int64_t i = 0; i < size_; ++i) {
    data_.get()[i] = static_cast<float>(rng->Normal(mean, stddev));
  }
}

void Tensor::FillUniform(Rng* rng, float lo, float hi) {
  for (int64_t i = 0; i < size_; ++i) {
    data_.get()[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
}

Tensor Tensor::Reshape(Shape new_shape) const {
  DCAM_CHECK_EQ(NumElements(new_shape), size_)
      << "reshape " << ShapeToString(shape_) << " -> "
      << ShapeToString(new_shape);
  Tensor out;
  out.shape_ = std::move(new_shape);
  out.size_ = size_;
  out.data_ = data_;
  return out;
}

Tensor Tensor::Row(int64_t i) const {
  DCAM_CHECK_GE(rank(), 1);
  DCAM_CHECK_GE(i, 0);
  DCAM_CHECK_LT(i, shape_[0]);
  Tensor out;
  out.shape_ = shape_;
  out.shape_[0] = 1;
  out.size_ = size_ / shape_[0];
  // Aliasing constructor: shares ownership of the parent's buffer while
  // pointing at the row's first element.
  out.data_ = std::shared_ptr<float[]>(data_, data_.get() + i * out.size_);
  return out;
}

double Tensor::Sum() const {
  double s = 0.0;
  for (int64_t i = 0; i < size_; ++i) s += data_.get()[i];
  return s;
}

double Tensor::Mean() const {
  DCAM_CHECK_GT(size_, 0);
  return Sum() / static_cast<double>(size_);
}

float Tensor::Max() const {
  DCAM_CHECK_GT(size_, 0);
  return *std::max_element(data_.get(), data_.get() + size_);
}

float Tensor::Min() const {
  DCAM_CHECK_GT(size_, 0);
  return *std::min_element(data_.get(), data_.get() + size_);
}

int64_t Tensor::Argmax() const {
  DCAM_CHECK_GT(size_, 0);
  return std::max_element(data_.get(), data_.get() + size_) - data_.get();
}

}  // namespace dcam
