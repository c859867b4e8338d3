#include "nn/pooling.h"

#include <limits>

namespace dcam {
namespace nn {

Tensor GlobalAvgPool::Forward(const Tensor& input, bool /*training*/) {
  Tensor out;
  Infer(input, &out);
  cached_shape_ = input.shape();
  return out;
}

void GlobalAvgPool::Infer(const Tensor& input, Tensor* out) const {
  DCAM_CHECK(input.rank() == 3 || input.rank() == 4);
  const int64_t B = input.dim(0), C = input.dim(1);
  int64_t S = input.dim(2);
  if (input.rank() == 4) S *= input.dim(3);
  EnsureTensorShape(out, {B, C});
  const float* in = input.data();
  float* o = out->data();
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t c = 0; c < C; ++c) {
      const float* p = in + (b * C + c) * S;
      double acc = 0.0;
      for (int64_t s = 0; s < S; ++s) acc += p[s];
      o[b * C + c] = static_cast<float>(acc / S);
    }
  }
}

Tensor GlobalAvgPool::Backward(const Tensor& grad_output) {
  DCAM_CHECK(!cached_shape_.empty()) << "Backward before Forward";
  const int64_t B = cached_shape_[0], C = cached_shape_[1];
  int64_t S = cached_shape_[2];
  if (cached_shape_.size() == 4) S *= cached_shape_[3];
  DCAM_CHECK_EQ(grad_output.dim(0), B);
  DCAM_CHECK_EQ(grad_output.dim(1), C);
  Tensor grad_in(cached_shape_);
  float* gi = grad_in.data();
  const float inv = 1.0f / static_cast<float>(S);
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t c = 0; c < C; ++c) {
      const float g = grad_output.at(b, c) * inv;
      float* p = gi + (b * C + c) * S;
      for (int64_t s = 0; s < S; ++s) p[s] = g;
    }
  }
  return grad_in;
}

MaxPool1d::MaxPool1d(int kernel, int stride, int padding)
    : kernel_(kernel), stride_(stride), padding_(padding) {
  DCAM_CHECK_GT(kernel, 0);
  DCAM_CHECK_GT(stride, 0);
  DCAM_CHECK_GE(padding, 0);
}

Tensor MaxPool1d::Forward(const Tensor& input, bool /*training*/) {
  DCAM_CHECK_EQ(input.rank(), 3);
  cached_in_shape_ = input.shape();
  const int64_t B = input.dim(0), C = input.dim(1), L = input.dim(2);
  const int64_t Lout = (L + 2 * padding_ - kernel_) / stride_ + 1;
  DCAM_CHECK_GT(Lout, 0);
  Tensor out({B, C, Lout});
  argmax_.assign(B * C * Lout, -1);
  const float* in = input.data();
  float* o = out.data();
  for (int64_t bc = 0; bc < B * C; ++bc) {
    const float* row = in + bc * L;
    float* orow = o + bc * Lout;
    int64_t* arow = argmax_.data() + bc * Lout;
    for (int64_t i = 0; i < Lout; ++i) {
      const int64_t start = i * stride_ - padding_;
      float best = -std::numeric_limits<float>::infinity();
      int64_t best_idx = -1;
      for (int64_t k = 0; k < kernel_; ++k) {
        const int64_t j = start + k;
        if (j < 0 || j >= L) continue;
        if (row[j] > best) {
          best = row[j];
          best_idx = j;
        }
      }
      DCAM_CHECK_GE(best_idx, 0) << "pooling window fully out of bounds";
      orow[i] = best;
      arow[i] = bc * L + best_idx;
    }
  }
  return out;
}

Tensor MaxPool1d::Backward(const Tensor& grad_output) {
  DCAM_CHECK(!cached_in_shape_.empty()) << "Backward before Forward";
  Tensor grad_in(cached_in_shape_);
  float* gi = grad_in.data();
  const float* g = grad_output.data();
  DCAM_CHECK_EQ(grad_output.size(), static_cast<int64_t>(argmax_.size()));
  for (size_t i = 0; i < argmax_.size(); ++i) {
    gi[argmax_[i]] += g[i];
  }
  return grad_in;
}

MaxPool2d::MaxPool2d(int kernel_h, int kernel_w, int stride_h, int stride_w,
                     int pad_h, int pad_w)
    : kernel_h_(kernel_h),
      kernel_w_(kernel_w),
      stride_h_(stride_h),
      stride_w_(stride_w),
      pad_h_(pad_h),
      pad_w_(pad_w) {
  DCAM_CHECK_GT(kernel_h, 0);
  DCAM_CHECK_GT(kernel_w, 0);
  DCAM_CHECK_GT(stride_h, 0);
  DCAM_CHECK_GT(stride_w, 0);
}

Tensor MaxPool2d::Forward(const Tensor& input, bool /*training*/) {
  DCAM_CHECK_EQ(input.rank(), 4);
  cached_in_shape_ = input.shape();
  const int64_t B = input.dim(0), C = input.dim(1), H = input.dim(2),
                W = input.dim(3);
  const int64_t Hout = (H + 2 * pad_h_ - kernel_h_) / stride_h_ + 1;
  const int64_t Wout = (W + 2 * pad_w_ - kernel_w_) / stride_w_ + 1;
  DCAM_CHECK_GT(Hout, 0);
  DCAM_CHECK_GT(Wout, 0);
  Tensor out({B, C, Hout, Wout});
  argmax_.assign(B * C * Hout * Wout, -1);
  const float* in = input.data();
  float* o = out.data();
  for (int64_t bc = 0; bc < B * C; ++bc) {
    const float* plane = in + bc * H * W;
    float* oplane = o + bc * Hout * Wout;
    int64_t* aplane = argmax_.data() + bc * Hout * Wout;
    for (int64_t y = 0; y < Hout; ++y) {
      for (int64_t x = 0; x < Wout; ++x) {
        const int64_t ys = y * stride_h_ - pad_h_;
        const int64_t xs = x * stride_w_ - pad_w_;
        float best = -std::numeric_limits<float>::infinity();
        int64_t best_idx = -1;
        for (int64_t kh = 0; kh < kernel_h_; ++kh) {
          const int64_t yy = ys + kh;
          if (yy < 0 || yy >= H) continue;
          for (int64_t kw = 0; kw < kernel_w_; ++kw) {
            const int64_t xx = xs + kw;
            if (xx < 0 || xx >= W) continue;
            const float v = plane[yy * W + xx];
            if (v > best) {
              best = v;
              best_idx = yy * W + xx;
            }
          }
        }
        DCAM_CHECK_GE(best_idx, 0) << "pooling window fully out of bounds";
        oplane[y * Wout + x] = best;
        aplane[y * Wout + x] = bc * H * W + best_idx;
      }
    }
  }
  return out;
}

Tensor MaxPool2d::Backward(const Tensor& grad_output) {
  DCAM_CHECK(!cached_in_shape_.empty()) << "Backward before Forward";
  Tensor grad_in(cached_in_shape_);
  float* gi = grad_in.data();
  const float* g = grad_output.data();
  DCAM_CHECK_EQ(grad_output.size(), static_cast<int64_t>(argmax_.size()));
  for (size_t i = 0; i < argmax_.size(); ++i) {
    gi[argmax_[i]] += g[i];
  }
  return grad_in;
}

Tensor Flatten::Forward(const Tensor& input, bool /*training*/) {
  DCAM_CHECK_GE(input.rank(), 2);
  cached_shape_ = input.shape();
  return input.Reshape({input.dim(0), input.size() / input.dim(0)});
}

Tensor Flatten::Backward(const Tensor& grad_output) {
  DCAM_CHECK(!cached_shape_.empty()) << "Backward before Forward";
  return grad_output.Reshape(cached_shape_);
}

}  // namespace nn
}  // namespace dcam
