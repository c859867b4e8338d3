#include "nn/batchnorm.h"

#include <cmath>

namespace dcam {
namespace nn {
namespace {

// Decomposes a (B, C, spatial...) tensor into (B, C, S) indices.
struct Dims {
  int64_t batch;
  int64_t channels;
  int64_t spatial;
};

Dims SplitDims(const Tensor& t, int num_features) {
  DCAM_CHECK(t.rank() == 3 || t.rank() == 4)
      << "BatchNorm expects rank 3 or 4, got " << ShapeToString(t.shape());
  DCAM_CHECK_EQ(t.dim(1), num_features);
  int64_t spatial = t.dim(2);
  if (t.rank() == 4) spatial *= t.dim(3);
  return {t.dim(0), t.dim(1), spatial};
}

}  // namespace

BatchNorm::BatchNorm(int num_features, float momentum, float eps)
    : num_features_(num_features),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", {num_features}),
      beta_("bn.beta", {num_features}),
      running_mean_({num_features}),
      running_var_({num_features}) {
  gamma_.value.Fill(1.0f);
  running_var_.Fill(1.0f);
}

Tensor BatchNorm::Forward(const Tensor& input, bool training) {
  const Dims d = SplitDims(input, num_features_);
  const int64_t N = d.batch * d.spatial;
  DCAM_CHECK_GT(N, 0);
  cached_training_ = training;

  Tensor out(input.shape());
  cached_xhat_ = Tensor(input.shape());
  cached_invstd_ = Tensor({num_features_});
  const float* in = input.data();
  float* o = out.data();
  float* xh = cached_xhat_.data();

  for (int64_t c = 0; c < d.channels; ++c) {
    double mean, var;
    if (training) {
      double sum = 0.0, sq = 0.0;
      for (int64_t b = 0; b < d.batch; ++b) {
        const float* p = in + (b * d.channels + c) * d.spatial;
        for (int64_t s = 0; s < d.spatial; ++s) {
          sum += p[s];
          sq += static_cast<double>(p[s]) * p[s];
        }
      }
      mean = sum / N;
      var = sq / N - mean * mean;
      if (var < 0.0) var = 0.0;  // numeric guard
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] +
                         momentum_ * static_cast<float>(mean);
      running_var_[c] = (1.0f - momentum_) * running_var_[c] +
                        momentum_ * static_cast<float>(var);
    } else {
      mean = running_mean_[c];
      var = running_var_[c];
    }
    const float invstd = InvStd(var);
    cached_invstd_[c] = invstd;
    const float g = gamma_.value[c], bt = beta_.value[c];
    const float m = static_cast<float>(mean);
    for (int64_t b = 0; b < d.batch; ++b) {
      const float* p = in + (b * d.channels + c) * d.spatial;
      float* q = o + (b * d.channels + c) * d.spatial;
      float* xq = xh + (b * d.channels + c) * d.spatial;
      for (int64_t s = 0; s < d.spatial; ++s) {
        const float xhat = (p[s] - m) * invstd;
        xq[s] = xhat;
        q[s] = g * xhat + bt;
      }
    }
  }
  return out;
}

float BatchNorm::InvStd(double var) const {
  return static_cast<float>(1.0 / std::sqrt(var + eps_));
}

void BatchNorm::InferReluInPlace(Tensor* x) const {
  DCAM_CHECK(x != nullptr);
  const Dims d = SplitDims(*x, num_features_);
  float* data = x->data();
  for (int64_t c = 0; c < d.channels; ++c) {
    // Forward's running-statistics constants and per-element ops, then
    // ReLU::Forward's select, on the value while it is still in a register.
    const float invstd = InvStd(running_var_[c]);
    const float g = gamma_.value[c], bt = beta_.value[c];
    const float m = running_mean_[c];
    for (int64_t b = 0; b < d.batch; ++b) {
      float* p = data + (b * d.channels + c) * d.spatial;
      for (int64_t s = 0; s < d.spatial; ++s) {
        const float xhat = (p[s] - m) * invstd;
        const float y = g * xhat + bt;
        p[s] = y > 0.0f ? y : 0.0f;
      }
    }
  }
}

Tensor BatchNorm::Backward(const Tensor& grad_output) {
  DCAM_CHECK(!cached_xhat_.empty()) << "Backward before Forward";
  DCAM_CHECK(grad_output.shape() == cached_xhat_.shape());
  const Dims d = SplitDims(grad_output, num_features_);
  const int64_t N = d.batch * d.spatial;

  Tensor grad_in(grad_output.shape());
  const float* go = grad_output.data();
  const float* xh = cached_xhat_.data();
  float* gi = grad_in.data();

  for (int64_t c = 0; c < d.channels; ++c) {
    double dbeta = 0.0, dgamma = 0.0;
    for (int64_t b = 0; b < d.batch; ++b) {
      const float* g = go + (b * d.channels + c) * d.spatial;
      const float* x = xh + (b * d.channels + c) * d.spatial;
      for (int64_t s = 0; s < d.spatial; ++s) {
        dbeta += g[s];
        dgamma += static_cast<double>(g[s]) * x[s];
      }
    }
    gamma_.grad[c] += static_cast<float>(dgamma);
    beta_.grad[c] += static_cast<float>(dbeta);

    const float g_scale = gamma_.value[c] * cached_invstd_[c];
    if (cached_training_) {
      // Full batch-statistics gradient.
      const float mean_dbeta = static_cast<float>(dbeta / N);
      const float mean_dgamma = static_cast<float>(dgamma / N);
      for (int64_t b = 0; b < d.batch; ++b) {
        const float* g = go + (b * d.channels + c) * d.spatial;
        const float* x = xh + (b * d.channels + c) * d.spatial;
        float* q = gi + (b * d.channels + c) * d.spatial;
        for (int64_t s = 0; s < d.spatial; ++s) {
          q[s] = g_scale * (g[s] - mean_dbeta - x[s] * mean_dgamma);
        }
      }
    } else {
      // Running statistics are constants: plain scaling.
      for (int64_t b = 0; b < d.batch; ++b) {
        const float* g = go + (b * d.channels + c) * d.spatial;
        float* q = gi + (b * d.channels + c) * d.spatial;
        for (int64_t s = 0; s < d.spatial; ++s) q[s] = g_scale * g[s];
      }
    }
  }
  return grad_in;
}

std::vector<Parameter*> BatchNorm::Params() { return {&gamma_, &beta_}; }

}  // namespace nn
}  // namespace dcam
