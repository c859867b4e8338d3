#include "core/dcam.h"

#include <numeric>

#include "cam/cam.h"
#include "core/cube.h"
#include "core/engine.h"
#include "util/rng.h"

namespace dcam {
namespace core {

void ExtractDcam(const Tensor& mbar, Tensor* dcam, Tensor* mu) {
  DCAM_CHECK_EQ(mbar.rank(), 3) << "M-bar must be a (D, D, n) tensor";
  const int64_t D = mbar.dim(0), n = mbar.dim(2);
  DCAM_CHECK_EQ(mbar.dim(1), D)
      << "M-bar must be square in its first two (dimension, position) axes, "
         "got "
      << ShapeToString(mbar.shape());
  DCAM_CHECK(dcam != nullptr);
  DCAM_CHECK(mu != nullptr);

  // mu_t = sum_{d,p} mbar[d][p][t] / (2 * D)   (Section 4.4.3).
  *mu = Tensor({n});
  for (int64_t d = 0; d < D; ++d) {
    for (int64_t p = 0; p < D; ++p) {
      const float* row = mbar.data() + (d * D + p) * n;
      float* m = mu->data();
      for (int64_t t = 0; t < n; ++t) m[t] += row[t];
    }
  }
  {
    const float inv = 1.0f / static_cast<float>(2 * D);
    float* m = mu->data();
    for (int64_t t = 0; t < n; ++t) m[t] *= inv;
  }

  // dcam[d][t] = Var_p(mbar[d][:,t]) * mu_t   (Definition 3).
  *dcam = Tensor({D, n});
  for (int64_t d = 0; d < D; ++d) {
    for (int64_t t = 0; t < n; ++t) {
      double sum = 0.0, sq = 0.0;
      for (int64_t p = 0; p < D; ++p) {
        const double v = mbar.at(d, p, t);
        sum += v;
        sq += v * v;
      }
      const double mean = sum / D;
      double var = sq / D - mean * mean;
      if (var < 0.0) var = 0.0;
      dcam->at(d, t) = static_cast<float>(var) * (*mu)[t];
    }
  }
}

bool AccumulatePermutation(models::GapModel* model, const Tensor& series,
                           int class_idx, const std::vector<int>& perm,
                           Tensor* msum) {
  const int64_t D = series.dim(0), n = series.dim(1);
  DCAM_CHECK_EQ(static_cast<int64_t>(perm.size()), D);
  DCAM_CHECK(msum != nullptr);
  DCAM_CHECK(msum->shape() == (Shape{D, D, n}));

  Tensor permuted = ApplyPermutation(series, perm);
  Tensor batch = permuted.Reshape({1, D, n});
  Tensor logits =
      model->Forward(model->PrepareInput(batch), /*training=*/false);
  const bool correct =
      logits.Reshape({logits.size()}).Argmax() == class_idx;

  // Standard CAM over the cube rows: (1, D, n) -> rows indexed by r.
  Tensor cam_rows = cam::CamFromActivation(model->last_activation(),
                                           model->head(), class_idx);
  DCAM_CHECK_EQ(cam_rows.dim(1), D);
  DCAM_CHECK_EQ(cam_rows.dim(2), n);

  // M transformation (Definition 2): row r of C(S) contains, at position p,
  // the original dimension perm[(p + r) % D]. Scatter the CAM row into
  // M[dimension][position].
  for (int64_t r = 0; r < D; ++r) {
    const float* cam_row = cam_rows.data() + r * n;
    for (int64_t p = 0; p < D; ++p) {
      const int d = perm[(p + r) % D];
      float* dst = msum->data() + (d * D + p) * n;
      for (int64_t t = 0; t < n; ++t) dst[t] += cam_row[t];
    }
  }
  return correct;
}

DcamResult ComputeDcam(models::GapModel* model, const Tensor& series,
                       int class_idx, const DcamOptions& options) {
  DCAM_CHECK(model != nullptr);
  DcamEngine engine(model);
  return engine.Compute(series, class_idx, options);
}

DcamResult ComputeDcamSerial(models::GapModel* model, const Tensor& series,
                             int class_idx, const DcamOptions& options) {
  DCAM_CHECK(model != nullptr);
  DCAM_CHECK_EQ(series.rank(), 2) << "series must be a (D, n) tensor";
  DCAM_CHECK_GT(options.k, 0)
      << "DcamOptions.k must be a positive permutation count";
  DCAM_CHECK_GE(class_idx, 0);
  DCAM_CHECK_LT(class_idx, model->num_classes());
  const int64_t D = series.dim(0), n = series.dim(1);

  Rng rng(options.seed);
  DcamResult result;
  result.k = options.k;
  result.mbar = Tensor({D, D, n});

  // The identity permutation is built once, and the random permutations all
  // reuse one scratch vector across the k iterations.
  std::vector<int> identity(D);
  std::iota(identity.begin(), identity.end(), 0);
  std::vector<int> scratch;

  for (int iter = 0; iter < options.k; ++iter) {
    const bool use_identity = iter == 0 && options.include_identity;
    if (!use_identity) rng.PermutationInto(static_cast<int>(D), &scratch);
    const std::vector<int>& perm = use_identity ? identity : scratch;
    if (AccumulatePermutation(model, series, class_idx, perm, &result.mbar)) {
      ++result.num_correct;
    }
  }

  // Average over the k permutations.
  {
    const float inv = 1.0f / static_cast<float>(options.k);
    float* m = result.mbar.data();
    for (int64_t i = 0; i < result.mbar.size(); ++i) m[i] *= inv;
  }

  ExtractDcam(result.mbar, &result.dcam, &result.mu);
  if (!options.keep_mbar) result.mbar = Tensor();
  return result;
}

}  // namespace core
}  // namespace dcam
