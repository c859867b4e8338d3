#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "models/cnn.h"
#include "models/inception.h"
#include "models/mtex.h"
#include "models/model.h"
#include "models/resnet.h"
#include "models/zoo.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "tests/gradcheck.h"
#include "util/rng.h"

namespace dcam {
namespace models {
namespace {

constexpr int kDims = 3;
constexpr int kLen = 16;
constexpr int kClasses = 2;
constexpr int kScale = 32;  // tiny widths for tests

TEST(PrepareInputTest, StandardLayout) {
  Tensor batch({2, 3, 4});
  for (int64_t i = 0; i < batch.size(); ++i) batch[i] = static_cast<float>(i);
  Tensor prep = PrepareConvInput(batch, InputMode::kStandard);
  EXPECT_EQ(prep.shape(), (Shape{2, 3, 1, 4}));
  EXPECT_EQ(prep.at(1, 2, 0, 3), batch.at(1, 2, 3));
}

TEST(PrepareInputTest, SeparateLayout) {
  Tensor batch({2, 3, 4});
  for (int64_t i = 0; i < batch.size(); ++i) batch[i] = static_cast<float>(i);
  Tensor prep = PrepareConvInput(batch, InputMode::kSeparate);
  EXPECT_EQ(prep.shape(), (Shape{2, 1, 3, 4}));
  EXPECT_EQ(prep.at(1, 0, 2, 3), batch.at(1, 2, 3));
}

TEST(PrepareInputTest, CubeLayoutCyclicShift) {
  Tensor batch({1, 4, 2});
  for (int64_t i = 0; i < batch.size(); ++i) batch[i] = static_cast<float>(i);
  Tensor cube = PrepareConvInput(batch, InputMode::kCube);
  EXPECT_EQ(cube.shape(), (Shape{1, 4, 4, 2}));
  // cube[p][r] holds dimension (p + r) % D.
  for (int p = 0; p < 4; ++p) {
    for (int r = 0; r < 4; ++r) {
      const int d = (p + r) % 4;
      for (int t = 0; t < 2; ++t) {
        EXPECT_EQ(cube.at(0, p, r, t), batch.at(0, d, t));
      }
    }
  }
}

TEST(PrepareInputTest, CubeRowsAndColumnsContainAllDims) {
  Tensor batch({1, 5, 1});
  for (int d = 0; d < 5; ++d) batch.at(0, d, 0) = static_cast<float>(d);
  Tensor cube = PrepareConvInput(batch, InputMode::kCube);
  for (int r = 0; r < 5; ++r) {
    double row_sum = 0.0, col_sum = 0.0;
    for (int p = 0; p < 5; ++p) {
      row_sum += cube.at(0, p, r, 0);
      col_sum += cube.at(0, r, p, 0);
    }
    EXPECT_EQ(row_sum, 10.0);  // 0+1+2+3+4
    EXPECT_EQ(col_sum, 10.0);
  }
}

struct ZooCase {
  std::string name;
};

class ZooTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooTest, BuildsForwardsAndBackwards) {
  Rng rng(1);
  std::unique_ptr<Model> model =
      MakeModel(GetParam(), kDims, kLen, kClasses, kScale, &rng);
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->name(), GetParam());
  EXPECT_EQ(model->num_classes(), kClasses);
  EXPECT_GT(model->NumParams(), 0);

  Tensor batch({2, kDims, kLen});
  batch.FillNormal(&rng, 0.0f, 1.0f);
  Tensor logits = model->Forward(model->PrepareInput(batch), true);
  EXPECT_EQ(logits.shape(), (Shape{2, kClasses}));

  nn::SoftmaxCrossEntropy loss;
  loss.Forward(logits, {0, 1});
  Tensor gi = model->Backward(loss.Backward());
  EXPECT_EQ(gi.shape(), model->PrepareInput(batch).shape());
}

TEST_P(ZooTest, PredictReturnsValidClasses) {
  Rng rng(2);
  std::unique_ptr<Model> model =
      MakeModel(GetParam(), kDims, kLen, kClasses, kScale, &rng);
  Tensor batch({3, kDims, kLen});
  batch.FillNormal(&rng, 0.0f, 1.0f);
  for (int pred : model->Predict(batch)) {
    EXPECT_GE(pred, 0);
    EXPECT_LT(pred, kClasses);
  }
}

TEST_P(ZooTest, DeterministicGivenSeed) {
  Rng rng_a(3), rng_b(3);
  auto ma = MakeModel(GetParam(), kDims, kLen, kClasses, kScale, &rng_a);
  auto mb = MakeModel(GetParam(), kDims, kLen, kClasses, kScale, &rng_b);
  Rng data(4);
  Tensor batch({2, kDims, kLen});
  batch.FillNormal(&data, 0.0f, 1.0f);
  Tensor la = ma->Forward(ma->PrepareInput(batch), false);
  Tensor lb = mb->Forward(mb->PrepareInput(batch), false);
  EXPECT_TRUE(ops::AllClose(la, lb, 1e-6, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooTest,
                         ::testing::ValuesIn(AllModelNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(ZooTest, AllModelNamesHasThirteenEntries) {
  EXPECT_EQ(AllModelNames().size(), 13u);
}

TEST(ZooTest, GapAndCubePredicates) {
  EXPECT_TRUE(IsGapModel("dCNN"));
  EXPECT_TRUE(IsGapModel("cResNet"));
  EXPECT_TRUE(IsGapModel("InceptionTime"));
  EXPECT_FALSE(IsGapModel("MTEX"));
  EXPECT_FALSE(IsGapModel("LSTM"));
  EXPECT_TRUE(IsCubeModel("dCNN"));
  EXPECT_TRUE(IsCubeModel("dInceptionTime"));
  EXPECT_FALSE(IsCubeModel("CNN"));
  EXPECT_FALSE(IsCubeModel("cCNN"));
}

TEST(ZooTest, UnknownNameAborts) {
  Rng rng(5);
  EXPECT_DEATH(MakeModel("AlexNet", 2, 8, 2, 1, &rng), "unknown model");
}

TEST(ConvNetTest, LastActivationShapePerMode) {
  Rng rng(6);
  ConvNetConfig cfg;
  cfg.filters = {4, 4};
  Tensor batch({1, kDims, kLen});
  batch.FillNormal(&rng, 0.0f, 1.0f);

  ConvNet standard(InputMode::kStandard, kDims, kClasses, cfg, &rng);
  standard.Forward(standard.PrepareInput(batch), false);
  EXPECT_EQ(standard.last_activation().shape(), (Shape{1, 4, 1, kLen}));

  ConvNet separate(InputMode::kSeparate, kDims, kClasses, cfg, &rng);
  separate.Forward(separate.PrepareInput(batch), false);
  EXPECT_EQ(separate.last_activation().shape(), (Shape{1, 4, kDims, kLen}));

  ConvNet cube(InputMode::kCube, kDims, kClasses, cfg, &rng);
  cube.Forward(cube.PrepareInput(batch), false);
  EXPECT_EQ(cube.last_activation().shape(), (Shape{1, 4, kDims, kLen}));
}

TEST(ConvNetTest, NamesFollowMode) {
  Rng rng(7);
  ConvNetConfig cfg;
  cfg.filters = {2};
  EXPECT_EQ(ConvNet(InputMode::kStandard, 2, 2, cfg, &rng).name(), "CNN");
  EXPECT_EQ(ConvNet(InputMode::kSeparate, 2, 2, cfg, &rng).name(), "cCNN");
  EXPECT_EQ(ConvNet(InputMode::kCube, 2, 2, cfg, &rng).name(), "dCNN");
}

TEST(ConvNetTest, EvenKernelAborts) {
  Rng rng(8);
  ConvNetConfig cfg;
  cfg.kernel = 4;
  EXPECT_DEATH(ConvNet(InputMode::kStandard, 2, 2, cfg, &rng), "odd");
}

// ---- Infer: the forward-only path ----------------------------------------

// Moves every BatchNorm off its identity initialization (running mean 0,
// var 1, gamma 1, beta 0), so the fused pass is checked on values where
// each of its ops matters.
void RandomizeBatchNorms(Model* model, Rng* rng) {
  for (auto& buffer : model->Buffers()) {
    if (buffer.first == "running_var") {
      buffer.second->FillUniform(rng, 0.2f, 2.0f);
    } else {
      buffer.second->FillNormal(rng, 0.0f, 0.5f);
    }
  }
  for (nn::Parameter* p : model->Params()) {
    if (p->name == "bn.gamma") p->value.FillUniform(rng, 0.5f, 1.5f);
    if (p->name == "bn.beta") p->value.FillNormal(rng, 0.0f, 0.5f);
  }
}

void ExpectSameBits(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(want.size())),
            0);
}

class InferTest : public ::testing::TestWithParam<InputMode> {};

TEST_P(InferTest, MatchesForwardBitForBit) {
  Rng rng(31);
  ConvNetConfig cfg;
  cfg.filters = {4, 8, 6};
  ConvNet model(GetParam(), kDims, 3, cfg, &rng);
  RandomizeBatchNorms(&model, &rng);
  // 1 -> 3 grows the planned buffers, 3 -> 1 reuses them at a smaller
  // shape; each shape runs twice so the second Infer reads buffers the
  // first one left behind.
  for (int64_t B : {1, 3, 1}) {
    Tensor batch({B, kDims, kLen});
    batch.FillNormal(&rng, 0.0f, 1.0f);
    const Tensor input = model.PrepareInput(batch);
    const Tensor want = model.Forward(input, /*training=*/false);
    const Tensor want_act = model.last_activation().Clone();
    for (int rep = 0; rep < 2; ++rep) {
      SCOPED_TRACE(::testing::Message() << "B=" << B << " rep " << rep);
      ExpectSameBits(model.Infer(input), want);
      ExpectSameBits(model.last_activation(), want_act);
    }
  }
}

TEST_P(InferTest, BackwardAfterInferAborts) {
  Rng rng(32);
  ConvNetConfig cfg;
  cfg.filters = {4, 4};
  ConvNet model(GetParam(), kDims, kClasses, cfg, &rng);
  Tensor batch({2, kDims, kLen});
  batch.FillNormal(&rng, 0.0f, 1.0f);
  const Tensor input = model.PrepareInput(batch);
  // A Forward first, so only Infer can have made the caches stale.
  const Tensor logits = model.Forward(input, /*training=*/true);
  model.Infer(input);
  EXPECT_DEATH(model.Backward(Tensor(logits.shape(), 1.0f)),
               "DCAM_CHECK failed");
}

TEST_P(InferTest, ForwardBackwardAfterInferMatchesFreshClone) {
  Rng rng(33);
  ConvNetConfig cfg;
  cfg.filters = {4, 8};
  ConvNet model(GetParam(), kDims, kClasses, cfg, &rng);
  RandomizeBatchNorms(&model, &rng);
  const std::unique_ptr<Model> fresh = model.Clone();

  Tensor infer_batch({3, kDims, kLen});
  infer_batch.FillNormal(&rng, 0.0f, 1.0f);
  model.Infer(model.PrepareInput(infer_batch));

  Tensor batch({2, kDims, kLen});
  batch.FillNormal(&rng, 0.0f, 1.0f);
  const Tensor input = model.PrepareInput(batch);
  const Tensor logits = model.Forward(input, /*training=*/true);
  ExpectSameBits(logits, fresh->Forward(input, /*training=*/true));
  Tensor grad(logits.shape());
  grad.FillNormal(&rng, 0.0f, 1.0f);
  ExpectSameBits(model.Backward(grad), fresh->Backward(grad));

  const std::vector<nn::Parameter*> got = model.Params();
  const std::vector<nn::Parameter*> want = fresh->Params();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(got[i]->name);
    ExpectSameBits(got[i]->grad, want[i]->grad);
  }
  const auto got_buffers = model.Buffers();
  const auto want_buffers = fresh->Buffers();
  ASSERT_EQ(got_buffers.size(), want_buffers.size());
  for (size_t i = 0; i < got_buffers.size(); ++i) {
    ExpectSameBits(*got_buffers[i].second, *want_buffers[i].second);
  }
}

INSTANTIATE_TEST_SUITE_P(CnnFamily, InferTest,
                         ::testing::Values(InputMode::kStandard,
                                           InputMode::kSeparate,
                                           InputMode::kCube),
                         [](const ::testing::TestParamInfo<InputMode>& info) {
                           return InputModeName(info.param);
                         });

TEST(ScaledConfigTest, DividesWidths) {
  ConvNetConfig cnn;
  EXPECT_EQ(cnn.Scaled(64).filters[0], 1);
  EXPECT_EQ(cnn.Scaled(2).filters[0], 32);
  ResNetConfig res;
  EXPECT_EQ(res.Scaled(8).block_filters[2], 16);
  InceptionConfig inc;
  EXPECT_EQ(inc.Scaled(8).filters, 4);
  MtexConfig mtex;
  EXPECT_EQ(mtex.Scaled(16).block1_filters1, 1);
}

TEST(ModelGradTest, TinyDCnnEndToEnd) {
  // Whole-model gradient check through cube input, conv/bn/relu, GAP, dense.
  Rng rng(9);
  ConvNetConfig cfg;
  cfg.filters = {2, 2};
  ConvNet model(InputMode::kCube, 2, 2, cfg, &rng);

  Tensor batch({1, 2, 6});
  batch.FillNormal(&rng, 0.0f, 1.0f);
  Tensor input = model.PrepareInput(batch);

  Tensor out = model.Forward(input, true);
  Tensor w(out.shape());
  w.FillNormal(&rng, 0.0f, 1.0f);
  for (nn::Parameter* p : model.Params()) p->ZeroGrad();
  model.Backward(w);

  // Spot-check a handful of parameter coordinates by finite differences.
  int checked = 0;
  for (nn::Parameter* p : model.Params()) {
    if (checked >= 6) break;
    const int64_t i = p->value.size() / 2;
    const double analytic = p->grad[i];
    const float saved = p->value[i];
    const double eps = 1e-2;
    p->value[i] = saved + static_cast<float>(eps);
    const double lp = dcam::testing::WeightedSum(model.Forward(input, true), w);
    p->value[i] = saved - static_cast<float>(eps);
    const double lm = dcam::testing::WeightedSum(model.Forward(input, true), w);
    p->value[i] = saved;
    const double numeric = (lp - lm) / (2 * eps);
    const double denom = std::max({1.0, std::abs(numeric), std::abs(analytic)});
    EXPECT_NEAR(analytic / denom, numeric / denom, 5e-2) << p->name;
    ++checked;
  }
  EXPECT_GE(checked, 4);
}

TEST(ResNetTest, ShortcutOnlyWhenChannelsChange) {
  Rng rng(10);
  ResNetConfig cfg;
  cfg.block_filters = {4, 4, 8};
  ResNet model(InputMode::kStandard, 3, 2, cfg, &rng);
  // block 0: 3 -> 4 (shortcut), block 1: 4 -> 4 (identity), block 2: 4 -> 8.
  // Params: per block 3 conv (w+b) + 3 bn (g+b) = 12; shortcut adds 4.
  // Total = 12*3 + 4*2 + dense(2) = 46.
  EXPECT_EQ(model.Params().size(), 46u);
}

TEST(InceptionTest, DepthMustBeMultipleOfThree) {
  Rng rng(11);
  InceptionConfig cfg;
  cfg.depth = 4;
  EXPECT_DEATH(InceptionTime(InputMode::kStandard, 2, 2, cfg, &rng),
               "residual period");
}

TEST(InceptionTest, ActivationChannelsAreFourTimesFilters) {
  Rng rng(12);
  InceptionConfig cfg = InceptionConfig().Scaled(16);  // filters = 2
  cfg.depth = 3;
  InceptionTime model(InputMode::kStandard, kDims, kClasses, cfg, &rng);
  Tensor batch({1, kDims, kLen});
  batch.FillNormal(&rng, 0.0f, 1.0f);
  model.Forward(model.PrepareInput(batch), false);
  EXPECT_EQ(model.last_activation().dim(1), 4 * cfg.filters);
}

TEST(MtexTest, ExplainShapeMatchesInput) {
  Rng rng(13);
  MtexCnn model(kDims, kLen, kClasses, MtexConfig().Scaled(8), &rng);
  Tensor series({kDims, kLen});
  series.FillNormal(&rng, 0.0f, 1.0f);
  Tensor map = model.Explain(series, 0);
  EXPECT_EQ(map.shape(), (Shape{kDims, kLen}));
  for (int64_t i = 0; i < map.size(); ++i) EXPECT_GE(map[i], 0.0f);
}

TEST(MtexTest, TooShortSeriesAborts) {
  Rng rng(14);
  EXPECT_DEATH(MtexCnn(2, 3, 2, MtexConfig(), &rng), "n >= 4");
}

}  // namespace
}  // namespace models
}  // namespace dcam
