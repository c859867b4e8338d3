#include <gtest/gtest.h>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace dcam {
namespace {

TEST(ShapeTest, NumElements) {
  EXPECT_EQ(NumElements({3}), 3);
  EXPECT_EQ(NumElements({2, 3, 4}), 24);
}

TEST(ShapeTest, ToString) {
  EXPECT_EQ(ShapeToString({2, 3}), "(2, 3)");
  EXPECT_EQ(ShapeToString({7}), "(7)");
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({4, 5});
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FillValueConstructor) {
  Tensor t({3, 3}, 2.5f);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(TensorTest, VectorConstructor) {
  Tensor t({2, 2}, std::vector<float>{1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
}

TEST(TensorTest, VectorConstructorSizeMismatchAborts) {
  EXPECT_DEATH(Tensor({2, 2}, std::vector<float>{1, 2, 3}),
               "DCAM_CHECK failed");
}

TEST(TensorTest, RowMajorLayout) {
  Tensor t({2, 3});
  t.at(1, 2) = 9.0f;
  EXPECT_EQ(t[5], 9.0f);
  Tensor u({2, 2, 2});
  u.at(1, 0, 1) = 7.0f;
  EXPECT_EQ(u[5], 7.0f);
  Tensor v({2, 2, 2, 2});
  v.at(1, 1, 0, 1) = 3.0f;
  EXPECT_EQ(v[13], 3.0f);
}

TEST(TensorTest, OutOfBoundsAborts) {
  Tensor t({2, 3});
  EXPECT_DEATH(t.at(2, 0), "DCAM_CHECK failed");
  EXPECT_DEATH(t.at(0, 3), "DCAM_CHECK failed");
  EXPECT_DEATH(t[6], "DCAM_CHECK failed");
  EXPECT_DEATH(t[-1], "DCAM_CHECK failed");
}

TEST(TensorTest, RankMismatchAborts) {
  Tensor t({2, 3});
  EXPECT_DEATH(t.at(0, 0, 0), "DCAM_CHECK failed");
}

TEST(TensorTest, CloneIsDeep) {
  Tensor t({2, 2}, 1.0f);
  Tensor c = t.Clone();
  c.at(0, 0) = 5.0f;
  EXPECT_EQ(t.at(0, 0), 1.0f);
}

TEST(TensorTest, CopyIsShallow) {
  Tensor t({2, 2}, 1.0f);
  Tensor c = t;
  c.at(0, 0) = 5.0f;
  EXPECT_EQ(t.at(0, 0), 5.0f);
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor t({2, 6});
  Tensor r = t.Reshape({3, 4});
  r.at(0, 0) = 8.0f;
  EXPECT_EQ(t.at(0, 0), 8.0f);
  EXPECT_EQ(r.rank(), 2);
  EXPECT_EQ(r.dim(0), 3);
}

TEST(TensorTest, RowViewSharesStorage) {
  Tensor t({3, 2, 4});
  for (int64_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
  Tensor row = t.Row(1);
  EXPECT_EQ(row.shape(), (Shape{1, 2, 4}));
  EXPECT_EQ(row.size(), 8);
  EXPECT_EQ(row.data(), t.data() + 8);
  row.at(0, 1, 3) = -1.0f;
  EXPECT_EQ(t.at(1, 1, 3), -1.0f);
  EXPECT_DEATH(t.Row(3), "DCAM_CHECK failed");
}

TEST(TensorTest, RowViewKeepsParentAlive) {
  Tensor row;
  {
    Tensor t({2, 5});
    for (int64_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
    row = t.Row(1);
  }
  // The parent handle is gone; the view alone owns the buffer now (a freed
  // buffer would be a use-after-free under the sanitizer lanes).
  for (int64_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i], static_cast<float>(5 + i));
  }
}

TEST(TensorTest, ReshapeWrongCountAborts) {
  Tensor t({2, 6});
  EXPECT_DEATH(t.Reshape({5}), "DCAM_CHECK failed");
}

TEST(TensorTest, SumMeanMaxMinArgmax) {
  Tensor t({4}, std::vector<float>{1, -2, 5, 0});
  EXPECT_DOUBLE_EQ(t.Sum(), 4.0);
  EXPECT_DOUBLE_EQ(t.Mean(), 1.0);
  EXPECT_EQ(t.Max(), 5.0f);
  EXPECT_EQ(t.Min(), -2.0f);
  EXPECT_EQ(t.Argmax(), 2);
}

TEST(TensorTest, ArgmaxFirstOnTies) {
  Tensor t({3}, std::vector<float>{2, 2, 2});
  EXPECT_EQ(t.Argmax(), 0);
}

TEST(TensorTest, FillNormalStatistics) {
  Rng rng(1);
  Tensor t({10000});
  t.FillNormal(&rng, 1.0f, 2.0f);
  EXPECT_NEAR(t.Mean(), 1.0, 0.1);
}

TEST(TensorTest, FillUniformBounds) {
  Rng rng(2);
  Tensor t({1000});
  t.FillUniform(&rng, -1.0f, 1.0f);
  EXPECT_GE(t.Min(), -1.0f);
  EXPECT_LT(t.Max(), 1.0f);
}

TEST(TensorTest, EmptyTensor) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  Tensor u({1});
  EXPECT_FALSE(u.empty());
}

TEST(TensorTest, ZeroDimAborts) { EXPECT_DEATH(Tensor({0, 3}), "shape"); }

}  // namespace
}  // namespace dcam
