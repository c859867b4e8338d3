// Tests for core/variants: extraction-rule ablations, adaptive-k dCAM, and
// the contrastive map.

#include <gtest/gtest.h>

#include <cmath>

#include "core/dcam.h"
#include "core/variants.h"
#include "models/zoo.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace dcam {
namespace core {
namespace {

std::unique_ptr<models::GapModel> SmallDcnn(int dims, uint64_t seed) {
  Rng rng(seed);
  return models::MakeGapModel("dCNN", dims, /*num_classes=*/2, /*scale=*/16,
                              &rng);
}

Tensor RandomSeries(int64_t d, int64_t n, uint64_t seed) {
  Rng rng(seed);
  Tensor t({d, n});
  t.FillNormal(&rng, 0.0f, 1.0f);
  return t;
}

void ExpectBitIdentical(const DcamResult& a, const DcamResult& b) {
  ASSERT_EQ(a.mbar.shape(), b.mbar.shape());
  for (int64_t i = 0; i < a.mbar.size(); ++i) {
    ASSERT_EQ(a.mbar[i], b.mbar[i]) << "mbar differs at flat index " << i;
  }
  ASSERT_EQ(a.dcam.shape(), b.dcam.shape());
  for (int64_t i = 0; i < a.dcam.size(); ++i) {
    ASSERT_EQ(a.dcam[i], b.dcam[i]) << "dcam differs at flat index " << i;
  }
  ASSERT_EQ(a.mu.shape(), b.mu.shape());
  for (int64_t i = 0; i < a.mu.size(); ++i) {
    ASSERT_EQ(a.mu[i], b.mu[i]) << "mu differs at flat index " << i;
  }
  EXPECT_EQ(a.num_correct, b.num_correct);
  EXPECT_EQ(a.k, b.k);
}

TEST(ExtractionRuleTest, NamesAreUniqueAndComplete) {
  const auto& all = AllExtractionRules();
  EXPECT_EQ(all.size(), 4u);
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(ExtractionRuleName(all[i]), ExtractionRuleName(all[j]));
    }
  }
}

TEST(ExtractionRuleTest, PaperRuleMatchesExtractDcam) {
  Rng rng(3);
  Tensor mbar({4, 4, 10});
  mbar.FillUniform(&rng, 0.0f, 1.0f);
  Tensor expected, mu;
  ExtractDcam(mbar, &expected, &mu);
  const Tensor got =
      ExtractWithRule(mbar, ExtractionRule::kVarianceTimesMu);
  ASSERT_EQ(got.shape(), expected.shape());
  for (int64_t i = 0; i < got.size(); ++i) {
    EXPECT_FLOAT_EQ(got[i], expected[i]);
  }
}

TEST(ExtractionRuleTest, ConstantPositionActivationHasZeroVariance) {
  // mbar[d][p][t] independent of p -> variance rules give exactly 0 (the
  // paper's "non-discriminant dimension" signature, Section 4.4.3), while
  // the mean rule preserves the value.
  const int64_t D = 3, n = 5;
  Tensor mbar({D, D, n});
  for (int64_t d = 0; d < D; ++d) {
    for (int64_t p = 0; p < D; ++p) {
      for (int64_t t = 0; t < n; ++t) {
        mbar.at(d, p, t) = static_cast<float>(d + 1);  // constant over p
      }
    }
  }
  const Tensor var = ExtractWithRule(mbar, ExtractionRule::kVarianceOnly);
  const Tensor vmu = ExtractWithRule(mbar, ExtractionRule::kVarianceTimesMu);
  const Tensor mad = ExtractWithRule(mbar, ExtractionRule::kMadTimesMu);
  const Tensor mean = ExtractWithRule(mbar, ExtractionRule::kMeanOnly);
  for (int64_t d = 0; d < D; ++d) {
    for (int64_t t = 0; t < n; ++t) {
      EXPECT_NEAR(var.at(d, t), 0.0f, 1e-5f);
      EXPECT_NEAR(vmu.at(d, t), 0.0f, 1e-4f);
      EXPECT_NEAR(mad.at(d, t), 0.0f, 1e-4f);
      EXPECT_FLOAT_EQ(mean.at(d, t), static_cast<float>(d + 1));
    }
  }
}

TEST(ExtractionRuleTest, PositionVarianceIsRewarded) {
  // Dimension 0 varies strongly with position; dimension 1 is flat. Every
  // variance-based rule must rank dimension 0 above dimension 1.
  const int64_t D = 2, n = 4;
  Tensor mbar({D, D, n});
  for (int64_t p = 0; p < D; ++p) {
    for (int64_t t = 0; t < n; ++t) {
      mbar.at(0, p, t) = p == 0 ? 2.0f : -2.0f;
      mbar.at(1, p, t) = 0.5f;
    }
  }
  for (ExtractionRule rule :
       {ExtractionRule::kVarianceOnly, ExtractionRule::kVarianceTimesMu,
        ExtractionRule::kMadTimesMu}) {
    const Tensor map = ExtractWithRule(mbar, rule);
    for (int64_t t = 0; t < n; ++t) {
      EXPECT_GT(std::fabs(map.at(0, t)), std::fabs(map.at(1, t)))
          << ExtractionRuleName(rule);
    }
  }
}

TEST(AdaptiveDcamTest, ExhaustedBudgetMatchesFixedK) {
  auto model = SmallDcnn(4, 11);
  const Tensor series = RandomSeries(4, 24, 5);

  AdaptiveDcamOptions aopt;
  aopt.batch = 8;
  aopt.max_k = 24;
  aopt.tolerance = 1e-12;  // never converges
  aopt.seed = 9;
  const AdaptiveDcamResult adaptive =
      ComputeDcamAdaptive(model.get(), series, 1, aopt);
  EXPECT_FALSE(adaptive.converged);
  EXPECT_EQ(adaptive.k_used, 24);

  DcamOptions fopt;
  fopt.k = 24;
  fopt.seed = 9;
  const DcamResult fixed = ComputeDcam(model.get(), series, 1, fopt);

  // Same seed, same permutation sequence: bit-identical M-bar, map and mu.
  ExpectBitIdentical(adaptive.result, fixed);
}

TEST(AdaptiveDcamTest, ConvergedMapIsFixedKMapAtKUsed) {
  // Anytime property: stopping early returns exactly the fixed-k estimator
  // at k = k_used, same seed.
  auto model = SmallDcnn(3, 21);
  const Tensor series = RandomSeries(3, 16, 6);
  AdaptiveDcamOptions aopt;
  aopt.batch = 10;
  aopt.max_k = 400;
  aopt.tolerance = 0.25;
  aopt.stable_batches = 2;
  aopt.seed = 17;
  const AdaptiveDcamResult adaptive =
      ComputeDcamAdaptive(model.get(), series, 0, aopt);
  ASSERT_TRUE(adaptive.converged);
  ASSERT_LT(adaptive.k_used, aopt.max_k);

  DcamOptions fopt;
  fopt.k = adaptive.k_used;
  fopt.seed = aopt.seed;
  ExpectBitIdentical(adaptive.result,
                     ComputeDcam(model.get(), series, 0, fopt));
}

TEST(AdaptiveDcamTest, SingleBatchBudgetRunsOnceWithoutChecks) {
  // max_k == batch: one round, so no previous map and no convergence check.
  auto model = SmallDcnn(3, 23);
  const Tensor series = RandomSeries(3, 16, 11);
  AdaptiveDcamOptions aopt;
  aopt.batch = 8;
  aopt.max_k = 8;
  aopt.tolerance = 0.5;
  aopt.stable_batches = 1;
  aopt.seed = 5;
  const AdaptiveDcamResult r = ComputeDcamAdaptive(model.get(), series, 1, aopt);
  EXPECT_TRUE(r.deltas.empty());
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.k_used, 8);
  DcamOptions fopt;
  fopt.k = 8;
  fopt.seed = 5;
  ExpectBitIdentical(r.result, ComputeDcam(model.get(), series, 1, fopt));
}

TEST(AdaptiveDcamTest, ConvergesBeforeCeilingOnStableMap) {
  auto model = SmallDcnn(3, 21);
  const Tensor series = RandomSeries(3, 16, 6);
  AdaptiveDcamOptions opt;
  opt.batch = 10;
  opt.max_k = 400;
  opt.tolerance = 0.25;  // loose: the averaged map stabilizes quickly
  opt.stable_batches = 2;
  const AdaptiveDcamResult r = ComputeDcamAdaptive(model.get(), series, 0, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.k_used, 400);
  EXPECT_GE(r.k_used, 30);  // needs at least 3 batches to observe 2 deltas
  EXPECT_FALSE(r.deltas.empty());
}

TEST(AdaptiveDcamTest, DeterministicGivenSeed) {
  auto model = SmallDcnn(3, 31);
  const Tensor series = RandomSeries(3, 16, 7);
  AdaptiveDcamOptions opt;
  opt.batch = 5;
  opt.max_k = 40;
  opt.seed = 123;
  const auto a = ComputeDcamAdaptive(model.get(), series, 0, opt);
  const auto b = ComputeDcamAdaptive(model.get(), series, 0, opt);
  EXPECT_EQ(a.k_used, b.k_used);
  ASSERT_EQ(a.result.dcam.size(), b.result.dcam.size());
  for (int64_t i = 0; i < a.result.dcam.size(); ++i) {
    EXPECT_FLOAT_EQ(a.result.dcam[i], b.result.dcam[i]);
  }
}

TEST(AdaptiveDcamTest, KUsedNeverExceedsCeiling) {
  auto model = SmallDcnn(3, 41);
  const Tensor series = RandomSeries(3, 16, 8);
  AdaptiveDcamOptions opt;
  opt.batch = 7;
  opt.max_k = 20;  // not a multiple of batch
  opt.tolerance = 1e-12;
  const auto r = ComputeDcamAdaptive(model.get(), series, 0, opt);
  EXPECT_EQ(r.k_used, 20);
  EXPECT_EQ(r.result.k, 20);
}

TEST(AdaptiveDcamTest, InvalidOptionsAbort) {
  auto model = SmallDcnn(3, 51);
  const Tensor series = RandomSeries(3, 16, 9);
  AdaptiveDcamOptions bad;
  bad.batch = 0;
  EXPECT_DEATH(ComputeDcamAdaptive(model.get(), series, 0, bad),
               "DCAM_CHECK failed");
  AdaptiveDcamOptions bad2;
  bad2.batch = 50;
  bad2.max_k = 10;
  EXPECT_DEATH(ComputeDcamAdaptive(model.get(), series, 0, bad2),
               "DCAM_CHECK failed");
}

TEST(ContrastiveDcamTest, AntisymmetricInClasses) {
  auto model = SmallDcnn(3, 61);
  const Tensor series = RandomSeries(3, 16, 10);
  DcamOptions opt;
  opt.k = 12;
  const Tensor ab = ContrastiveDcam(model.get(), series, 0, 1, opt);
  const Tensor ba = ContrastiveDcam(model.get(), series, 1, 0, opt);
  ASSERT_EQ(ab.shape(), ba.shape());
  for (int64_t i = 0; i < ab.size(); ++i) {
    EXPECT_NEAR(ab[i], -ba[i], 1e-5f);
  }
}

TEST(ContrastiveDcamTest, SameClassAborts) {
  auto model = SmallDcnn(3, 71);
  const Tensor series = RandomSeries(3, 16, 11);
  EXPECT_DEATH(ContrastiveDcam(model.get(), series, 1, 1),
               "DCAM_CHECK failed");
}

}  // namespace
}  // namespace core
}  // namespace dcam
