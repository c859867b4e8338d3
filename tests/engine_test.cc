// The batched DcamEngine's core contract: at a fixed seed it is bit-identical
// to the serial reference path for every batch size, for single series and
// for cross-series (dataset-level) batching. Plus property tests for the
// cube/permutation primitives the engine is built on.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <thread>

#include "cam/cam.h"
#include "core/cube.h"
#include "core/engine.h"
#include "core/global.h"
#include "models/cnn.h"
#include "models/model.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace dcam {
namespace core {
namespace {

std::unique_ptr<models::ConvNet> TinyDcnn(int dims, Rng* rng,
                                          int num_classes = 2) {
  models::ConvNetConfig cfg;
  cfg.filters = {4, 4};
  return std::make_unique<models::ConvNet>(models::InputMode::kCube, dims,
                                           num_classes, cfg, rng);
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

TEST(DcamEngineTest, BitIdenticalToSerialAcrossBatchSizes) {
  Rng rng(11);
  const int D = 5, n = 16;
  auto model = TinyDcnn(D, &rng);
  Tensor series({D, n});
  series.FillNormal(&rng, 0.0f, 1.0f);

  DcamOptions opts;
  opts.k = 37;  // not a multiple of any tested batch: exercises the tail
  opts.seed = 123;
  const DcamResult serial = ComputeDcamSerial(model.get(), series, 1, opts);
  EXPECT_EQ(serial.k, 37);

  for (int batch : {1, 7, 32}) {
    DcamEngine::Config cfg;
    cfg.batch = batch;
    DcamEngine engine(model.get(), cfg);
    const DcamResult batched = engine.Compute(series, 1, opts);
    SCOPED_TRACE("batch=" + std::to_string(batch));
    ExpectBitIdentical(serial, batched);
  }
}

TEST(DcamEngineTest, PublicComputeDcamMatchesSerial) {
  Rng rng(12);
  const int D = 4, n = 12;
  auto model = TinyDcnn(D, &rng);
  Tensor series({D, n});
  series.FillNormal(&rng, 0.0f, 1.0f);
  DcamOptions opts;
  opts.k = 9;
  ExpectBitIdentical(ComputeDcamSerial(model.get(), series, 0, opts),
                     ComputeDcam(model.get(), series, 0, opts));
}

TEST(DcamEngineTest, WithoutIdentityPermutationStillMatches) {
  Rng rng(13);
  const int D = 4, n = 10;
  auto model = TinyDcnn(D, &rng);
  Tensor series({D, n});
  series.FillNormal(&rng, 0.0f, 1.0f);
  DcamOptions opts;
  opts.k = 11;
  opts.include_identity = false;
  DcamEngine engine(model.get());
  ExpectBitIdentical(ComputeDcamSerial(model.get(), series, 1, opts),
                     engine.Compute(series, 1, opts));
}

TEST(DcamEngineTest, ComputeManyMatchesPerSeriesSerial) {
  Rng rng(14);
  const int D = 4, n = 12;
  auto model = TinyDcnn(D, &rng, 3);
  std::vector<Tensor> series;
  std::vector<int> classes;
  std::vector<DcamOptions> options;
  for (int i = 0; i < 5; ++i) {
    Tensor s({D, n});
    s.FillNormal(&rng, 0.0f, 1.0f);
    series.push_back(s);
    classes.push_back(i % 3);
    DcamOptions o;
    o.k = 6 + i;  // distinct k so cross-series packing misaligns batches
    o.seed = 1000 + i;
    options.push_back(o);
  }

  DcamEngine::Config cfg;
  cfg.batch = 8;  // smaller than the 35-permutation stream: forces packing
  DcamEngine engine(model.get(), cfg);
  const std::vector<DcamResult> batched =
      engine.ComputeMany(series, classes, options);
  ASSERT_EQ(batched.size(), series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    SCOPED_TRACE("series " + std::to_string(i));
    ExpectBitIdentical(
        ComputeDcamSerial(model.get(), series[i], classes[i], options[i]),
        batched[i]);
  }
}

TEST(DcamEngineTest, ComputeManyHandlesMixedSeriesLengths) {
  // A shape change mid-stream must flush cleanly and stay per-series exact.
  Rng rng(15);
  const int D = 4;
  auto model = TinyDcnn(D, &rng);
  std::vector<Tensor> series;
  std::vector<int> classes = {0, 1};
  std::vector<DcamOptions> options(2);
  options[0].k = 5;
  options[1].k = 5;
  Tensor a({D, 10}), b({D, 14});
  a.FillNormal(&rng, 0.0f, 1.0f);
  b.FillNormal(&rng, 0.0f, 1.0f);
  series = {a, b};

  DcamEngine engine(model.get());
  const std::vector<DcamResult> batched =
      engine.ComputeMany(series, classes, options);
  for (size_t i = 0; i < series.size(); ++i) {
    SCOPED_TRACE("series " + std::to_string(i));
    ExpectBitIdentical(
        ComputeDcamSerial(model.get(), series[i], classes[i], options[i]),
        batched[i]);
  }
}

TEST(DcamEngineTest, ScratchSurvivesRepeatedUse) {
  // Back-to-back Compute calls on one engine must not contaminate each other
  // through the persistent scratch buffers.
  Rng rng(16);
  const int D = 4, n = 12;
  auto model = TinyDcnn(D, &rng);
  Tensor series({D, n});
  series.FillNormal(&rng, 0.0f, 1.0f);
  DcamOptions opts;
  opts.k = 10;
  DcamEngine engine(model.get());
  const DcamResult first = engine.Compute(series, 1, opts);
  const DcamResult second = engine.Compute(series, 1, opts);
  ExpectBitIdentical(first, second);
}

TEST(DcamEngineTest, SeesModelChangesBetweenCalls) {
  // The engine forwards on per-worker replicas of the model. A weight or
  // BatchNorm statistic changed in place between two calls must reach them:
  // the second call explains the model as it is then.
  Rng rng(19);
  const int D = 4, n = 12;
  auto model = TinyDcnn(D, &rng);
  Tensor series({D, n});
  series.FillNormal(&rng, 0.0f, 1.0f);
  DcamOptions opts;
  opts.k = 10;
  DcamEngine engine(model.get());
  const DcamResult before = engine.Compute(series, 1, opts);

  nn::Parameter* conv_weight = model->Params().front();
  ASSERT_EQ(conv_weight->value.rank(), 4) << conv_weight->name;
  for (int64_t i = 0; i < conv_weight->value.size(); i += 3) {
    conv_weight->value[i] *= -1.5f;
  }
  bool perturbed_bn = false;
  for (auto& [name, buffer] : model->Buffers()) {
    if (name.find("running_mean") == std::string::npos) continue;
    for (int64_t i = 0; i < buffer->size(); ++i) (*buffer)[i] += 0.75f;
    perturbed_bn = true;
  }
  ASSERT_TRUE(perturbed_bn);

  const DcamResult after = engine.Compute(series, 1, opts);
  const DcamResult serial = ComputeDcamSerial(model.get(), series, 1, opts);
  ExpectBitIdentical(serial, after);
  bool changed = false;
  for (int64_t i = 0; i < before.mbar.size() && !changed; ++i) {
    changed = before.mbar[i] != after.mbar[i];
  }
  EXPECT_TRUE(changed) << "the perturbation did not change the explanation";
}

TEST(DcamEngineTest, ConcurrentEnginesOnClonesMatchSerial) {
  // Two engines over two clones of one model, driven from two threads at
  // once, share the worker pool: their sweeps interleave on the same
  // workers, each on its own engine's replicas.
  Rng rng(20);
  const int D = 5, n = 16;
  auto model = TinyDcnn(D, &rng);
  std::unique_ptr<models::Model> clone_a = model->Clone();
  std::unique_ptr<models::Model> clone_b = model->Clone();
  std::vector<Tensor> series;
  for (int i = 0; i < 2; ++i) {
    series.emplace_back(Shape{D, n});
    series.back().FillNormal(&rng, 0.0f, 1.0f);
  }
  DcamOptions opts;
  opts.k = 23;
  opts.seed = 77;
  std::vector<DcamResult> serial;
  for (int i = 0; i < 2; ++i) {
    serial.push_back(ComputeDcamSerial(model.get(), series[i], i, opts));
  }

  std::vector<DcamResult> got(2);
  const auto run = [&](models::Model* clone, int i) {
    DcamEngine engine(dynamic_cast<models::GapModel*>(clone));
    for (int round = 0; round < 3; ++round) {
      got[static_cast<size_t>(i)] = engine.Compute(series[i], i, opts);
    }
  };
  std::thread a(run, clone_a.get(), 0);
  std::thread b(run, clone_b.get(), 1);
  a.join();
  b.join();
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE("engine " + std::to_string(i));
    ExpectBitIdentical(serial[static_cast<size_t>(i)],
                       got[static_cast<size_t>(i)]);
  }
}

TEST(DcamEngineTest, KeepMbarFalseReleasesAccumulatorOnly) {
  Rng rng(24);
  const int D = 4, n = 10;
  auto model = TinyDcnn(D, &rng);
  Tensor series({D, n});
  series.FillNormal(&rng, 0.0f, 1.0f);
  DcamOptions opts;
  opts.k = 8;
  const DcamResult full = ComputeDcamSerial(model.get(), series, 1, opts);
  opts.keep_mbar = false;
  DcamEngine engine(model.get());
  const DcamResult slim = engine.Compute(series, 1, opts);
  EXPECT_TRUE(slim.mbar.empty());
  ASSERT_EQ(full.dcam.shape(), slim.dcam.shape());
  for (int64_t i = 0; i < full.dcam.size(); ++i) {
    ASSERT_EQ(full.dcam[i], slim.dcam[i]);
  }
  EXPECT_EQ(full.num_correct, slim.num_correct);
}

TEST(DcamEngineTest, RejectsInvalidArguments) {
  Rng rng(17);
  auto model = TinyDcnn(3, &rng);
  Tensor series({3, 8});
  DcamEngine engine(model.get());
  DcamOptions bad_k;
  bad_k.k = 0;
  EXPECT_DEATH(engine.Compute(series, 0, bad_k), "DCAM_CHECK failed");
  DcamOptions opts;
  EXPECT_DEATH(engine.Compute(series, 7, opts), "DCAM_CHECK failed");
  EXPECT_DEATH(engine.Compute(series.Reshape({3, 2, 4}), 0, opts),
               "DCAM_CHECK failed");
}

TEST(DcamEngineTest, RejectsNonCubeModel) {
  Rng rng(18);
  models::ConvNetConfig cfg;
  cfg.filters = {4};
  models::ConvNet standard(models::InputMode::kStandard, 3, 2, cfg, &rng);
  Tensor series({3, 8});
  DcamEngine engine(&standard);
  DcamOptions opts;
  opts.k = 2;
  EXPECT_DEATH(engine.Compute(series, 0, opts), "cube-input");
}

TEST(ExplainDatasetTest, MatchesManualAggregation) {
  Rng rng(19);
  const int D = 4, n = 12;
  auto model = TinyDcnn(D, &rng);
  std::vector<Tensor> series;
  std::vector<int> classes;
  std::vector<DcamOptions> options;
  std::vector<std::vector<int>> segments;
  for (int i = 0; i < 3; ++i) {
    Tensor s({D, n});
    s.FillNormal(&rng, 0.0f, 1.0f);
    series.push_back(s);
    classes.push_back(1);
    DcamOptions o;
    o.k = 7;
    o.seed = 40 + i;
    options.push_back(o);
    std::vector<int> seg(n);
    for (int t = 0; t < n; ++t) seg[t] = t < n / 2 ? 0 : 1;
    segments.push_back(seg);
  }

  DcamEngine engine(model.get());
  const DatasetExplanation got =
      ExplainDataset(&engine, series, classes, options, segments, 2);

  std::vector<Tensor> dcams;
  for (size_t i = 0; i < series.size(); ++i) {
    dcams.push_back(
        ComputeDcamSerial(model.get(), series[i], classes[i], options[i])
            .dcam);
  }
  const GlobalExplanation want = AggregateDcams(dcams, segments, 2);
  ASSERT_EQ(got.global.max_per_sensor.shape(), want.max_per_sensor.shape());
  for (int64_t i = 0; i < want.max_per_sensor.size(); ++i) {
    EXPECT_EQ(got.global.max_per_sensor[i], want.max_per_sensor[i]);
  }
  for (int64_t i = 0; i < want.mean_per_sensor_segment.size(); ++i) {
    EXPECT_EQ(got.global.mean_per_sensor_segment[i],
              want.mean_per_sensor_segment[i]);
  }
  EXPECT_EQ(got.results.size(), series.size());
}

// ---- Property tests for the cube/permutation primitives -------------------

TEST(CubePropertyTest, BuildCubeIntoMatchesApplyThenPrepare) {
  // For random permutations, the fused builder must equal the two-step
  // reference: cube(ApplyPermutation(series, perm)) — bit for bit.
  Rng rng(20);
  for (int trial = 0; trial < 20; ++trial) {
    const int D = 2 + static_cast<int>(rng.UniformInt(6));
    const int n = 4 + static_cast<int>(rng.UniformInt(12));
    Tensor series({D, n});
    series.FillNormal(&rng, 0.0f, 1.0f);
    const std::vector<int> perm = rng.Permutation(D);

    const Tensor reference = BuildCube(ApplyPermutation(series, perm));
    Tensor cube({2, D, D, n});
    BuildCubeInto(series, perm, &cube, 1);
    for (int64_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(cube[reference.size() + i], reference[i])
          << "trial " << trial << " flat index " << i;
    }
  }
}

TEST(CubePropertyTest, RowIndexInvertsCubeConstruction) {
  // Definition 1 round-trip: for every (dim, pos) of a random permuted
  // series, row RowIndex(d, p, D) of the cube holds dimension d at position
  // p. Equivalently cube[p][RowIndex(d, p, D)][t] == permuted[d][t].
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    const int D = 2 + static_cast<int>(rng.UniformInt(6));
    const int n = 3 + static_cast<int>(rng.UniformInt(8));
    Tensor series({D, n});
    series.FillNormal(&rng, 0.0f, 1.0f);
    const std::vector<int> perm = rng.Permutation(D);
    const Tensor permuted = ApplyPermutation(series, perm);
    const Tensor cube = BuildCube(permuted);

    for (int d = 0; d < D; ++d) {
      for (int p = 0; p < D; ++p) {
        const int r = RowIndex(d, p, D);
        ASSERT_GE(r, 0);
        ASSERT_LT(r, D);
        for (int t = 0; t < n; ++t) {
          ASSERT_EQ(cube.at(p, r, t), permuted.at(d, t))
              << "trial " << trial << " d=" << d << " p=" << p << " t=" << t;
        }
      }
    }
  }
}

TEST(CubePropertyTest, PermutationInverseRoundTrip) {
  // ApplyPermutation(ApplyPermutation(s, perm), inverse) == s.
  Rng rng(22);
  for (int trial = 0; trial < 20; ++trial) {
    const int D = 2 + static_cast<int>(rng.UniformInt(8));
    const int n = 3 + static_cast<int>(rng.UniformInt(10));
    Tensor series({D, n});
    series.FillNormal(&rng, 0.0f, 1.0f);
    const std::vector<int> perm = rng.Permutation(D);
    std::vector<int> inverse(perm.size());
    for (int q = 0; q < D; ++q) inverse[perm[q]] = q;

    // out[q] = in[perm[q]] means the round trip must apply `perm` first and
    // index the result with `inverse`.
    const Tensor round_trip =
        ApplyPermutation(ApplyPermutation(series, inverse), perm);
    for (int64_t i = 0; i < series.size(); ++i) {
      ASSERT_EQ(round_trip[i], series[i]) << "trial " << trial;
    }
  }
}

TEST(CamBatchedTest, MatchesPerInstanceCam) {
  Rng rng(23);
  nn::Dense head(6, 3, &rng);
  Tensor act({4, 6, 5, 9});
  act.FillNormal(&rng, 0.0f, 1.0f);

  Tensor batched({4, 5, 9});
  batched.Fill(7.0f);  // stale contents must be overwritten, not added to
  for (int cls = 0; cls < 3; ++cls) {
    cam::CamFromActivationInto(act, head, cls, &batched);
    for (int64_t b = 0; b < 4; ++b) {
      // Reference: single-instance CAM of instance b alone.
      Tensor one({1, 6, 5, 9});
      std::copy(act.data() + b * 6 * 5 * 9, act.data() + (b + 1) * 6 * 5 * 9,
                one.data());
      const Tensor want = cam::CamFromActivation(one, head, cls);
      for (int64_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(batched[b * 5 * 9 + i], want[i])
            << "class " << cls << " instance " << b;
      }
    }
  }
}

// ---- ComputeMany with a tick callback: the anytime/streaming path ---------

TEST(DcamEngineTickTest, TerminalBitIdenticalToSerialAtEveryCadence) {
  // Round-robin tick rounds must not change a single bit of the terminal
  // results: each request's permutations are drawn from its own Rng stream
  // in the same order, whatever the tick cadence. The callback only
  // continues; without one the loop would run a single round and the
  // cadences would not be exercised.
  Rng rng(31);
  const int D = 4, n = 12;
  auto model = TinyDcnn(D, &rng, 3);
  std::vector<Tensor> series;
  std::vector<int> classes;
  std::vector<DcamOptions> options;
  for (int i = 0; i < 4; ++i) {
    Tensor s({D, n});
    s.FillNormal(&rng, 0.0f, 1.0f);
    series.push_back(s);
    classes.push_back(i % 3);
    DcamOptions o;
    o.k = 7 + 3 * i;  // distinct budgets: requests retire on different rounds
    o.seed = 500 + i;
    options.push_back(o);
  }
  DcamEngine::Config cfg;
  cfg.batch = 8;
  DcamEngine engine(model.get(), cfg);
  for (int tick_every : {0, 1, 3, 8, 100}) {
    SCOPED_TRACE("tick_every=" + std::to_string(tick_every));
    DcamTickConfig ticks;
    ticks.tick_every = tick_every;
    int fired = 0;
    const std::vector<DcamResult> got = engine.ComputeMany(
        series, classes, options, ticks, [&](const DcamTick&) {
          ++fired;
          return TickAction::kContinue;
        });
    // k = 7..16 against cadence 100 completes in one round: no ticks.
    EXPECT_EQ(fired > 0, tick_every < 100);
    for (size_t i = 0; i < series.size(); ++i) {
      SCOPED_TRACE("series " + std::to_string(i));
      EXPECT_FALSE(got[i].cancelled);
      ExpectBitIdentical(
          ComputeDcamSerial(model.get(), series[i], classes[i], options[i]),
          got[i]);
    }
  }
}

TEST(DcamEngineTickTest, TicksAreMonotoneAndPartialMapsExact) {
  Rng rng(32);
  const int D = 4, n = 12;
  auto model = TinyDcnn(D, &rng);
  Tensor series({D, n});
  series.FillNormal(&rng, 0.0f, 1.0f);
  DcamOptions opts;
  opts.k = 10;
  opts.seed = 77;
  DcamEngine::Config cfg;
  cfg.batch = 4;
  DcamEngine engine(model.get(), cfg);

  DcamTickConfig ticks;
  ticks.tick_every = 3;
  ticks.emit_partial = {1};
  std::vector<int> k_seen;
  std::vector<double> deltas;
  std::vector<Tensor> maps;
  engine.ComputeMany(
      {series}, {0}, {opts}, ticks,
      [&](const DcamTick& tick) -> TickAction {
        EXPECT_EQ(tick.index, 0u);
        EXPECT_EQ(tick.k_target, 10);
        EXPECT_NE(tick.map, nullptr);
        k_seen.push_back(tick.k_done);
        deltas.push_back(tick.delta);
        maps.push_back(tick.map->Clone());
        return TickAction::kContinue;
      });
  // k = 10, cadence 3: ticks at 3, 6, 9; permutation 10 completes the round
  // that would have ticked at 12, so it finalizes instead.
  ASSERT_EQ(k_seen, (std::vector<int>{3, 6, 9}));
  EXPECT_EQ(deltas[0], 1.0);  // no previous map at the first tick
  for (size_t t = 1; t < deltas.size(); ++t) EXPECT_GE(deltas[t], 0.0);
  // Anytime property: the partial map at k_done is the very estimator a
  // full run with k = k_done produces — bit-identical, same seed.
  for (size_t t = 0; t < k_seen.size(); ++t) {
    SCOPED_TRACE("tick at k=" + std::to_string(k_seen[t]));
    DcamOptions small = opts;
    small.k = k_seen[t];
    const DcamResult ref = engine.Compute(series, 0, small);
    ASSERT_EQ(maps[t].shape(), ref.dcam.shape());
    for (int64_t j = 0; j < ref.dcam.size(); ++j) {
      ASSERT_EQ(maps[t][j], ref.dcam[j]) << "flat index " << j;
    }
  }
}

TEST(DcamEngineTickTest, CancelStopsOneRequestOthersExact) {
  Rng rng(33);
  const int D = 4, n = 12;
  auto model = TinyDcnn(D, &rng);
  std::vector<Tensor> series;
  for (int i = 0; i < 2; ++i) {
    Tensor s({D, n});
    s.FillNormal(&rng, 0.0f, 1.0f);
    series.push_back(s);
  }
  std::vector<DcamOptions> options(2);
  options[0].k = 12;
  options[0].seed = 41;
  options[1].k = 12;
  options[1].seed = 42;
  DcamEngine::Config cfg;
  cfg.batch = 4;
  DcamEngine engine(model.get(), cfg);

  DcamTickConfig ticks;
  ticks.tick_every = 4;
  const std::vector<DcamResult> got = engine.ComputeMany(
      series, {0, 1}, options, ticks, [&](const DcamTick& tick) {
        // Cancel request 0 at its first boundary; request 1 runs to budget.
        return tick.index == 0 ? TickAction::kCancel : TickAction::kContinue;
      });
  EXPECT_TRUE(got[0].cancelled);
  EXPECT_EQ(got[0].k, 4);  // the permutations accumulated before the stop
  ASSERT_FALSE(got[0].dcam.empty());  // partial map still extracted
  EXPECT_FALSE(got[1].cancelled);
  // The survivor is bit-identical to a solo full-budget run: a batch-mate's
  // cancellation reclaims budget, it never redistributes it.
  ExpectBitIdentical(engine.Compute(series[1], 1, options[1]), got[1]);
}

// ---- The pipeline: commit window, in-order commits, ticks on the caller ---

// Byte equality of everything a result carries (memcmp, so -0.0 vs 0.0 or
// differing NaN payloads would fail too).
void ExpectSameBytes(const DcamResult& want, const DcamResult& got) {
  const auto same = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
  };
  EXPECT_TRUE(same(want.mbar, got.mbar)) << "mbar differs";
  EXPECT_TRUE(same(want.dcam, got.dcam)) << "dcam differs";
  EXPECT_TRUE(same(want.mu, got.mu)) << "mu differs";
  EXPECT_EQ(want.num_correct, got.num_correct);
  EXPECT_EQ(want.k, got.k);
}

// Serial reference of a request stopped after `k` permutations.
DcamResult SerialAt(models::GapModel* model, const Tensor& series, int cls,
                    DcamOptions options, int k) {
  options.k = k;
  return ComputeDcamSerial(model, series, cls, options);
}

TEST(DcamEnginePipelineTest, BitIdenticalAcrossWindowsCadencesAndShapes) {
  // Two models, so D varies across cases; n varies within a call.
  Rng rng(71);
  for (int D : {3, 5}) {
    auto model = TinyDcnn(D, &rng, 3);
    std::vector<Tensor> series;
    std::vector<int> classes;
    std::vector<DcamOptions> options;
    for (int i = 0; i < 3; ++i) {
      Tensor s({D, 9 + 4 * i});
      s.FillNormal(&rng, 0.0f, 1.0f);
      series.push_back(s);
      classes.push_back(i % 3);
      DcamOptions o;
      o.k = 10 + 7 * i;  // 10, 17, 24: requests retire on different rounds
      o.seed = 300 + 10 * D + i;
      options.push_back(o);
    }
    for (int window : {1, 4, 7, 32}) {
      DcamEngine::Config cfg;
      cfg.batch = window;
      DcamEngine engine(model.get(), cfg);
      for (int tick_every : {1, 3, 16}) {
        for (size_t count = 1; count <= 3; ++count) {
          SCOPED_TRACE("D=" + std::to_string(D) +
                       " window=" + std::to_string(window) +
                       " tick_every=" + std::to_string(tick_every) +
                       " requests=" + std::to_string(count));
          const std::vector<Tensor> s(series.begin(), series.begin() + count);
          const std::vector<int> c(classes.begin(), classes.begin() + count);
          const std::vector<DcamOptions> o(options.begin(),
                                           options.begin() + count);
          DcamTickConfig ticks;
          ticks.tick_every = tick_every;
          ticks.emit_partial.assign(count, 0);
          ticks.emit_partial[0] = 1;  // one request snapshots, the rest not
          const std::vector<DcamResult> got = engine.ComputeMany(
              s, c, o, ticks,
              [](const DcamTick&) { return TickAction::kContinue; });
          for (size_t i = 0; i < count; ++i) {
            SCOPED_TRACE("request " + std::to_string(i));
            EXPECT_FALSE(got[i].cancelled);
            ExpectSameBytes(ComputeDcamSerial(model.get(), s[i], c[i], o[i]),
                            got[i]);
          }
        }
      }
    }
  }
}

// A cube-model decorator that counts forwards across all of its clones (the
// engine's lanes), so a test can tell that lanes computed ahead.
class CountingModel final : public models::GapModel {
 public:
  CountingModel(std::unique_ptr<models::GapModel> inner,
                std::atomic<int>* forwards)
      : inner_(std::move(inner)), forwards_(forwards) {}

  std::string name() const override { return inner_->name(); }
  int num_classes() const override { return inner_->num_classes(); }
  Tensor PrepareInput(const Tensor& batch) const override {
    return inner_->PrepareInput(batch);
  }
  Tensor Forward(const Tensor& input, bool training) override {
    return inner_->Forward(input, training);
  }
  const Tensor& Infer(const Tensor& input) override {
    forwards_->fetch_add(1);
    return inner_->Infer(input);
  }
  Tensor Backward(const Tensor& grad_logits) override {
    return inner_->Backward(grad_logits);
  }
  std::vector<nn::Parameter*> Params() override { return inner_->Params(); }
  std::vector<std::pair<std::string, Tensor*>> Buffers() override {
    return inner_->Buffers();
  }
  std::unique_ptr<models::Model> CloneArchitecture() const override {
    std::unique_ptr<models::Model> arch = inner_->CloneArchitecture();
    auto* gap = dynamic_cast<models::GapModel*>(arch.release());
    return std::make_unique<CountingModel>(
        std::unique_ptr<models::GapModel>(gap), forwards_);
  }
  const Tensor& last_activation() const override {
    return inner_->last_activation();
  }
  const nn::Dense& head() const override { return inner_->head(); }

 private:
  std::unique_ptr<models::GapModel> inner_;
  std::atomic<int>* forwards_;
};

TEST(DcamEnginePipelineTest, CancelDropsSlotsComputedAhead) {
  Rng rng(72);
  const int D = 4;
  std::atomic<int> forwards{0};
  CountingModel model(TinyDcnn(D, &rng), &forwards);
  std::vector<Tensor> series;
  for (int i = 0; i < 2; ++i) {
    Tensor s({D, 12});
    s.FillNormal(&rng, 0.0f, 1.0f);
    series.push_back(s);
  }
  std::vector<DcamOptions> options(2);
  options[0].k = 40;
  options[0].seed = 51;
  options[1].k = 40;
  options[1].seed = 52;
  DcamEngine::Config cfg;
  cfg.batch = 32;
  DcamEngine engine(&model, cfg);

  // Draw order: [r0 0-3][r1 0-3][r0 4-7][r1 4-7]... Request 0's first tick
  // runs after its 4th commit; while the callback holds the caller, the
  // other lanes keep claiming up to the window edge, so request 0's slots
  // 4-7 (slots 8-11) are computed before the verdict. The wait is bounded
  // and only decides how much was speculated, never the results.
  const bool has_workers = GlobalPool().num_threads() > 1;
  int speculated = 0;
  DcamTickConfig ticks;
  ticks.tick_every = 4;
  const std::vector<DcamResult> got = engine.ComputeMany(
      series, {0, 1}, options, ticks, [&](const DcamTick& tick) {
        if (tick.index != 0) return TickAction::kContinue;
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (has_workers && forwards.load() < 12 &&
               std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
        speculated = forwards.load();
        return TickAction::kCancel;
      });
  EXPECT_TRUE(got[0].cancelled);
  EXPECT_EQ(got[0].k, 4);
  if (has_workers) EXPECT_GE(speculated, 12);
  // Exactly the first k_done permutations, none of the speculated ones...
  ExpectSameBytes(SerialAt(&model, series[0], 0, options[0], 4), got[0]);
  // ...and the batch-mate is untouched.
  EXPECT_FALSE(got[1].cancelled);
  ExpectSameBytes(ComputeDcamSerial(&model, series[1], 1, options[1]),
                  got[1]);
}

// Three requests of different lengths ticking on a 7-slot window; records
// every tick.
struct TickLog {
  std::vector<std::thread::id> threads;
  std::map<size_t, std::vector<int>> k_done;
};

TickLog RunTickLog(DcamEngine* engine, Rng* rng, int D, int tick_every) {
  std::vector<Tensor> series;
  std::vector<DcamOptions> options;
  for (int i = 0; i < 3; ++i) {
    Tensor s({D, 10 + 3 * i});
    s.FillNormal(rng, 0.0f, 1.0f);
    series.push_back(s);
    DcamOptions o;
    o.k = 20 + 5 * i;
    o.seed = 80 + i;
    options.push_back(o);
  }
  DcamTickConfig ticks;
  ticks.tick_every = tick_every;
  ticks.emit_partial = {1, 0, 1};
  TickLog log;
  engine->ComputeMany(series, {0, 1, 0}, options, ticks,
                      [&](const DcamTick& tick) {
                        log.threads.push_back(std::this_thread::get_id());
                        log.k_done[tick.index].push_back(tick.k_done);
                        return TickAction::kContinue;
                      });
  return log;
}

TEST(DcamEnginePipelineTest, TicksRunOnTheCallingThread) {
  Rng rng(73);
  const int D = 4;
  auto model = TinyDcnn(D, &rng);
  DcamEngine::Config cfg;
  cfg.batch = 7;
  DcamEngine engine(model.get(), cfg);
  const TickLog log = RunTickLog(&engine, &rng, D, 3);
  ASSERT_FALSE(log.threads.empty());
  for (const std::thread::id& id : log.threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(DcamEnginePipelineTest, KDoneRisesMonotonicallyPerRequest) {
  Rng rng(74);
  const int D = 4;
  auto model = TinyDcnn(D, &rng);
  DcamEngine::Config cfg;
  cfg.batch = 7;
  DcamEngine engine(model.get(), cfg);
  const TickLog log = RunTickLog(&engine, &rng, D, 3);
  // k = 20, 25, 30 at cadence 3: ticks at 3, 6, ... below each budget.
  ASSERT_EQ(log.k_done.size(), 3u);
  for (const auto& [index, seen] : log.k_done) {
    SCOPED_TRACE("request " + std::to_string(index));
    const int k = 20 + 5 * static_cast<int>(index);
    std::vector<int> want;
    for (int t = 3; t < k; t += 3) want.push_back(t);
    EXPECT_EQ(seen, want);
  }
}

}  // namespace
}  // namespace core
}  // namespace dcam
