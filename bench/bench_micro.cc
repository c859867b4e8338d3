// Micro-benchmarks of the substrate: convolution, batchnorm, recurrent cells,
// cube construction, CAM extraction, PR-AUC, and the dCAM explanation path
// (serial reference vs the batched DcamEngine). These are not paper figures;
// they track the performance of the building blocks every experiment uses.
//
// Pass `--json <path>` to additionally emit machine-readable results —
// op, shape, ns/iter, threads — so successive PRs can track the perf
// trajectory in BENCH_*.json files. All other flags are forwarded to
// google-benchmark (e.g. --benchmark_filter=Dcam).
//
// Gate mode (replaces the benchmark run; exit 1 on a miss):
//   --min-morsel-speedup X   adaptive morsels vs per-iteration claiming on
//                            the fine-grained scatter >= X
//   --min-engine-speedup X   DcamEngine::Compute vs ComputeDcamSerial on
//                            the 10/256/100 dCAM shape >= X

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cam/cam.h"
#include "core/cube.h"
#include "core/dcam.h"
#include "core/engine.h"
#include "eval/metrics.h"
#include "models/cnn.h"
#include "nn/batchnorm.h"
#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/recurrent.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/rng.h"

using namespace dcam;

namespace {

void BM_Conv1dForward(benchmark::State& state) {
  const int C = static_cast<int>(state.range(0));
  Rng rng(1);
  nn::Conv1d conv(C, C, 3, 1, &rng);
  Tensor in({8, C, 256});
  in.FillNormal(&rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(in, true).data());
  }
}
BENCHMARK(BM_Conv1dForward)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

// Direct-loop conv reference vs the im2col+GEMM path (same layer, same
// weights) — the naive-vs-kernel speedup the CI regression gate tracks.
void BM_Conv1dForwardNaive(benchmark::State& state) {
  const int C = static_cast<int>(state.range(0));
  Rng rng(1);
  nn::Conv1d conv(C, C, 3, 1, &rng);
  Tensor in({8, C, 256});
  in.FillNormal(&rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.ForwardNaive(in).data());
  }
}
BENCHMARK(BM_Conv1dForwardNaive)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

// Forward-only Conv2d on the dCNN cube shape (channels = D dimensions,
// height = D rows, (1, 3) kernels), at the small and the 512-class-scale
// filter counts.
void BM_Conv2dForward(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  const int F = static_cast<int>(state.range(1));
  Rng rng(1);
  nn::Conv2d conv(D, F, 1, 3, 0, 1, &rng);
  Tensor in({4, D, D, 128});
  in.FillNormal(&rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(in, true).data());
  }
}
BENCHMARK(BM_Conv2dForward)
    ->Args({10, 16})
    ->Args({10, 64})
    ->Unit(benchmark::kMicrosecond);

void BM_Conv2dForwardNaive(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  const int F = static_cast<int>(state.range(1));
  Rng rng(1);
  nn::Conv2d conv(D, F, 1, 3, 0, 1, &rng);
  Tensor in({4, D, D, 128});
  in.FillNormal(&rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.ForwardNaive(in).data());
  }
}
BENCHMARK(BM_Conv2dForwardNaive)
    ->Args({10, 16})
    ->Args({10, 64})
    ->Unit(benchmark::kMicrosecond);

void BM_Conv2dForwardBackward(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  Rng rng(1);
  nn::Conv2d conv(D, 16, 1, 3, 0, 1, &rng);
  Tensor in({4, D, D, 128});
  in.FillNormal(&rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor out = conv.Forward(in, true);
    benchmark::DoNotOptimize(conv.Backward(out).data());
  }
}
BENCHMARK(BM_Conv2dForwardBackward)
    ->Arg(4)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

void BM_BatchNorm(benchmark::State& state) {
  Rng rng(1);
  nn::BatchNorm bn(32);
  Tensor in({8, 32, 256});
  in.FillNormal(&rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn.Forward(in, true).data());
  }
}
BENCHMARK(BM_BatchNorm)->Unit(benchmark::kMicrosecond);

void BM_DenseForward(benchmark::State& state) {
  Rng rng(1);
  nn::Dense dense(256, 128, &rng);
  Tensor in({16, 256});
  in.FillNormal(&rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense.Forward(in, true).data());
  }
}
BENCHMARK(BM_DenseForward)->Unit(benchmark::kMicrosecond);

void BM_RecurrentForward(benchmark::State& state) {
  const auto type = static_cast<nn::CellType>(state.range(0));
  Rng rng(1);
  nn::Recurrent cell(type, 8, 64, &rng);
  Tensor in({4, 8, 128});
  in.FillNormal(&rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.Forward(in, true).data());
  }
  state.SetLabel(nn::CellTypeName(type));
}
BENCHMARK(BM_RecurrentForward)
    ->Arg(static_cast<int>(nn::CellType::kRnn))
    ->Arg(static_cast<int>(nn::CellType::kLstm))
    ->Arg(static_cast<int>(nn::CellType::kGru))
    ->Unit(benchmark::kMillisecond);

void BM_BuildCube(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor series({D, 256});
  series.FillNormal(&rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildCube(series).data());
  }
}
BENCHMARK(BM_BuildCube)->Arg(10)->Arg(40)->Unit(benchmark::kMicrosecond);

void BM_CamFromActivation(benchmark::State& state) {
  Rng rng(1);
  nn::Dense head(64, 2, &rng);
  Tensor act({1, 64, 10, 256});
  act.FillNormal(&rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cam::CamFromActivation(act, head, 0).data());
  }
}
BENCHMARK(BM_CamFromActivation)->Unit(benchmark::kMicrosecond);

void BM_PrAuc(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<float> scores(n);
  std::vector<int> labels(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = static_cast<float>(rng.Uniform());
    labels[i] = rng.Uniform() < 0.05 ? 1 : 0;
  }
  labels[0] = 1;  // guarantee a positive
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::PrAuc(scores, labels));
  }
}
BENCHMARK(BM_PrAuc)->Arg(1000)->Arg(100000)->Unit(benchmark::kMicrosecond);

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a({n, n}), b({n, n});
  a.FillNormal(&rng, 0.0f, 1.0f);
  b.FillNormal(&rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMul(a, b).data());
  }
}
BENCHMARK(BM_MatMul)
    ->Arg(64)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_MatMulNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a({n, n}), b({n, n});
  a.FillNormal(&rng, 0.0f, 1.0f);
  b.FillNormal(&rng, 0.0f, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::MatMulNaive(a, b).data());
  }
}
BENCHMARK(BM_MatMulNaive)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

// ---- morsel scheduler overhead --------------------------------------------

// Fine-grained scatter: a handful of flops per index, so scheduling cost IS
// the benchmark. The ParallelFor form claims one index per atomic op (the
// historical per-iteration pool, now a grain-1 morsel); the morsel form
// claims adaptive contiguous chunks — same body, same result, a few dozen
// claims total. The gap between these two rows is the morsel win the
// multicore CI lane gates on.
void BM_ParallelForScatter(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<float> src(static_cast<size_t>(n)), dst(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) src[static_cast<size_t>(i)] = 0.25f * i;
  for (auto _ : state) {
    ParallelFor(0, n, [&](int64_t i) {
      dst[static_cast<size_t>(i)] += 0.5f * src[static_cast<size_t>(i)];
    });
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetLabel("threads=" + std::to_string(GlobalPool().num_threads()));
}
BENCHMARK(BM_ParallelForScatter)->Arg(1 << 16)->Unit(benchmark::kMicrosecond);

void BM_ParallelMorselScatter(benchmark::State& state) {
  const int64_t n = state.range(0);
  std::vector<float> src(static_cast<size_t>(n)), dst(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) src[static_cast<size_t>(i)] = 0.25f * i;
  for (auto _ : state) {
    ParallelMorsel(0, n, ThreadPool::kAdaptiveGrain,
                   [&](int /*worker*/, int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) {
                       dst[static_cast<size_t>(i)] +=
                           0.5f * src[static_cast<size_t>(i)];
                     }
                   });
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetLabel("threads=" + std::to_string(GlobalPool().num_threads()));
}
BENCHMARK(BM_ParallelMorselScatter)
    ->Arg(1 << 16)
    ->Unit(benchmark::kMicrosecond);

// ---- dCAM explanation path: serial reference vs batched engine ------------

std::unique_ptr<models::ConvNet> BenchDcnn(int dims, Rng* rng) {
  models::ConvNetConfig cfg;
  cfg.filters = {8, 8, 8};
  return std::make_unique<models::ConvNet>(models::InputMode::kCube, dims, 2,
                                           cfg, rng);
}

// One permutation at a time, re-allocating cube/activations/CAM per
// iteration — the paper's loop as literally written.
void BM_ComputeDcamSerial(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  Rng rng(3);
  auto model = BenchDcnn(D, &rng);
  Tensor series({D, n});
  series.FillNormal(&rng, 0.0f, 1.0f);
  core::DcamOptions opts;
  opts.k = static_cast<int>(state.range(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ComputeDcamSerial(model.get(), series, 0, opts).dcam.data());
  }
  state.SetLabel("threads=" + std::to_string(GlobalPool().num_threads()));
}
BENCHMARK(BM_ComputeDcamSerial)
    ->Args({10, 256, 100})
    ->Args({6, 128, 40})
    ->Unit(benchmark::kMillisecond);

// The batched engine: same seed, bit-identical result, permutations packed
// into multi-instance forwards with persistent scratch.
void BM_ComputeDcamEngine(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  Rng rng(3);
  auto model = BenchDcnn(D, &rng);
  Tensor series({D, n});
  series.FillNormal(&rng, 0.0f, 1.0f);
  core::DcamOptions opts;
  opts.k = static_cast<int>(state.range(2));
  core::DcamEngine::Config cfg;
  cfg.batch = static_cast<int>(state.range(3));  // 0 = auto (pool width)
  core::DcamEngine engine(model.get(), cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Compute(series, 0, opts).dcam.data());
  }
  state.SetLabel("batch=" + std::to_string(engine.batch()) +
                 " threads=" + std::to_string(GlobalPool().num_threads()));
}
BENCHMARK(BM_ComputeDcamEngine)
    ->Args({10, 256, 100, 0})
    ->Args({10, 256, 100, 16})
    ->Args({6, 128, 40, 0})
    ->Unit(benchmark::kMillisecond);

// Dataset-level engine pass: ComputeMany packs permutation batches across
// series, so its throughput tracks how well the morsel sweep keeps the whole
// worker set fed across flush boundaries — the engine-scaling row.
void BM_ComputeDcamEngineMany(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int num_series = static_cast<int>(state.range(3));
  Rng rng(3);
  auto model = BenchDcnn(D, &rng);
  std::vector<Tensor> series;
  std::vector<int> classes;
  for (int i = 0; i < num_series; ++i) {
    series.emplace_back(Shape{D, n});
    series.back().FillNormal(&rng, 0.0f, 1.0f);
    classes.push_back(0);
  }
  core::DcamOptions opts;
  opts.k = static_cast<int>(state.range(2));
  core::DcamEngine engine(model.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.ComputeMany(series, classes, opts)[0].dcam.data());
  }
  state.SetLabel("batch=" + std::to_string(engine.batch()) +
                 " threads=" + std::to_string(GlobalPool().num_threads()));
}
BENCHMARK(BM_ComputeDcamEngineMany)
    ->Args({6, 128, 20, 4})
    ->Unit(benchmark::kMillisecond);

// The fused permuted-cube builder against the two-step reference.
void BM_BuildCubeInto(benchmark::State& state) {
  const int D = static_cast<int>(state.range(0));
  const int B = 16;
  Rng rng(1);
  Tensor series({D, 256});
  series.FillNormal(&rng, 0.0f, 1.0f);
  std::vector<std::vector<int>> perms(B);
  for (auto& p : perms) p = rng.Permutation(D);
  Tensor cube({B, D, D, 256});
  for (auto _ : state) {
    for (int b = 0; b < B; ++b) {
      core::BuildCubeInto(series, perms[static_cast<size_t>(b)], &cube, b);
    }
    benchmark::DoNotOptimize(cube.data());
  }
}
BENCHMARK(BM_BuildCubeInto)->Arg(10)->Arg(40)->Unit(benchmark::kMicrosecond);

// ---- --min-morsel-speedup gate --------------------------------------------

// Self-contained pass/fail check for CI: times the fine-grained scatter
// (the BM_Parallel*Scatter shape) under per-iteration claiming vs adaptive
// morsels on the global pool and fails (exit 1) when the morsel speedup
// falls below the threshold. Best-of-N timing so scheduler noise on shared
// runners doesn't flake the lane.
int RunMorselSpeedupGate(double min_speedup) {
  constexpr int64_t kRange = 1 << 17;
  constexpr int kReps = 9;
  std::vector<float> src(static_cast<size_t>(kRange));
  std::vector<float> dst(static_cast<size_t>(kRange), 0.0f);
  for (int64_t i = 0; i < kRange; ++i) src[static_cast<size_t>(i)] = 0.25f * i;

  const auto run_for = [&] {
    ParallelFor(0, kRange, [&](int64_t i) {
      dst[static_cast<size_t>(i)] += 0.5f * src[static_cast<size_t>(i)];
    });
  };
  const auto run_morsel = [&] {
    ParallelMorsel(0, kRange, ThreadPool::kAdaptiveGrain,
                   [&](int /*worker*/, int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) {
                       dst[static_cast<size_t>(i)] +=
                           0.5f * src[static_cast<size_t>(i)];
                     }
                   });
  };
  const auto best_ns = [&](auto&& body) {
    body();  // warm up the pool and the buffers
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      body();
      const auto t1 = std::chrono::steady_clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count();
      if (ns < best) best = ns;
    }
    return best;
  };

  const double for_ns = best_ns(run_for);
  const double morsel_ns = best_ns(run_morsel);
  const double speedup = for_ns / morsel_ns;
  const bool ok = speedup >= min_speedup;
  std::fprintf(stderr,
               "morsel-speedup gate: ParallelFor %.0f ns, ParallelMorsel "
               "%.0f ns -> %.2fx (threshold %.2fx, threads=%d): %s\n",
               for_ns, morsel_ns, speedup, min_speedup,
               GlobalPool().num_threads(), ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// ---- --min-engine-speedup gate --------------------------------------------

// The engine's parallelism claim for CI: DcamEngine::Compute against
// ComputeDcamSerial on the BM_ComputeDcamEngine/10/256/100/0 shape (same
// model, series and seed, so both produce the same map), timed alternately
// in one process, best of N each. Fails (exit 1) when serial / engine falls
// below the threshold.
int RunEngineSpeedupGate(double min_speedup) {
  constexpr int kDims = 10, kLen = 256, kPerms = 100;
  constexpr int kReps = 7;
  Rng rng(3);
  auto model = BenchDcnn(kDims, &rng);
  Tensor series({kDims, kLen});
  series.FillNormal(&rng, 0.0f, 1.0f);
  core::DcamOptions opts;
  opts.k = kPerms;
  core::DcamEngine engine(model.get());

  const auto run_serial = [&] {
    benchmark::DoNotOptimize(
        core::ComputeDcamSerial(model.get(), series, 0, opts).dcam.data());
  };
  const auto run_engine = [&] {
    benchmark::DoNotOptimize(engine.Compute(series, 0, opts).dcam.data());
  };
  const auto time_ns = [](auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
  };
  run_serial();  // warm up the pool, the replicas and the buffers
  run_engine();
  double serial_ns = 1e300, engine_ns = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    serial_ns = std::min(serial_ns, time_ns(run_serial));
    engine_ns = std::min(engine_ns, time_ns(run_engine));
  }
  const double speedup = serial_ns / engine_ns;
  const bool ok = speedup >= min_speedup;
  std::fprintf(stderr,
               "engine-speedup gate: ComputeDcamSerial %.2f ms, DcamEngine "
               "%.2f ms -> %.2fx (threshold %.2fx, batch=%d, threads=%d): "
               "%s\n",
               serial_ns * 1e-6, engine_ns * 1e-6, speedup, min_speedup,
               engine.batch(), GlobalPool().num_threads(),
               ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// ---- --json reporter ------------------------------------------------------

// Emits one record per benchmark run: op (the BM_* function), shape (the
// "/"-joined args), ns/iter, the thread count the run used, and the kernel
// dispatched kernel backend so cross-host baselines are interpretable.
class JsonFileReporter : public benchmark::BenchmarkReporter {
 public:
  explicit JsonFileReporter(std::string path) : path_(std::move(path)) {}

  bool ReportContext(const Context& /*context*/) override { return true; }

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      // Note: only the run_type filter — the error/skip field was renamed
      // between google-benchmark 1.7 (error_occurred) and 1.8 (skipped), so
      // touching it breaks one of the two; errored runs report 0 iterations
      // and are dropped by the guard below anyway.
      if (run.run_type != Run::RT_Iteration) continue;
      if (run.iterations <= 0) continue;
      const std::string name = run.benchmark_name();
      const size_t slash = name.find('/');
      Row row;
      row.op = slash == std::string::npos ? name : name.substr(0, slash);
      row.shape = slash == std::string::npos ? "" : name.substr(slash + 1);
      row.ns_per_iter =
          run.real_accumulated_time * 1e9 / static_cast<double>(run.iterations);
      row.threads = run.threads;
      row.iterations = static_cast<long long>(run.iterations);
      row.backend = gemm::BackendName();
      rows_.push_back(std::move(row));
    }
  }

  void Finalize() override {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_micro: cannot open %s for writing\n",
                   path_.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f,
                   "    {\"op\": \"%s\", \"shape\": \"%s\", "
                   "\"ns_per_iter\": %.1f, \"threads\": %d, "
                   "\"iterations\": %lld, \"backend\": \"%s\"}%s\n",
                   r.op.c_str(), r.shape.c_str(), r.ns_per_iter, r.threads,
                   r.iterations, r.backend.c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "bench_micro: wrote %zu results to %s\n",
                 rows_.size(), path_.c_str());
  }

 private:
  struct Row {
    std::string op, shape, backend;
    double ns_per_iter = 0.0;
    int threads = 1;
    long long iterations = 0;
  };
  std::string path_;
  std::vector<Row> rows_;
};

// Forwards every event to both wrapped reporters.
class TeeReporter : public benchmark::BenchmarkReporter {
 public:
  TeeReporter(benchmark::BenchmarkReporter* a, benchmark::BenchmarkReporter* b)
      : a_(a), b_(b) {}
  bool ReportContext(const Context& context) override {
    const bool ok = a_->ReportContext(context);
    b_->ReportContext(context);
    return ok;
  }
  void ReportRuns(const std::vector<Run>& report) override {
    a_->ReportRuns(report);
    b_->ReportRuns(report);
  }
  void Finalize() override {
    a_->Finalize();
    b_->Finalize();
  }

 private:
  benchmark::BenchmarkReporter* a_;
  benchmark::BenchmarkReporter* b_;
};

}  // namespace

int main(int argc, char** argv) {
  // Extract --json <path> (or --json=<path>), --min-morsel-speedup <x> and
  // --min-engine-speedup <x> before google-benchmark sees the argument
  // vector; everything else is forwarded untouched.
  std::string json_path;
  double min_morsel_speedup = 0.0;
  bool morsel_gate_requested = false;
  double min_engine_speedup = 0.0;
  bool engine_gate_requested = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--min-morsel-speedup" && i + 1 < argc) {
      min_morsel_speedup = std::atof(argv[++i]);
      morsel_gate_requested = true;
    } else if (arg.rfind("--min-morsel-speedup=", 0) == 0) {
      min_morsel_speedup = std::atof(arg.substr(21).c_str());
      morsel_gate_requested = true;
    } else if (arg == "--min-engine-speedup" && i + 1 < argc) {
      min_engine_speedup = std::atof(argv[++i]);
      engine_gate_requested = true;
    } else if (arg.rfind("--min-engine-speedup=", 0) == 0) {
      min_engine_speedup = std::atof(arg.substr(21).c_str());
      engine_gate_requested = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (morsel_gate_requested || engine_gate_requested) {
    // Gate mode replaces the benchmark run: timed comparisons whose exit
    // code is the verdict (see RunMorselSpeedupGate, RunEngineSpeedupGate).
    TuneAllocatorForRepeatedTensors();
    int status = 0;
    if (morsel_gate_requested) {
      status |= RunMorselSpeedupGate(min_morsel_speedup);
    }
    if (engine_gate_requested) {
      status |= RunEngineSpeedupGate(min_engine_speedup);
    }
    return status;
  }
  // Tune up front so the serial-vs-engine comparison sees one allocator
  // configuration (the engine would otherwise enable it mid-suite).
  TuneAllocatorForRepeatedTensors();
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    // The json reporter rides along in the display slot (wrapped together
    // with the console reporter) because the library's file slot insists on
    // --benchmark_out.
    benchmark::ConsoleReporter console;
    JsonFileReporter json(json_path);
    TeeReporter tee(&console, &json);
    benchmark::RunSpecifiedBenchmarks(&tee);
  }
  benchmark::Shutdown();
  return 0;
}
