#include "core/variants.h"

#include <cmath>
#include <utility>

#include "core/engine.h"

namespace dcam {
namespace core {
namespace {

// mu_t = sum_{d,p} mbar[d][p][t] / (2 * D) (Section 4.4.3).
Tensor ComputeMu(const Tensor& mbar) {
  const int64_t D = mbar.dim(0), n = mbar.dim(2);
  Tensor mu({n});
  for (int64_t d = 0; d < D; ++d) {
    for (int64_t p = 0; p < D; ++p) {
      const float* row = mbar.data() + (d * D + p) * n;
      for (int64_t t = 0; t < n; ++t) mu[t] += row[t];
    }
  }
  const float inv = 1.0f / static_cast<float>(2 * D);
  for (int64_t t = 0; t < n; ++t) mu[t] *= inv;
  return mu;
}

}  // namespace

double RelativeL2Delta(const Tensor& a, const Tensor& b) {
  double num = 0.0, den = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    num += d * d;
    den += static_cast<double>(b[i]) * b[i];
  }
  if (den == 0.0) return num == 0.0 ? 0.0 : 1.0;
  return std::sqrt(num / den);
}

std::string ExtractionRuleName(ExtractionRule rule) {
  switch (rule) {
    case ExtractionRule::kVarianceTimesMu:
      return "var*mu";
    case ExtractionRule::kVarianceOnly:
      return "var";
    case ExtractionRule::kMeanOnly:
      return "mean";
    case ExtractionRule::kMadTimesMu:
      return "mad*mu";
  }
  return "?";
}

const std::vector<ExtractionRule>& AllExtractionRules() {
  static const std::vector<ExtractionRule> kAll = {
      ExtractionRule::kVarianceTimesMu, ExtractionRule::kVarianceOnly,
      ExtractionRule::kMeanOnly, ExtractionRule::kMadTimesMu};
  return kAll;
}

Tensor ExtractWithRule(const Tensor& mbar, ExtractionRule rule) {
  DCAM_CHECK_EQ(mbar.rank(), 3);
  const int64_t D = mbar.dim(0), n = mbar.dim(2);
  DCAM_CHECK_EQ(mbar.dim(1), D);

  if (rule == ExtractionRule::kVarianceTimesMu) {
    Tensor map, mu;
    ExtractDcam(mbar, &map, &mu);
    return map;
  }

  const Tensor mu = ComputeMu(mbar);
  Tensor map({D, n});
  for (int64_t d = 0; d < D; ++d) {
    for (int64_t t = 0; t < n; ++t) {
      double sum = 0.0, sq = 0.0;
      for (int64_t p = 0; p < D; ++p) {
        const double v = mbar.at(d, p, t);
        sum += v;
        sq += v * v;
      }
      const double mean = sum / D;
      switch (rule) {
        case ExtractionRule::kVarianceOnly: {
          double var = sq / D - mean * mean;
          if (var < 0.0) var = 0.0;
          map.at(d, t) = static_cast<float>(var);
          break;
        }
        case ExtractionRule::kMeanOnly:
          map.at(d, t) = static_cast<float>(mean);
          break;
        case ExtractionRule::kMadTimesMu: {
          double mad = 0.0;
          for (int64_t p = 0; p < D; ++p) {
            mad += std::fabs(mbar.at(d, p, t) - mean);
          }
          mad /= D;
          map.at(d, t) = static_cast<float>(mad) * mu[t];
          break;
        }
        case ExtractionRule::kVarianceTimesMu:
          break;  // handled above
      }
    }
  }
  return map;
}

AdaptiveDcamResult ComputeDcamAdaptive(models::GapModel* model,
                                       const Tensor& series, int class_idx,
                                       const AdaptiveDcamOptions& options) {
  DCAM_CHECK(model != nullptr);
  DCAM_CHECK_EQ(series.rank(), 2);
  DCAM_CHECK_GE(options.batch, 1);
  DCAM_CHECK_GE(options.max_k, options.batch);
  DCAM_CHECK_GT(options.tolerance, 0.0);
  DCAM_CHECK_GE(options.stable_batches, 1);

  // The stopping rule is a tick callback over the engine's k-loop: each
  // convergence batch is one tick round (and the engine's commit window),
  // every tick emits the partial map and its delta, and the callback cancels
  // once the map is stable. The permutation schedule is the fixed-k one at
  // the same seed.
  DcamEngine::Config engine_config;
  engine_config.batch = options.batch;
  DcamEngine engine(model, engine_config);
  DcamOptions dcam_options;
  dcam_options.k = options.max_k;
  dcam_options.seed = options.seed;
  dcam_options.include_identity = options.include_identity;
  DcamTickConfig ticks;
  ticks.tick_every = options.batch;
  ticks.emit_partial = {1};

  AdaptiveDcamResult out;
  int stable = 0;
  // Records one convergence check; true once it completes the stable run.
  const auto check = [&](double delta) {
    out.deltas.push_back(delta);
    stable = delta < options.tolerance ? stable + 1 : 0;
    return stable >= options.stable_batches;
  };
  out.result = std::move(engine.ComputeMany(
      {series}, {class_idx}, {dcam_options}, ticks,
      [&](const DcamTick& tick) {
        // The first tick has no previous map to compare against.
        if (tick.k_done == options.batch) return TickAction::kContinue;
        return check(tick.delta) ? TickAction::kCancel : TickAction::kContinue;
      })[0]);
  out.converged = out.result.cancelled;
  // Budget spent: the terminal map's delta is the last check, unless the
  // budget was a single batch and no tick ever fired.
  if (!out.converged && out.result.k > options.batch) {
    out.converged = check(out.result.convergence);
  }
  out.k_used = out.result.k;
  return out;
}

Tensor ContrastiveDcam(models::GapModel* model, const Tensor& series,
                       int class_a, int class_b, const DcamOptions& options) {
  DCAM_CHECK_NE(class_a, class_b);
  // One engine serves both classes so the cube/CAM scratch is built once.
  DcamEngine engine(model);
  const DcamResult a = engine.Compute(series, class_a, options);
  const DcamResult b = engine.Compute(series, class_b, options);
  Tensor diff(a.dcam.shape());
  for (int64_t i = 0; i < diff.size(); ++i) {
    diff[i] = a.dcam[i] - b.dcam[i];
  }
  return diff;
}

}  // namespace core
}  // namespace dcam
