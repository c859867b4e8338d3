#include "workload/workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <unordered_set>

#include "explain/completion_queue.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace dcam {
namespace workload {
namespace {

using SteadyClock = std::chrono::steady_clock;

double ToNs(SteadyClock::duration d) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

LatencyStats Summarize(std::vector<double> latencies_ns) {
  LatencyStats stats;
  stats.count = static_cast<int64_t>(latencies_ns.size());
  if (latencies_ns.empty()) return stats;
  std::sort(latencies_ns.begin(), latencies_ns.end());
  const auto at = [&](double pct) {
    const size_t idx = std::min(
        latencies_ns.size() - 1,
        static_cast<size_t>(pct / 100.0 *
                            static_cast<double>(latencies_ns.size())));
    return latencies_ns[idx];
  };
  stats.p50_ns = at(50.0);
  stats.p99_ns = at(99.0);
  return stats;
}

// Request seeds are a pure function of the key so repeated hits on a hot
// key are bit-identical (and therefore cacheable/dedupable) by design.
uint64_t RequestSeedForKey(int64_t key) {
  return 0x5EED00000000ULL + static_cast<uint64_t>(key);
}

}  // namespace

ZipfSampler::ZipfSampler(int64_t n, double s) {
  DCAM_CHECK_GT(n, 0);
  DCAM_CHECK_GE(s, 0.0);
  cdf_.resize(static_cast<size_t>(n));
  double total = 0.0;
  for (int64_t rank = 0; rank < n; ++rank) {
    total += std::pow(static_cast<double>(rank + 1), -s);
    cdf_[static_cast<size_t>(rank)] = total;
  }
  for (double& c : cdf_) c /= total;
}

int64_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return static_cast<int64_t>(cdf_.size()) - 1;
  return static_cast<int64_t>(it - cdf_.begin());
}

RateCurve::RateCurve(std::vector<std::pair<double, double>> points)
    : points_(std::move(points)) {
  DCAM_CHECK(!points_.empty());
  for (size_t i = 0; i < points_.size(); ++i) {
    DCAM_CHECK_GE(points_[i].first, 0.0);
    DCAM_CHECK_LE(points_[i].first, 1.0);
    DCAM_CHECK_GE(points_[i].second, 0.0);
    if (i > 0) {
      DCAM_CHECK_GE(points_[i].first, points_[i - 1].first);
    }
  }
}

RateCurve RateCurve::Constant(double rps) {
  return RateCurve({{0.0, rps}, {1.0, rps}});
}

RateCurve RateCurve::Ramp(double start_rps, double end_rps) {
  return RateCurve({{0.0, start_rps}, {1.0, end_rps}});
}

RateCurve RateCurve::Burst(double base_rps, double peak_rps) {
  return RateCurve({{0.0, base_rps},
                    {0.4, base_rps},
                    {0.5, peak_rps},
                    {0.6, base_rps},
                    {1.0, base_rps}});
}

RateCurve RateCurve::FromPoints(
    std::vector<std::pair<double, double>> points) {
  return RateCurve(std::move(points));
}

double RateCurve::RateAt(double frac) const {
  if (frac <= points_.front().first) return points_.front().second;
  if (frac >= points_.back().first) return points_.back().second;
  for (size_t i = 1; i < points_.size(); ++i) {
    if (frac <= points_[i].first) {
      const double span = points_[i].first - points_[i - 1].first;
      if (span <= 0.0) return points_[i].second;
      const double w = (frac - points_[i - 1].first) / span;
      return points_[i - 1].second +
             w * (points_[i].second - points_[i - 1].second);
    }
  }
  return points_.back().second;
}

double RateCurve::MaxRate() const {
  double max_rate = 0.0;
  for (const auto& p : points_) max_rate = std::max(max_rate, p.second);
  return max_rate;
}

double RateCurve::MeanRate() const {
  // Trapezoids between knots, plus the flat extensions to 0 and 1.
  double integral =
      points_.front().second * points_.front().first +
      points_.back().second * (1.0 - points_.back().first);
  for (size_t i = 1; i < points_.size(); ++i) {
    integral += 0.5 * (points_[i].second + points_[i - 1].second) *
                (points_[i].first - points_[i - 1].first);
  }
  return integral;
}

PoissonArrivals::PoissonArrivals(const RateCurve& curve, double duration_s,
                                 uint64_t seed)
    : curve_(curve),
      duration_(duration_s),
      max_rate_(curve.MaxRate()),
      rng_(seed) {
  DCAM_CHECK_GT(duration_s, 0.0);
  if (max_rate_ <= 0.0) t_ = duration_;  // empty process
}

double PoissonArrivals::Next() {
  while (t_ < duration_) {
    // Candidate from the homogeneous max-rate process, kept with probability
    // rate(t)/max_rate — standard thinning, exact for the piecewise-linear
    // intensity.
    const double u = rng_.Uniform();
    t_ += -std::log(1.0 - u) / max_rate_;
    if (t_ >= duration_) break;
    if (rng_.Uniform() * max_rate_ <= curve_.RateAt(t_ / duration_)) {
      return t_;
    }
  }
  return duration_;
}

explain::Priority PriorityMix::Sample(Rng* rng) const {
  const double u = rng->Uniform();
  if (u < high) return explain::Priority::kHigh;
  if (u < high + normal) return explain::Priority::kNormal;
  return explain::Priority::kBatch;
}

WorkloadDriver::WorkloadDriver(explain::ExplainService* service,
                               const data::SeriesStore* store,
                               std::string model_id)
    : service_(service), store_(store), model_id_(std::move(model_id)) {}

explain::ExplainRequest WorkloadDriver::MakeRequest(
    int64_t key, explain::Priority priority, int k) const {
  explain::ExplainRequest request;
  request.model_id = model_id_;
  request.method = "dcam";
  request.series = store_->Instance(key);
  request.class_idx = store_->label(key);
  request.options.dcam.k = k;
  request.options.dcam.seed = RequestSeedForKey(key);
  request.priority = priority;
  return request;
}

PhaseResult WorkloadDriver::RunClosedLoop(const PhaseConfig& config) {
  DCAM_CHECK_GE(config.clients, 1);
  const ZipfSampler zipf(store_->size(), config.zipf_s);
  const explain::ExplainService::Stats before = service_->stats();

  struct ClientTally {
    std::array<std::vector<double>, explain::kNumPriorities> latencies_ns;
    std::unordered_set<int64_t> keys;
    int64_t completed = 0;
    int64_t errors = 0;
  };
  std::vector<ClientTally> tallies(config.clients);
  std::atomic<int> next{0};

  // The request schedule (key + priority per slot) is pre-drawn from one
  // generator, so the multiset of requests is a pure function of the seed:
  // clients race only for slot indices, never for samples. Replay phases —
  // bench_workload's --restart warm pass re-running the same config against
  // a restarted service — depend on drawing the identical key set.
  struct Slot {
    int64_t key;
    explain::Priority priority;
  };
  std::vector<Slot> schedule(
      static_cast<size_t>(std::max(config.total_requests, 0)));
  {
    Rng rng(config.seed);
    for (Slot& slot : schedule) {
      slot.key = zipf.Sample(&rng);
      slot.priority = config.mix.Sample(&rng);
    }
  }

  Stopwatch watch;
  std::vector<std::thread> clients;
  for (int c = 0; c < config.clients; ++c) {
    clients.emplace_back([&, c] {
      ClientTally& tally = tallies[c];
      for (int idx;
           (idx = next.fetch_add(1, std::memory_order_relaxed)) <
           config.total_requests;) {
        const int64_t key = schedule[static_cast<size_t>(idx)].key;
        const explain::Priority priority =
            schedule[static_cast<size_t>(idx)].priority;
        tally.keys.insert(key);
        const auto t0 = SteadyClock::now();
        try {
          (void)service_->Explain(MakeRequest(key, priority, config.k));
          tally.completed++;
          tally.latencies_ns[static_cast<int>(priority)].push_back(
              ToNs(SteadyClock::now() - t0));
        } catch (const std::exception&) {
          tally.errors++;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double wall_s = watch.ElapsedSeconds();

  PhaseResult result;
  result.wall_s = wall_s;
  std::array<std::vector<double>, explain::kNumPriorities> merged;
  std::unordered_set<int64_t> keys;
  for (ClientTally& tally : tallies) {
    result.completed += tally.completed;
    result.errors += tally.errors;
    keys.insert(tally.keys.begin(), tally.keys.end());
    for (int p = 0; p < explain::kNumPriorities; ++p) {
      merged[p].insert(merged[p].end(), tally.latencies_ns[p].begin(),
                       tally.latencies_ns[p].end());
    }
  }
  result.distinct_keys = static_cast<int64_t>(keys.size());
  result.throughput_rps =
      wall_s > 0 ? static_cast<double>(result.completed) / wall_s : 0.0;
  for (int p = 0; p < explain::kNumPriorities; ++p) {
    result.by_priority[p] = Summarize(std::move(merged[p]));
  }
  const explain::ExplainService::Stats after = service_->stats();
  result.cache_hits = after.cache_hits - before.cache_hits;
  result.deduped = after.deduped - before.deduped;
  return result;
}

PhaseResult WorkloadDriver::RunOpenLoop(const PhaseConfig& config) {
  // The whole schedule — arrival times, keys, priorities — is drawn up
  // front, so it is deterministic per seed and submission costs only a
  // store gather per request.
  PoissonArrivals arrivals(config.curve, config.duration_s, config.seed);
  Rng rng(config.seed ^ 0xA11C0DEULL);
  const ZipfSampler zipf(store_->size(), config.zipf_s);
  std::vector<double> times_s;
  std::vector<int64_t> keys;
  std::vector<explain::Priority> priorities;
  while (static_cast<int>(times_s.size()) < config.total_requests) {
    const double t = arrivals.Next();
    if (t >= config.duration_s) break;
    times_s.push_back(t);
    keys.push_back(zipf.Sample(&rng));
    priorities.push_back(config.mix.Sample(&rng));
  }
  const int n = static_cast<int>(times_s.size());
  PhaseResult result;
  if (n == 0) return result;
  const double schedule_span =
      static_cast<int>(times_s.size()) == config.total_requests
          ? times_s.back()
          : config.duration_s;
  result.offered_rps =
      schedule_span > 0 ? static_cast<double>(n) / schedule_span : 0.0;
  result.distinct_keys = static_cast<int64_t>(
      std::unordered_set<int64_t>(keys.begin(), keys.end()).size());

  const explain::ExplainService::Stats before = service_->stats();
  std::vector<SteadyClock::time_point> submitted(n);
  std::array<std::vector<double>, explain::kNumPriorities> latencies;
  int64_t completed = 0, errors = 0;

  explain::CompletionQueue cq;
  // submitted[i]/priorities[i] are written before SubmitAsync publishes tag
  // i; the drain observes the tag only through the queue's lock, so the
  // reads below are ordered.
  std::thread drain([&] {
    explain::CompletionQueue::Completion done;
    for (int received = 0; received < n; ++received) {
      if (!cq.Next(&done)) break;
      const int idx = static_cast<int>(reinterpret_cast<intptr_t>(done.tag));
      if (done.ok()) {
        completed++;
        latencies[static_cast<int>(priorities[idx])].push_back(
            ToNs(SteadyClock::now() - submitted[idx]));
      } else {
        errors++;
      }
    }
  });

  const auto start = SteadyClock::now();
  for (int i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(times_s[i])));
    explain::ExplainRequest request =
        MakeRequest(keys[i], priorities[i], config.k);
    submitted[i] = SteadyClock::now();
    service_->SubmitAsync(std::move(request), &cq,
                          reinterpret_cast<void*>(static_cast<intptr_t>(i)));
  }
  drain.join();
  cq.Shutdown();
  result.wall_s = ToNs(SteadyClock::now() - start) * 1e-9;

  result.completed = completed;
  result.errors = errors;
  result.throughput_rps =
      result.wall_s > 0 ? static_cast<double>(completed) / result.wall_s : 0.0;
  for (int p = 0; p < explain::kNumPriorities; ++p) {
    result.by_priority[p] = Summarize(std::move(latencies[p]));
  }
  const explain::ExplainService::Stats after = service_->stats();
  result.cache_hits = after.cache_hits - before.cache_hits;
  result.deduped = after.deduped - before.deduped;
  return result;
}

}  // namespace workload
}  // namespace dcam
