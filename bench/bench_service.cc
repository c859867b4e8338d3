// Multi-client ExplainService throughput: replica sharding, cross-request
// batching, result caching, and the async client surface against the
// one-request-at-a-time baseline.
//
// Workload: C client threads each request dCAM maps for distinct series with
// small per-request k. A single request underfills the engine's lanes
// (k < commit window), so serving requests one at a time leaves workers idle;
// the service coalesces the concurrent requests into shared
// DcamEngine::ComputeMany passes, and with --replicas N it shards the model
// across N scheduler threads, each owning a private weight copy. The engine
// runs its permutations side by side on per-worker model replicas, so
// one replica already keeps every worker busy: on a 4-vCPU host the 2-vs-1
// replica ratio read 0.96-1.74x over 12 runs (median 1.14). The ratio is
// therefore reported, not gated; the engine's own parallelism is gated by
// bench_micro --min-engine-speedup.
// On a single core every engine slot runs inline on its caller and every
// phase should be near parity.
// The cache phase resubmits the same requests and must be serviced without
// recompute.
//
// --async adds the async-client phases:
//   * blocking baseline: each client thread keeps ONE request in flight
//     (Submit + immediate wait) — the thread-per-request serving model;
//   * completion-queue clients: each client thread submits its whole share
//     up front and drains a CompletionQueue — per_client requests in flight
//     per thread, so the schedulers always see a full coalescing window;
//   * mixed-priority overload: every request submitted at once through one
//     queue with priorities round-robined high/normal/batch, measuring the
//     per-request submit->completion latency per class. Priority-ordered
//     drains should hold the high-priority p99 far under the batch p99.
//
// --streaming adds the anytime phase: each request goes through
// SubmitStreaming with a tick cadence of k/4 permutations, measuring
// time-to-first-tick (how quickly a client holds a usable partial map)
// against the request's full-completion latency.
//
// Pass `--json <path>` to emit BENCH_dcam.json-style records:
//   BM_ServiceDcamDirect      sequential direct Explainer calls (baseline)
//   BM_ServiceDcamCoalesced   concurrent clients through a 1-replica service
//   BM_ServiceDcamSharded     the same clients through an N-replica service
//   BM_ServiceCacheHit        the same requests again, all cache hits
//   BM_ServiceAsyncBlocking   (--async) 1-in-flight-per-client baseline
//   BM_ServiceAsyncCq         (--async) completion-queue clients
//   BM_ServicePriorityHighP99 / BM_ServicePriorityBatchP99
//                             (--async) p99 latency per priority class, ns
//   BM_ServiceFirstTick       (--streaming) mean submit -> first-kTick
//                             latency of a streamed request, ns
//   BM_ServiceWarmRestart     the workload re-served by a brand-new service
//                             process over the persistent cache directory a
//                             previous service populated — every request must
//                             come back from the on-disk tier (zero engine
//                             passes), bit-identical to the direct baseline
// ns_per_iter is wall time per request (or the p99 latency for the priority
// rows); shape is D/n/k/clientsxper_client, with /rN appended on rows served
// by an N-replica service.
//
// Gates (exit 2 on violation) — evaluated only AFTER the JSON report is
// flushed, so the CI artifact upload always sees the measurements that
// produced a failure:
//   --min-async-speedup X       blocking/async-cq >= X
//   --max-high-p99-ratio Y      high-priority p99 <= Y * batch-priority p99
//   --max-first-tick-ratio Y    first-tick latency <= Y * full completion
// The warm-restart phase carries a built-in gate: when it runs (POSIX hosts)
// the restarted service must log tier-2 hits and zero engine passes, or the
// bench exits 2. --cache-dir overrides the default mkdtemp'd tier directory.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <unistd.h>
#endif

#include "util/clock.h"

#include "explain/completion_queue.h"
#include "explain/explainer.h"
#include "explain/service.h"
#include "models/cnn.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace dcam;

namespace {

struct Options {
  int clients = 4;
  int per_client = 8;
  int k = 6;
  int dims = 8;
  int len = 64;
  int replicas = 2;
  bool async = false;
  bool streaming = false;
  double min_async_speedup = 0.0;     // 0 = report only, no gate
  double max_high_p99_ratio = 0.0;    // 0 = report only, no gate
  double max_first_tick_ratio = 0.0;  // 0 = report only, no gate
  std::string json_path;
  std::string cache_dir;  // warm-restart tier directory; "" = fresh temp dir
};

struct Measurement {
  std::string op;
  std::string shape;
  double ns_per_iter = 0.0;
  long long iterations = 0;
};

int64_t ParseIntFlag(const char* value, const char* flag) {
  char* end = nullptr;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || v <= 0) {
    std::fprintf(stderr, "bench_service: bad value for %s: %s\n", flag, value);
    std::exit(1);
  }
  return v;
}

double ParseDoubleFlag(const char* value, const char* flag) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || v < 0) {
    std::fprintf(stderr, "bench_service: bad value for %s: %s\n", flag, value);
    std::exit(1);
  }
  return v;
}

std::vector<explain::ExplainRequest> BuildWorkload(const Options& opt,
                                                   Rng* rng) {
  std::vector<explain::ExplainRequest> requests;
  for (int c = 0; c < opt.clients; ++c) {
    for (int r = 0; r < opt.per_client; ++r) {
      explain::ExplainRequest req;
      req.model_id = "dcnn";
      req.method = "dcam";
      req.series = Tensor({opt.dims, opt.len});
      req.series.FillNormal(rng, 0.0f, 1.0f);
      req.class_idx = (c + r) % 2;
      req.options.dcam.k = opt.k;
      req.options.dcam.seed = 10000 + 100 * c + r;
      requests.push_back(std::move(req));
    }
  }
  return requests;
}

// C client threads push the whole workload through `service`; maps land in
// request order. Returns wall seconds.
double RunClients(explain::ExplainService* service,
                  const std::vector<explain::ExplainRequest>& requests,
                  int clients, int per_client, std::vector<Tensor>* maps) {
  Stopwatch watch;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<explain::Ticket> futures;
      const int base = c * per_client;
      for (int r = 0; r < per_client; ++r) {
        futures.push_back(service->Submit(requests[base + r]));
      }
      for (int r = 0; r < per_client; ++r) {
        (*maps)[base + r] = futures[r].get().map;
      }
    });
  }
  for (auto& t : threads) t.join();
  return watch.ElapsedSeconds();
}

// Blocking baseline: each client thread holds ONE request in flight at a
// time — the serving model the async API replaces. Returns wall seconds.
double RunBlockingClients(explain::ExplainService* service,
                          const std::vector<explain::ExplainRequest>& requests,
                          int clients, int per_client,
                          std::vector<Tensor>* maps) {
  Stopwatch watch;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const int base = c * per_client;
      for (int r = 0; r < per_client; ++r) {
        (*maps)[base + r] = service->Explain(requests[base + r]).map;
      }
    });
  }
  for (auto& t : threads) t.join();
  return watch.ElapsedSeconds();
}

// Completion-queue clients: each client thread submits its whole share up
// front, then drains its queue — per_client requests in flight per thread.
double RunCqClients(explain::ExplainService* service,
                    const std::vector<explain::ExplainRequest>& requests,
                    int clients, int per_client, std::vector<Tensor>* maps) {
  Stopwatch watch;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      explain::CompletionQueue cq;
      const int base = c * per_client;
      for (int r = 0; r < per_client; ++r) {
        service->SubmitAsync(requests[base + r], &cq,
                             reinterpret_cast<void*>(static_cast<intptr_t>(r)));
      }
      explain::CompletionQueue::Completion done;
      for (int r = 0; r < per_client; ++r) {
        if (!cq.Next(&done) || !done.ok()) continue;
        const int idx = static_cast<int>(reinterpret_cast<intptr_t>(done.tag));
        (*maps)[base + idx] = std::move(done.result.map);
      }
      cq.Shutdown();
    });
  }
  for (auto& t : threads) t.join();
  return watch.ElapsedSeconds();
}

double PercentileNs(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = std::min(
      values.size() - 1,
      static_cast<size_t>(pct / 100.0 * static_cast<double>(values.size())));
  return values[idx];
}

long long CountMismatches(const std::vector<Tensor>& got,
                          const std::vector<Tensor>& want) {
  long long mismatches = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].shape() != want[i].shape()) {
      ++mismatches;
      continue;
    }
    for (int64_t j = 0; j < want[i].size(); ++j) {
      if (got[i][j] != want[i][j]) {
        ++mismatches;
        break;
      }
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_service: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      opt.json_path = next("--json");
    } else if (arg == "--cache-dir") {
      opt.cache_dir = next("--cache-dir");
    } else if (arg == "--clients") {
      opt.clients = static_cast<int>(ParseIntFlag(next("--clients"), "--clients"));
    } else if (arg == "--requests") {
      opt.per_client =
          static_cast<int>(ParseIntFlag(next("--requests"), "--requests"));
    } else if (arg == "--k") {
      opt.k = static_cast<int>(ParseIntFlag(next("--k"), "--k"));
    } else if (arg == "--dims") {
      opt.dims = static_cast<int>(ParseIntFlag(next("--dims"), "--dims"));
    } else if (arg == "--len") {
      opt.len = static_cast<int>(ParseIntFlag(next("--len"), "--len"));
    } else if (arg == "--replicas") {
      opt.replicas =
          static_cast<int>(ParseIntFlag(next("--replicas"), "--replicas"));
    } else if (arg == "--async") {
      opt.async = true;
    } else if (arg == "--streaming") {
      opt.streaming = true;
    } else if (arg == "--max-first-tick-ratio") {
      opt.max_first_tick_ratio = ParseDoubleFlag(next("--max-first-tick-ratio"),
                                                 "--max-first-tick-ratio");
    } else if (arg == "--min-async-speedup") {
      opt.min_async_speedup =
          ParseDoubleFlag(next("--min-async-speedup"), "--min-async-speedup");
    } else if (arg == "--max-high-p99-ratio") {
      opt.max_high_p99_ratio =
          ParseDoubleFlag(next("--max-high-p99-ratio"), "--max-high-p99-ratio");
    } else {
      std::fprintf(stderr,
                   "usage: bench_service [--clients N] [--requests M] [--k K] "
                   "[--dims D] [--len n] [--replicas R] [--async] "
                   "[--streaming] "
                   "[--min-async-speedup X] [--max-high-p99-ratio Y] "
                   "[--max-first-tick-ratio Y] [--cache-dir dir] "
                   "[--json path]\n"
                   "--min-async-speedup gates async-vs-blocking throughput, "
                   "only meaningful on a multi-core host. "
                   "--max-high-p99-ratio gates high-vs-batch priority p99 "
                   "latency under the --async overload phase; "
                   "--max-first-tick-ratio gates first-tick-vs-completion "
                   "latency under the --streaming phase\n");
      return 1;
    }
  }
  const int total = opt.clients * opt.per_client;
  std::printf("=== ExplainService throughput: %d clients x %d dCAM requests "
              "(D=%d, n=%d, k=%d, pool=%d threads, %d replicas%s) ===\n",
              opt.clients, opt.per_client, opt.dims, opt.len, opt.k,
              GlobalPool().num_threads(), opt.replicas,
              opt.async ? ", async phases on" : "");

  Rng rng(7);
  models::ConvNetConfig cfg;
  cfg.filters = {8, 8};
  models::ConvNet model(models::InputMode::kCube, opt.dims, 2, cfg, &rng);
  const std::vector<explain::ExplainRequest> requests =
      BuildWorkload(opt, &rng);

  // --- baseline: one request at a time through a persistent Explainer ------
  std::vector<Tensor> direct_maps;
  direct_maps.reserve(requests.size());
  const auto explainer = explain::MakeExplainer("dcam");
  Stopwatch direct_watch;
  for (const explain::ExplainRequest& req : requests) {
    direct_maps.push_back(
        explainer->Explain(&model, req.series, req.class_idx, req.options)
            .map);
  }
  const double direct_s = direct_watch.ElapsedSeconds();

  // --- concurrent clients through a single-replica service ----------------
  explain::ExplainService service;
  service.RegisterModel(explain::ModelSpec("dcnn", &model));
  std::vector<Tensor> service_maps(requests.size());
  const double service_s = RunClients(&service, requests, opt.clients,
                                      opt.per_client, &service_maps);

  // --- the same clients through an N-replica sharded service --------------
  explain::ExplainService::Config sharded_cfg;
  sharded_cfg.replicas = opt.replicas;
  explain::ExplainService sharded(sharded_cfg);
  sharded.RegisterModel(explain::ModelSpec("dcnn", &model));
  std::vector<Tensor> sharded_maps(requests.size());
  const double sharded_s = RunClients(&sharded, requests, opt.clients,
                                      opt.per_client, &sharded_maps);

  // --- cache phase: the identical workload against the warm service -------
  Stopwatch cache_watch;
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < opt.clients; ++c) {
      clients.emplace_back([&, c] {
        const int base = c * opt.per_client;
        for (int r = 0; r < opt.per_client; ++r) {
          (void)service.Explain(requests[base + r]);
        }
      });
    }
    for (auto& c : clients) c.join();
  }
  const double cache_s = cache_watch.ElapsedSeconds();
  const explain::ExplainService::Stats stats = service.stats();
  const explain::ExplainService::Stats sharded_stats = sharded.stats();

  // Determinism check: batching/caching/replica routing must be invisible.
  long long mismatches = CountMismatches(service_maps, direct_maps) +
                         CountMismatches(sharded_maps, direct_maps);

  const double replica_speedup = sharded_s > 0 ? service_s / sharded_s : 0.0;
  std::printf("direct (1-at-a-time): %7.1f ms total, %8.0f us/request\n",
              direct_s * 1e3, direct_s * 1e6 / total);
  std::printf("service (coalesced) : %7.1f ms total, %8.0f us/request "
              "(%.2fx vs direct)\n",
              service_s * 1e3, service_s * 1e6 / total,
              service_s > 0 ? direct_s / service_s : 0.0);
  std::printf("service (%d shards) : %7.1f ms total, %8.0f us/request "
              "(%.2fx vs 1 replica)\n",
              opt.replicas, sharded_s * 1e3, sharded_s * 1e6 / total,
              replica_speedup);
  std::printf("service (cache hit) : %7.1f ms total, %8.0f us/request\n",
              cache_s * 1e3, cache_s * 1e6 / total);

  // --- warm-restart phase: the persistent tier across a process restart ---
  // A service with a persistent cache directory computes the workload once
  // (writing every terminal result through to the on-disk tier) and is torn
  // down; a brand-new service over the same directory then re-serves the
  // identical requests. The restart must be invisible: every map comes back
  // from the tier-2 segments — zero engine passes — and bit-identical.
  double warm_s = 0.0;
  unsigned long long warm_tier2_hits = 0;
  unsigned long long warm_engine_passes = 0;
  bool warm_ran = false;
#if defined(__unix__) || defined(__APPLE__)
  {
    std::string cache_dir = opt.cache_dir;
    if (cache_dir.empty()) {
      char tmpl[] = "/tmp/bench_dcam_warm_XXXXXX";
      if (::mkdtemp(tmpl) == nullptr) {
        std::fprintf(stderr,
                     "bench_service: mkdtemp failed, skipping warm phase\n");
      } else {
        cache_dir = tmpl;
      }
    }
    if (!cache_dir.empty()) {
      explain::ExplainService::Config wcfg;
      wcfg.replicas = opt.replicas;
      wcfg.cache.persistent_dir = cache_dir;
      {
        explain::ExplainService cold(wcfg);
        cold.RegisterModel(explain::ModelSpec("dcnn", &model));
        std::vector<Tensor> cold_maps(requests.size());
        (void)RunClients(&cold, requests, opt.clients, opt.per_client,
                         &cold_maps);
        mismatches += CountMismatches(cold_maps, direct_maps);
      }  // teardown flushes the buffered tier-2 records to segment files
      explain::ExplainService warm(wcfg);
      warm.RegisterModel(explain::ModelSpec("dcnn", &model));
      std::vector<Tensor> warm_maps(requests.size());
      warm_s = RunClients(&warm, requests, opt.clients, opt.per_client,
                          &warm_maps);
      mismatches += CountMismatches(warm_maps, direct_maps);
      const explain::ExplainService::Stats warm_stats = warm.stats();
      warm_tier2_hits =
          static_cast<unsigned long long>(warm_stats.cache_tier2_hits);
      warm_engine_passes =
          static_cast<unsigned long long>(warm_stats.coalesced_batches);
      warm_ran = true;
      std::printf("service (warm boot) : %7.1f ms total, %8.0f us/request "
                  "(%llu tier-2 hits, %llu engine passes after restart)\n",
                  warm_s * 1e3, warm_s * 1e6 / total, warm_tier2_hits,
                  warm_engine_passes);
      if (opt.cache_dir.empty()) {
        if (DIR* d = ::opendir(cache_dir.c_str())) {
          while (dirent* e = ::readdir(d)) {
            if (e->d_name[0] == '.') continue;
            (void)::unlink((cache_dir + "/" + e->d_name).c_str());
          }
          ::closedir(d);
        }
        (void)::rmdir(cache_dir.c_str());
      }
    }
  }
#endif

  // --- async phases (--async): blocking vs completion-queue clients, and
  // --- mixed-priority overload latency -------------------------------------
  double blocking_s = 0.0;
  double async_s = 0.0;
  double async_speedup = 0.0;
  double high_p99_ns = 0.0;
  double batch_p99_ns = 0.0;
  int per_class_count = 0;
  if (opt.async) {
    {
      explain::ExplainService::Config acfg;
      acfg.replicas = opt.replicas;
      explain::ExplainService blocking_service(acfg);
      blocking_service.RegisterModel(explain::ModelSpec("dcnn", &model));
      std::vector<Tensor> blocking_maps(requests.size());
      blocking_s = RunBlockingClients(&blocking_service, requests, opt.clients,
                                      opt.per_client, &blocking_maps);
      mismatches += CountMismatches(blocking_maps, direct_maps);
    }
    {
      explain::ExplainService::Config acfg;
      acfg.replicas = opt.replicas;
      explain::ExplainService async_service(acfg);
      async_service.RegisterModel(explain::ModelSpec("dcnn", &model));
      std::vector<Tensor> async_maps(requests.size());
      async_s = RunCqClients(&async_service, requests, opt.clients,
                             opt.per_client, &async_maps);
      mismatches += CountMismatches(async_maps, direct_maps);
    }
    async_speedup = async_s > 0 ? blocking_s / async_s : 0.0;
    std::printf("async (blocking)    : %7.1f ms total, %8.0f us/request "
                "(1 in flight per client)\n",
                blocking_s * 1e3, blocking_s * 1e6 / total);
    std::printf("async (compl.queue) : %7.1f ms total, %8.0f us/request "
                "(%.2fx vs blocking)\n",
                async_s * 1e3, async_s * 1e6 / total, async_speedup);

    // Mixed-priority overload: two copies of the workload (distinct seeds,
    // so nothing dedupes or caches) land at once on one service, priorities
    // round-robined high/normal/batch. max_coalesce is kept small so the
    // bounded scheduler rounds — and therefore completions — track the
    // priority-ordered drain instead of fusing into one giant pass; the
    // doubled request count amortizes the mixed prefix drained before the
    // queue got deep enough for priorities to matter.
    {
      explain::ExplainService::Config pcfg;
      pcfg.replicas = opt.replicas;
      pcfg.max_coalesce = 2;
      explain::ExplainService pservice(pcfg);
      pservice.RegisterModel(explain::ModelSpec("dcnn", &model));
      explain::CompletionQueue cq;
      const auto clock = RealClock::Get();
      const size_t n_priority = requests.size() * 2;
      std::vector<MonotonicClock::time_point> submitted(n_priority);
      std::vector<double> latency_ns(n_priority, 0.0);
      for (size_t i = 0; i < n_priority; ++i) {
        explain::ExplainRequest req = requests[i % requests.size()];
        req.options.dcam.seed = 20000 + i;
        req.priority = static_cast<explain::Priority>(
            i % static_cast<size_t>(explain::kNumPriorities));
        submitted[i] = clock->Now();
        pservice.SubmitAsync(std::move(req), &cq,
                             reinterpret_cast<void*>(static_cast<intptr_t>(i)));
      }
      explain::CompletionQueue::Completion done;
      for (size_t n = 0; n < n_priority; ++n) {
        if (!cq.Next(&done) || !done.ok()) continue;
        const size_t idx =
            static_cast<size_t>(reinterpret_cast<intptr_t>(done.tag));
        latency_ns[idx] = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                clock->Now() - submitted[idx])
                .count());
      }
      cq.Shutdown();
      std::vector<double> high, batch;
      for (size_t i = 0; i < latency_ns.size(); ++i) {
        const auto priority = static_cast<explain::Priority>(
            i % static_cast<size_t>(explain::kNumPriorities));
        if (priority == explain::Priority::kHigh) high.push_back(latency_ns[i]);
        if (priority == explain::Priority::kBatch) {
          batch.push_back(latency_ns[i]);
        }
      }
      per_class_count = static_cast<int>(high.size());
      high_p99_ns = PercentileNs(high, 99.0);
      batch_p99_ns = PercentileNs(batch, 99.0);
      std::printf("priority overload   : high p99 %7.0f us, batch p99 %7.0f "
                  "us (%.2fx, %d per class)\n",
                  high_p99_ns / 1e3, batch_p99_ns / 1e3,
                  batch_p99_ns > 0 ? high_p99_ns / batch_p99_ns : 0.0,
                  per_class_count);
    }
  }

  // --- streaming phase (--streaming): time-to-first-tick vs completion -----
  // Sequential streamed requests against a cold (cache-off) sharded service:
  // a client that streams should hold a usable partial map well before the
  // full-k result lands. Measured per request because the anytime property
  // is a per-client latency contract, not a throughput one.
  double first_tick_ns = 0.0;
  double stream_complete_ns = 0.0;
  long long stream_ticks = 0;
  int n_stream = 0;
  if (opt.streaming) {
    explain::ExplainService::Config scfg;
    scfg.replicas = opt.replicas;
    scfg.cache.capacity_entries = 0;  // every request must actually compute
    scfg.stream_tick_k = std::max(1, opt.k / 4);
    explain::ExplainService stream_service(scfg);
    stream_service.RegisterModel(explain::ModelSpec("dcnn", &model));
    const auto clock = RealClock::Get();
    n_stream = std::min(total, 16);
    double first_sum_ns = 0.0;
    double complete_sum_ns = 0.0;
    for (int i = 0; i < n_stream; ++i) {
      explain::ExplainRequest req = requests[i % requests.size()];
      req.options.dcam.seed = 30000 + i;
      explain::CompletionQueue cq;
      const auto submitted = clock->Now();
      (void)stream_service.SubmitStreaming(std::move(req), &cq, nullptr);
      explain::CompletionQueue::Completion done;
      bool saw_first = false;
      while (cq.Next(&done)) {
        const double elapsed_ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(clock->Now() -
                                                                 submitted)
                .count());
        if (done.tick()) {
          ++stream_ticks;
          if (!saw_first) {
            saw_first = true;
            first_sum_ns += elapsed_ns;
          }
          continue;
        }
        complete_sum_ns += elapsed_ns;
        if (!saw_first) first_sum_ns += elapsed_ns;  // 0-tick request: no win
        break;
      }
      cq.Shutdown();
    }
    first_tick_ns = n_stream > 0 ? first_sum_ns / n_stream : 0.0;
    stream_complete_ns = n_stream > 0 ? complete_sum_ns / n_stream : 0.0;
    std::printf("streaming (anytime) : first tick %7.0f us, completion "
                "%7.0f us (%.2fx, %lld ticks over %d requests, tick_k=%d)\n",
                first_tick_ns / 1e3, stream_complete_ns / 1e3,
                stream_complete_ns > 0 ? first_tick_ns / stream_complete_ns
                                       : 0.0,
                stream_ticks, n_stream, scfg.stream_tick_k);
  }

  std::printf("stats: %llu+%llu engine passes (largest %llu requests), "
              "%llu cache hits, %llu deduped; per-request maps %s\n",
              static_cast<unsigned long long>(stats.coalesced_batches),
              static_cast<unsigned long long>(sharded_stats.coalesced_batches),
              static_cast<unsigned long long>(stats.max_coalesce),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.deduped),
              mismatches == 0 ? "bit-identical to direct calls"
                              : "MISMATCHED (bug!)");

  // The JSON report is flushed BEFORE any gate can exit: a CI lane that
  // fails a gate still uploads the measurements that failed it.
  int exit_code = 0;
  if (!opt.json_path.empty()) {
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_service: cannot open %s for writing\n",
                   opt.json_path.c_str());
      exit_code = 1;  // still fall through to the gates below
    } else {
      char shape[64];
      std::snprintf(shape, sizeof shape, "%d/%d/%d/%dx%d", opt.dims, opt.len,
                    opt.k, opt.clients, opt.per_client);
      char sharded_shape[80];
      std::snprintf(sharded_shape, sizeof sharded_shape, "%s/r%d", shape,
                    opt.replicas);
      std::vector<Measurement> rows = {
          {"BM_ServiceDcamDirect", shape, direct_s * 1e9 / total, total},
          {"BM_ServiceDcamCoalesced", shape, service_s * 1e9 / total, total},
          {"BM_ServiceDcamSharded", sharded_shape, sharded_s * 1e9 / total,
           total},
          {"BM_ServiceCacheHit", shape, cache_s * 1e9 / total, total},
      };
      if (opt.async) {
        rows.push_back({"BM_ServiceAsyncBlocking", sharded_shape,
                        blocking_s * 1e9 / total, total});
        rows.push_back({"BM_ServiceAsyncCq", sharded_shape,
                        async_s * 1e9 / total, total});
        rows.push_back({"BM_ServicePriorityHighP99", sharded_shape,
                        high_p99_ns, per_class_count});
        rows.push_back({"BM_ServicePriorityBatchP99", sharded_shape,
                        batch_p99_ns, per_class_count});
      }
      if (opt.streaming) {
        rows.push_back({"BM_ServiceFirstTick", sharded_shape, first_tick_ns,
                        n_stream});
      }
      if (warm_ran) {
        rows.push_back({"BM_ServiceWarmRestart", sharded_shape,
                        warm_s * 1e9 / total, total});
      }
      std::fprintf(f, "{\n  \"benchmarks\": [\n");
      for (size_t i = 0; i < rows.size(); ++i) {
        std::fprintf(f,
                     "    {\"op\": \"%s\", \"shape\": \"%s\", "
                     "\"ns_per_iter\": %.1f, \"threads\": %d, "
                     "\"iterations\": %lld}%s\n",
                     rows[i].op.c_str(), rows[i].shape.c_str(),
                     rows[i].ns_per_iter, GlobalPool().num_threads(),
                     rows[i].iterations, i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::fprintf(stderr, "bench_service: wrote %zu results to %s\n",
                   rows.size(), opt.json_path.c_str());
    }
  }

  // --- gates (JSON is already on disk) -------------------------------------
  if (mismatches != 0) exit_code = std::max(exit_code, 1);
  if (warm_ran && (warm_tier2_hits == 0 || warm_engine_passes != 0)) {
    std::fprintf(stderr,
                 "bench_service: FAIL warm restart served %llu tier-2 hits "
                 "with %llu engine passes — the restarted service must answer "
                 "the whole workload from the persistent tier\n",
                 warm_tier2_hits, warm_engine_passes);
    exit_code = 2;
  }
  if (opt.async && opt.min_async_speedup > 0 &&
      async_speedup < opt.min_async_speedup) {
    std::fprintf(stderr,
                 "bench_service: FAIL async throughput %.2fx < required "
                 "%.2fx over blocking (%d clients, %d pool threads)\n",
                 async_speedup, opt.min_async_speedup, opt.clients,
                 GlobalPool().num_threads());
    exit_code = 2;
  }
  if (opt.async && opt.max_high_p99_ratio > 0 && batch_p99_ns > 0 &&
      high_p99_ns > opt.max_high_p99_ratio * batch_p99_ns) {
    std::fprintf(stderr,
                 "bench_service: FAIL high-priority p99 %.0f us > %.2fx "
                 "batch-priority p99 %.0f us\n",
                 high_p99_ns / 1e3, opt.max_high_p99_ratio,
                 batch_p99_ns / 1e3);
    exit_code = 2;
  }
  if (opt.streaming && opt.max_first_tick_ratio > 0) {
    if (stream_ticks == 0) {
      std::fprintf(stderr,
                   "bench_service: FAIL streaming phase delivered zero ticks "
                   "(%d requests, k=%d) — anytime surface inert\n",
                   n_stream, opt.k);
      exit_code = 2;
    } else if (first_tick_ns > opt.max_first_tick_ratio * stream_complete_ns) {
      std::fprintf(stderr,
                   "bench_service: FAIL first-tick latency %.0f us > %.2fx "
                   "full-completion latency %.0f us\n",
                   first_tick_ns / 1e3, opt.max_first_tick_ratio,
                   stream_complete_ns / 1e3);
      exit_code = 2;
    }
  }
  return exit_code;
}
