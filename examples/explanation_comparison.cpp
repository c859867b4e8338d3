// Side-by-side comparison of every explanation method in the registry on the
// same trained model and instance:
//
//   dCAM (the paper's contribution) against raw CAM, grad-CAM, occlusion,
//   and the gradient-saliency family — each addressed by its explain::
//   registry name and scored by Dr-acc (PR-AUC against the known injected
//   ground truth) exactly as in Table 3.
//
// Also demonstrates the adaptive-k variant (how many permutations dCAM
// actually needs before the map stops changing) and the concurrent
// ExplainService: the blocking future path (observe the result cache), the
// async callback path, and a completion queue driving several prioritized,
// deadline-tagged requests from one thread.

#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <string>

#include "data/synthetic.h"
#include "eval/metrics.h"
#include "eval/trainer.h"
#include "examples/example_utils.h"
#include "explain/explainer.h"
#include "explain/service.h"
#include "models/cnn.h"
#include "util/rng.h"

using namespace dcam;

int main() {
  dcam_examples::Banner("explanation method comparison");

  data::SyntheticSpec spec;
  spec.type = 1;
  spec.dims = 6;
  spec.length = 128;
  spec.pattern_len = 32;
  spec.instances_per_class = 24;
  spec.seed = 7;
  data::Dataset train = data::BuildSynthetic(spec);
  spec.seed = 8;
  spec.instances_per_class = 8;
  data::Dataset test = data::BuildSynthetic(spec);

  Rng rng(1);
  models::ConvNetConfig cfg;
  cfg.filters = {8, 8, 8};
  models::ConvNet model(models::InputMode::kCube, spec.dims, 2, cfg, &rng);
  eval::TrainConfig tc;
  tc.max_epochs = 80;
  tc.lr = 3e-3f;
  tc.patience = 25;
  const eval::TrainResult tr = eval::Train(&model, train, tc);
  std::printf("dCNN: val C-acc %.2f after %d epochs\n", tr.val_acc,
              tr.epochs_run);

  // Pick a class-1 instance with its ground-truth mask.
  int64_t target = 0;
  while (target < test.size() && test.y[target] != 1) ++target;
  const Tensor instance = test.Instance(target);
  const Tensor mask = test.InstanceMask(target);
  const double random = eval::RandomBaseline(mask);

  // One options bundle serves the whole registry; every method reads only
  // its own struct.
  explain::ExplainOptions opts;
  opts.dcam.k = 100;
  opts.occlusion.window = spec.pattern_len / 2;
  opts.occlusion.stride = spec.pattern_len / 4;
  opts.smoothgrad.samples = 15;
  opts.contrast_class = 0;

  std::printf("\n%-22s %8s\n", "method", "Dr-acc");
  std::printf("%-22s %8.3f  (chance level)\n", "random", random);
  std::map<std::string, Tensor> maps;  // for the heat maps below
  for (const std::string& name : explain::AllExplainerNames()) {
    const auto explainer = explain::MakeExplainer(name);
    if (!explainer->Supports(model, instance)) continue;
    const explain::ExplanationResult res =
        explainer->Explain(&model, instance, 1, opts);
    maps[name] = res.map;
    if (res.k > 0 && name != "dcam_contrastive") {
      std::printf("%-22s %8.3f  (n_g/k = %.2f, k = %d)\n", name.c_str(),
                  eval::DrAcc(res.map, mask), res.CorrectRatio(), res.k);
    } else {
      std::printf("%-22s %8.3f\n", name.c_str(), eval::DrAcc(res.map, mask));
    }
  }

  dcam_examples::Banner("concurrent ExplainService (batching + cache)");
  {
    explain::ExplainService service;
    service.RegisterModel(explain::ModelSpec("dcnn", &model));
    explain::ExplainRequest req;
    req.model_id = "dcnn";
    req.method = "dcam";
    req.series = instance;
    req.class_idx = 1;
    req.options = opts;
    // Submit the same request twice plus a second class concurrently: the
    // scheduler coalesces the distinct dCAM requests into one engine pass
    // and answers the duplicate from the result cache / in-flight dedupe.
    auto first = service.Submit(req);
    auto duplicate = service.Submit(req);
    explain::ExplainRequest other = req;
    other.class_idx = 0;
    auto second = service.Submit(other);
    const double dr = eval::DrAcc(first.get().map, mask);
    (void)duplicate.get();
    (void)second.get();
    const explain::ExplainService::Stats stats = service.stats();
    std::printf("3 requests -> %llu engine pass(es), %llu served without "
                "recompute (cache+dedupe); Dr-acc %.3f matches the direct "
                "call\n",
                static_cast<unsigned long long>(stats.coalesced_batches),
                static_cast<unsigned long long>(stats.cache_hits +
                                                stats.deduped),
                dr);
  }

  dcam_examples::Banner("async clients (callback + completion queue)");
  {
    explain::ExplainService service;
    service.RegisterModel(explain::ModelSpec("dcnn", &model));
    explain::ExplainRequest req;
    req.model_id = "dcnn";
    req.method = "dcam";
    req.series = instance;
    req.class_idx = 1;
    req.options = opts;

    // Callback path: no thread blocks on a future; the result (or the
    // error a blocking Submit would have thrown) arrives on a scheduler
    // thread. A promise bridges back to main here only because the example
    // exits right away.
    std::promise<double> callback_dr;
    service.SubmitAsync(req, [&](explain::AsyncResult r) {
      callback_dr.set_value(r.ok() ? eval::DrAcc(r.result.map, mask) : -1.0);
    });
    std::printf("callback delivered Dr-acc %.3f\n",
                callback_dr.get_future().get());

    // Completion-queue path: one thread drives several in-flight requests,
    // each tagged with its priority class and carrying a deadline. High
    // priority is drained first under load; a request still queued past
    // its deadline would come back as a DeadlineExceededError completion.
    const char* kTagNames[] = {"high", "normal", "batch"};
    explain::CompletionQueue cq;
    for (int i = 0; i < 3; ++i) {
      explain::ExplainRequest prioritized = req;
      prioritized.options.dcam.seed = 100 + i;  // distinct work, no dedupe
      prioritized.priority = static_cast<explain::Priority>(i);
      prioritized.deadline =
          RealClock::Get()->Now() + std::chrono::seconds(30);
      service.SubmitAsync(prioritized, &cq, const_cast<char*>(kTagNames[i]));
    }
    explain::CompletionQueue::Completion done;
    int completed = 0;
    while (completed < 3 && cq.Next(&done)) {
      ++completed;
      std::printf("completion %d/3: tag=%-6s %s\n", completed,
                  static_cast<const char*>(done.tag),
                  done.ok() ? "ok" : "error");
    }
    cq.Shutdown();
    const explain::ExplainService::Stats stats = service.stats();
    std::printf("per-priority drained: high %llu, normal %llu, batch %llu\n",
                static_cast<unsigned long long>(stats.drained_by_priority[0]),
                static_cast<unsigned long long>(stats.drained_by_priority[1]),
                static_cast<unsigned long long>(stats.drained_by_priority[2]));
  }

  dcam_examples::Banner("adaptive k (stop when the map stabilizes)");
  explain::ExplainOptions aopt;
  aopt.adaptive.batch = 10;
  aopt.adaptive.max_k = 200;
  aopt.adaptive.tolerance = 0.05;
  const explain::ExplanationResult ares =
      explain::Explain("dcam_adaptive", &model, instance, 1, aopt);
  std::printf("converged=%s after k=%d permutations (fixed default: 100); "
              "Dr-acc %.3f\n",
              ares.converged ? "yes" : "no", ares.k,
              eval::DrAcc(ares.map, mask));

  dcam_examples::Banner("dCAM heat map");
  dcam_examples::PrintHeatmap(maps["dcam"]);
  dcam_examples::Banner("occlusion heat map");
  dcam_examples::PrintHeatmap(maps["occlusion"]);
  dcam_examples::Banner("ground truth");
  dcam_examples::PrintHeatmap(mask);
  return 0;
}
