// Serving-latency benchmark for the GraphPlan + InferenceSession split.
//
// Measures, over a set of distinct synthetic Cora graphs (one dataset seed
// each), the two costs a result-cache hit avoids:
//   cold_plan — a query against a graph the session has never seen: plan
//               construction plus one tape-free session run;
//   uncached  — the run alone, plan prebuilt and the result cache dropped
//               (the pure tape-free compute).
// Each is reported as p50/p99 over every (graph, repeat) sample. A hit's
// own latency is reported too, but never as a ratio: it is a hash-map
// lookup, so any speedup over it measures the timer, not the forward.
//
// Gate (the binary exits 1 on a violation): for every graph, a second plan
// of the same graph must hit the cached entry, and that hit must be
// bitwise equal to the uncached result of a fresh session.
//
// Flags:
//   --json=PATH   output path (default BENCH_inference.json)
//   --smoke       4 small graphs, 1 repeat, for tools/check.sh
// Any other flag exits 2.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_env.h"
#include "core/adamgnn_model.h"
#include "core/graph_plan.h"
#include "core/inference_session.h"
#include "data/node_datasets.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace adamgnn {
namespace {

struct InferenceBenchConfig {
  double scale = 0.3;  // ~812 nodes per graph
  size_t graphs = core::InferenceSession::kMaxCachedPlans;
  int repeats = 3;
};

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) +
                                          0.999999);
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

int RunInferenceBench(const InferenceBenchConfig& cfg,
                      const std::string& json_path, bool smoke) {
  std::vector<graph::Graph> graphs;
  for (size_t i = 0; i < cfg.graphs; ++i) {
    graphs.push_back(data::MakeNodeDataset(data::NodeDatasetId::kCora,
                                           /*seed=*/1 + i, cfg.scale)
                         .ValueOrDie()
                         .graph);
  }

  core::AdamGnnConfig config;
  config.in_dim = graphs[0].feature_dim();
  config.num_classes = static_cast<size_t>(graphs[0].num_classes());
  util::Rng rng(7);
  core::AdamGnn model(config, &rng);
  core::InferenceSession session(model);

  std::vector<double> cold_ms, uncached_ms, hit_ms;
  size_t total_nodes = 0;
  bool hits_ok = true;
  for (const graph::Graph& g : graphs) {
    total_nodes += g.num_nodes();
    std::shared_ptr<const core::GraphPlan> plan;
    const core::InferenceSession::Result* last = nullptr;
    util::Stopwatch watch;
    for (int r = 0; r < cfg.repeats; ++r) {
      session.RefreshWeights(model);  // drop the result cache
      watch.Restart();
      plan = core::GraphPlan::Build(g, config.lambda);
      session.Run(plan);
      cold_ms.push_back(watch.ElapsedMillis());
    }
    for (int r = 0; r < cfg.repeats; ++r) {
      session.RefreshWeights(model);
      watch.Restart();
      last = &session.Run(plan);
      uncached_ms.push_back(watch.ElapsedMillis());
    }

    // The entry cached by the last uncached run answers a second plan of
    // the same graph; it must carry a fresh session's exact bits.
    const auto other_plan = core::GraphPlan::Build(g, config.lambda);
    watch.Restart();
    const core::InferenceSession::Result& hit = session.Run(other_plan);
    hit_ms.push_back(watch.ElapsedMillis());
    core::InferenceSession fresh(model);
    const core::InferenceSession::Result& want = fresh.Run(plan);
    if (&hit != last || !(hit.embeddings == want.embeddings) ||
        !(hit.logits == want.logits) ||
        !(hit.flyback_attention == want.flyback_attention)) {
      hits_ok = false;
    }
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  bench::WriteEnvJson(f);
  std::fprintf(
      f,
      "  \"smoke\": %s,\n"
      "  \"dataset\": \"cora\",\n"
      "  \"scale\": %.2f,\n"
      "  \"graphs\": %zu,\n"
      "  \"mean_nodes\": %.1f,\n"
      "  \"repeats\": %d,\n"
      "  \"cold_plan_p50_ms\": %.3f,\n"
      "  \"cold_plan_p99_ms\": %.3f,\n"
      "  \"uncached_p50_ms\": %.3f,\n"
      "  \"uncached_p99_ms\": %.3f,\n"
      "  \"hit_p50_ms\": %.4f,\n"
      "  \"hit_bitwise_equal_uncached\": %s\n"
      "}\n",
      smoke ? "true" : "false", cfg.scale, graphs.size(),
      static_cast<double>(total_nodes) / static_cast<double>(graphs.size()),
      cfg.repeats, Percentile(cold_ms, 0.5), Percentile(cold_ms, 0.99),
      Percentile(uncached_ms, 0.5), Percentile(uncached_ms, 0.99),
      Percentile(hit_ms, 0.5), hits_ok ? "true" : "false");
  std::fclose(f);

  std::printf("%zu graphs x %d repeats\n", graphs.size(), cfg.repeats);
  std::printf("cold plan  p50 %8.3f ms  p99 %8.3f ms\n",
              Percentile(cold_ms, 0.5), Percentile(cold_ms, 0.99));
  std::printf("uncached   p50 %8.3f ms  p99 %8.3f ms\n",
              Percentile(uncached_ms, 0.5), Percentile(uncached_ms, 0.99));
  std::printf("hit        p50 %8.4f ms\n", Percentile(hit_ms, 0.5));
  std::printf("wrote %s\n", json_path.c_str());

  if (!hits_ok) {
    std::fprintf(stderr,
                 "FAIL: a second plan of a graph missed the cache, or its "
                 "hit differs from the uncached result\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace adamgnn

int main(int argc, char** argv) {
  adamgnn::InferenceBenchConfig cfg;
  std::string json_path = "BENCH_inference.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0 && argv[i][7] != '\0') {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      cfg.scale = 0.05;
      cfg.graphs = 4;
      cfg.repeats = 1;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return adamgnn::RunInferenceBench(cfg, json_path, smoke);
}
