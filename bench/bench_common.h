// Shared harness for the paper-reproduction benches: dataset scaling knobs,
// model factories by paper name, seed-averaged runners, and table printing.
//
// Every bench accepts environment overrides so a full-scale run is possible
// on bigger hardware:
//   ADAMGNN_BENCH_SCALE        node-dataset scale in (0,1]      (default .22)
//   ADAMGNN_BENCH_GRAPH_SCALE  graph-set scale in (0,1]         (default .035)
//   ADAMGNN_BENCH_SEEDS        repetitions per cell             (default 2)
//   ADAMGNN_BENCH_EPOCHS       max epochs per run               (default 120; graph benches cap at 40)

#ifndef ADAMGNN_BENCH_BENCH_COMMON_H_
#define ADAMGNN_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/adapters.h"
#include "data/graph_datasets.h"
#include "data/node_datasets.h"
#include "data/splits.h"
#include "obs/export.h"
#include "pool/diff_pool.h"
#include "pool/flat_models.h"
#include "pool/sag_pool.h"
#include "pool/sort_pool.h"
#include "pool/struct_pool.h"
#include "pool/topk_pool.h"
#include "pool/wl_gnn.h"
#include "train/graph_trainer.h"
#include "train/link_trainer.h"
#include "train/node_trainer.h"
#include "util/string_util.h"

namespace adamgnn::bench {

// Strictly parsed env overrides: a malformed value (ADAMGNN_BENCH_SEEDS=abc)
// exits 2 naming the variable instead of silently reading 0.
[[noreturn]] inline void BadEnvValue(const char* name, const char* value,
                                     const std::string& why) {
  std::fprintf(stderr, "invalid value for %s: \"%s\" (%s)\n", name, value,
               why.c_str());
  std::exit(2);
}
inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const util::Result<double> parsed = util::ParseDouble(v);
  if (!parsed.ok()) BadEnvValue(name, v, parsed.status().message());
  return parsed.ValueOrDie();
}
inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const util::Result<int64_t> parsed = util::ParseInt(v);
  if (!parsed.ok()) BadEnvValue(name, v, parsed.status().message());
  if (parsed.ValueOrDie() < std::numeric_limits<int>::min() ||
      parsed.ValueOrDie() > std::numeric_limits<int>::max()) {
    BadEnvValue(name, v, "out of int range");
  }
  return static_cast<int>(parsed.ValueOrDie());
}

struct BenchSettings {
  double node_scale = 0.22;
  double graph_scale = 0.035;
  int seeds = 2;
  int max_epochs = 120;
  size_t hidden_dim = 32;

  static BenchSettings FromEnv() {
    BenchSettings s;
    s.node_scale = EnvDouble("ADAMGNN_BENCH_SCALE", s.node_scale);
    s.graph_scale = EnvDouble("ADAMGNN_BENCH_GRAPH_SCALE", s.graph_scale);
    s.seeds = EnvInt("ADAMGNN_BENCH_SEEDS", s.seeds);
    s.max_epochs = EnvInt("ADAMGNN_BENCH_EPOCHS", s.max_epochs);
    return s;
  }

  train::TrainConfig TrainerConfig(uint64_t seed) const {
    train::TrainConfig c;
    c.max_epochs = max_epochs;
    c.patience = max_epochs / 3 + 5;
    c.learning_rate = 0.01;
    c.seed = seed;
    return c;
  }
};

// ---- Model factories keyed by the names used in the paper's tables. ----

inline const std::vector<std::string>& GraphModelNames() {
  static const std::vector<std::string> kNames = {
      "GIN",      "3WL-GNN",  "SORTPOOL",   "DIFFPOOL",
      "TOPKPOOL", "SAGPOOL",  "STRUCTPOOL", "AdamGNN"};
  return kNames;
}

inline std::unique_ptr<train::GraphModel> MakeGraphModel(
    const std::string& name, size_t in_dim, int num_classes,
    size_t hidden_dim, util::Rng* rng) {
  if (name == "GIN") {
    pool::FlatGnnConfig c;
    c.kind = pool::FlatGnnKind::kGin;
    c.in_dim = in_dim;
    c.hidden_dim = hidden_dim;
    return std::make_unique<pool::FlatGraphModel>(c, num_classes, rng);
  }
  if (name == "3WL-GNN") {
    pool::WlGnnConfig c;
    c.in_dim = in_dim;
    c.hidden_dim = hidden_dim;
    c.num_classes = num_classes;
    return std::make_unique<pool::WlGnnGraphModel>(c, rng);
  }
  if (name == "SORTPOOL") {
    pool::SortPoolConfig c;
    c.in_dim = in_dim;
    c.hidden_dim = hidden_dim;
    c.num_classes = num_classes;
    return std::make_unique<pool::SortPoolGraphModel>(c, rng);
  }
  if (name == "DIFFPOOL") {
    return pool::MakeDiffPoolModel(in_dim, hidden_dim, num_classes, rng);
  }
  if (name == "TOPKPOOL") {
    pool::TopKGraphConfig c;
    c.in_dim = in_dim;
    c.hidden_dim = hidden_dim;
    c.num_classes = num_classes;
    c.ratio = 0.5;
    return std::make_unique<pool::TopKGraphModel>(c, rng);
  }
  if (name == "SAGPOOL") {
    return pool::MakeSagPoolModel(in_dim, hidden_dim, num_classes, 0.5, rng);
  }
  if (name == "STRUCTPOOL") {
    return pool::MakeStructPoolModel(in_dim, hidden_dim, num_classes, rng);
  }
  if (name == "AdamGNN") {
    core::AdamGnnConfig c;
    c.in_dim = in_dim;
    c.hidden_dim = hidden_dim;
    c.num_levels = 2;
    return std::make_unique<core::AdamGnnGraphModel>(c, num_classes, rng);
  }
  std::fprintf(stderr, "unknown graph model %s\n", name.c_str());
  std::abort();
}

inline const std::vector<std::string>& NodeModelNames() {
  static const std::vector<std::string> kNames = {
      "GCN", "GraphSAGE", "GAT", "GIN", "TOPKPOOL", "AdamGNN"};
  return kNames;
}

inline std::unique_ptr<train::NodeModel> MakeNodeTaskModel(
    const std::string& name, size_t in_dim, size_t num_classes,
    size_t hidden_dim, int adam_levels, util::Rng* rng) {
  if (name == "TOPKPOOL") {
    pool::GraphUNetConfig c;
    c.in_dim = in_dim;
    c.hidden_dim = hidden_dim;
    c.num_classes = num_classes;
    return std::make_unique<pool::GraphUNetNodeModel>(c, rng);
  }
  if (name == "AdamGNN") {
    core::AdamGnnConfig c;
    c.in_dim = in_dim;
    c.hidden_dim = hidden_dim;
    c.num_classes = num_classes;
    c.num_levels = adam_levels;
    return std::make_unique<core::AdamGnnNodeModel>(c, rng);
  }
  pool::FlatGnnConfig c;
  c.in_dim = in_dim;
  c.hidden_dim = hidden_dim;
  c.num_classes = num_classes;
  if (name == "GCN") c.kind = pool::FlatGnnKind::kGcn;
  if (name == "GraphSAGE") c.kind = pool::FlatGnnKind::kSage;
  if (name == "GAT") c.kind = pool::FlatGnnKind::kGat;
  if (name == "GIN") c.kind = pool::FlatGnnKind::kGin;
  return std::make_unique<pool::FlatNodeModel>(c, rng);
}

inline std::unique_ptr<train::EmbeddingModel> MakeEmbeddingTaskModel(
    const std::string& name, size_t in_dim, size_t hidden_dim,
    int adam_levels, util::Rng* rng) {
  if (name == "TOPKPOOL") {
    pool::GraphUNetConfig c;
    c.in_dim = in_dim;
    c.hidden_dim = hidden_dim;
    return std::make_unique<pool::GraphUNetEmbeddingModel>(c, rng);
  }
  if (name == "AdamGNN") {
    core::AdamGnnConfig c;
    c.in_dim = in_dim;
    c.hidden_dim = hidden_dim;
    c.num_levels = adam_levels;
    return std::make_unique<core::AdamGnnEmbeddingModel>(c, rng);
  }
  pool::FlatGnnConfig c;
  c.in_dim = in_dim;
  c.hidden_dim = hidden_dim;
  if (name == "GCN") c.kind = pool::FlatGnnKind::kGcn;
  if (name == "GraphSAGE") c.kind = pool::FlatGnnKind::kSage;
  if (name == "GAT") c.kind = pool::FlatGnnKind::kGat;
  if (name == "GIN") c.kind = pool::FlatGnnKind::kGin;
  return std::make_unique<pool::FlatEmbeddingModel>(c, rng);
}

// ---- Seed-averaged task runners. ----

inline double MeanGraphAccuracy(const std::string& model_name,
                                const data::GraphDataset& dataset,
                                const BenchSettings& settings,
                                double* epoch_seconds = nullptr) {
  double acc_sum = 0.0, time_sum = 0.0;
  for (int s = 0; s < settings.seeds; ++s) {
    util::Rng rng(100 + static_cast<uint64_t>(s));
    data::IndexSplit split =
        data::SplitIndices(dataset.graphs.size(), 0.8, 0.1, &rng)
            .ValueOrDie();
    auto model =
        MakeGraphModel(model_name, dataset.feature_dim, dataset.num_classes,
                       settings.hidden_dim, &rng);
    train::GraphTaskResult r =
        train::TrainGraphClassifier(model.get(), dataset, split,
                                    settings.TrainerConfig(
                                        static_cast<uint64_t>(s) + 1),
                                    /*batch_size=*/16)
            .ValueOrDie();
    acc_sum += r.test_accuracy;
    time_sum += r.avg_epoch_seconds;
  }
  if (epoch_seconds != nullptr) {
    *epoch_seconds = time_sum / settings.seeds;
  }
  return acc_sum / settings.seeds;
}

inline void PrintRow(const std::string& name,
                     const std::vector<std::string>& cells,
                     size_t name_width = 12, size_t cell_width = 9) {
  std::string line = util::PadRight(name, name_width);
  for (const auto& c : cells) line += " " + util::PadLeft(c, cell_width);
  std::printf("%s\n", line.c_str());
}

/// Dumps the run's accumulated metrics + trace spans as JSONL to the path in
/// ADAMGNN_METRICS ("-" = stdout). Call once at the end of main; silently a
/// no-op when the env var is unset, so benches stay usable as before.
inline void DumpMetrics() {
  const std::string path = obs::MetricsPathFromEnv();
  if (path.empty()) return;
  const util::Status st = obs::WriteMetricsJsonl(path);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return;
  }
  if (path != "-") {
    std::fprintf(stderr, "metrics written to %s\n", path.c_str());
  }
}

}  // namespace adamgnn::bench

#endif  // ADAMGNN_BENCH_BENCH_COMMON_H_
