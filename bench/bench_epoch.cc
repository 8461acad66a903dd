// End-to-end proof for the sparse training path: trains the AdamGNN node
// classifier on one synthetic workload in repeated rounds and writes
// per-epoch wall times to BENCH_epoch.json.
//
// Gates (the binary exits nonzero on any violation):
//   - Determinism. Every round — metrics on, metrics off, and one extra
//     round at an alternate thread count — must produce a bitwise-identical
//     per-epoch loss trajectory.
//   - Observability overhead. Each repeat runs a metrics-on and a
//     metrics-off round back to back, alternating which runs first, and
//     takes the pair's relative warm-epoch difference. The gate fails only
//     when the median of those paired overheads exceeds 2% AND exceeds
//     their interquartile range: on a shared machine a single pair swings
//     by more than the 2% budget, so a median inside the pairs' own spread
//     is not evidence of overhead.
//
// Epoch timings: because the trajectories are bitwise identical, epoch i
// performs exactly the same work in every round, so the reported epoch_ms
// are per-epoch minima across the metrics-on rounds — an estimate of the
// true cost that filters scheduler noise on shared machines.
//
// Structural sizes: `levels` records, for each level k built by the last
// evaluation pass, the nodes of level k-1 it pools and the λ-hop pairs
// scored on them, the hyper-nodes formed and nnz(A_k) — the sizes that
// drive the pair and SpGEMM costs.
//
// Flags:
//   --json=PATH   output path (default BENCH_epoch.json)
//   --smoke       tiny workload + 3 epochs, for tools/check.sh
//   --nodes=N     workload size (default 20000)
//   --epochs=N    epochs per run (default 6)
//   --degree=N    average node degree of the SBM graph (default 16)
//   --hidden=N    model hidden width (default 64)
//   --repeats=N   metrics-on/off round pairs (default 5)
//   --threads=N   kernel pool size (default 4; see EpochBenchConfig)
//                 Numeric values must be positive integers; a malformed
//                 one (--nodes=abc) exits 2.
//   --isa=NAME    force the kernel ISA (scalar|avx2); an unknown name exits
//                 2, an ISA the CPU cannot run exits 1. Default:
//                 ADAMGNN_ISA env or the best supported.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_env.h"
#include "core/adapters.h"
#include "data/features.h"
#include "data/sbm.h"
#include "data/splits.h"
#include "graph/builder.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "tensor/isa.h"
#include "train/node_trainer.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace adamgnn {
namespace {

struct EpochBenchConfig {
  size_t nodes = 20000;
  size_t feature_dim = 64;
  // At degree 16 the level-2 pooled graph densifies and the ego-pair
  // tensors turn the epoch memory-bound — the regime the workspace arena,
  // uninitialized acquires, and row-parallel gathers target. Degree 8
  // keeps every level sparse and is the gentler configuration.
  size_t avg_degree = 16;
  int num_classes = 4;
  int epochs = 6;
  size_t hidden_dim = 64;
  int levels = 2;
  int repeats = 5;
  // Kernel pool size. Defaults to 4 rather than the machine's hardware
  // concurrency so runs are reproducible across boxes; the adaptive kernels
  // consult the effective parallelism, never the requested size, so on a
  // machine with fewer hardware threads they simply split less. The JSON
  // records hardware_concurrency and the effective pool size side by side.
  int threads = 4;
  uint64_t seed = 1;
};

// A hierarchical-SBM node-classification workload large enough that the
// per-epoch sparse products clear the kernels' parallel-work gate
// (nnz * cols >= 2^20) — the regime the row-parallel gathers target. Features are
// structural (degree profiles), built in two stages like the featureless
// synthetic datasets in data/node_datasets.cc.
graph::Graph BuildWorkload(const EpochBenchConfig& cfg) {
  util::Rng rng(cfg.seed);
  data::SbmConfig sbm;
  sbm.num_nodes = cfg.nodes;
  sbm.num_classes = cfg.num_classes;
  sbm.communities_per_class = std::max<int>(
      1, static_cast<int>(cfg.nodes /
                          (static_cast<size_t>(cfg.num_classes) * 50)));
  sbm.target_edges = cfg.nodes * cfg.avg_degree / 2;
  data::SbmSample sample = data::SampleSbm(sbm, &rng).ValueOrDie();

  graph::GraphBuilder builder(cfg.nodes);
  for (const auto& [u, v] : sample.edges) {
    builder.AddEdge(u, v).CheckOK();
  }
  builder.SetLabels(sample.classes).CheckOK();
  graph::Graph structural = std::move(builder).Build().ValueOrDie();

  graph::GraphBuilder builder2(cfg.nodes);
  for (const auto& [u, v] : sample.edges) {
    builder2.AddEdge(u, v).CheckOK();
  }
  builder2.SetLabels(sample.classes).CheckOK();
  builder2.SetFeatures(data::DegreeFeatures(structural, cfg.feature_dim, &rng))
      .CheckOK();
  return std::move(builder2).Build().ValueOrDie();
}

struct RunResult {
  std::vector<double> losses;
  std::vector<double> epoch_seconds;
  std::vector<core::LevelInfo> levels;  // of the last forward
};

/// Mean wall time of the epochs after the first, in ms (epoch 0 pays the
/// one-time GraphPlan build: ego enumeration, Â and its transposed view).
double WarmEpochMs(const std::vector<double>& epoch_seconds) {
  if (epoch_seconds.size() < 2) {
    return epoch_seconds.empty() ? 0.0 : epoch_seconds.front() * 1e3;
  }
  double warm = 0.0;
  for (size_t i = 1; i < epoch_seconds.size(); ++i) warm += epoch_seconds[i];
  return warm / static_cast<double>(epoch_seconds.size() - 1) * 1e3;
}

/// Per-epoch cost summary for one configuration across its repeated rounds:
/// epoch i's cost is the min over rounds (the rounds do bitwise-identical
/// work, so the min strips scheduler noise).
struct CostSummary {
  std::vector<double> epoch_seconds;
  double total_seconds = 0.0;
  double first_epoch_ms = 0.0;
  double warm_epoch_ms = 0.0;  // mean over epochs after the first
};

CostSummary Summarize(const std::vector<RunResult>& rounds) {
  CostSummary out;
  if (rounds.empty()) return out;
  const size_t epochs = rounds.front().epoch_seconds.size();
  out.epoch_seconds.assign(epochs, 0.0);
  for (size_t i = 0; i < epochs; ++i) {
    double best = rounds.front().epoch_seconds[i];
    for (const RunResult& r : rounds) {
      best = std::min(best, r.epoch_seconds[i]);
    }
    out.epoch_seconds[i] = best;
    out.total_seconds += best;
  }
  if (epochs > 0) out.first_epoch_ms = out.epoch_seconds.front() * 1e3;
  out.warm_epoch_ms = WarmEpochMs(out.epoch_seconds);
  return out;
}

// One full training run from a fresh, seed-identical model. `obs_on`
// toggles the observability layer's runtime switch for the run (the
// overhead gate compares runs with it on vs. off).
RunResult RunOnce(const graph::Graph& g, const data::IndexSplit& split,
                  const EpochBenchConfig& cfg, bool obs_on = true) {
  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(obs_on);

  util::Rng model_rng(cfg.seed + 77);
  core::AdamGnnConfig mc;
  mc.in_dim = cfg.feature_dim;
  mc.hidden_dim = cfg.hidden_dim;
  mc.num_classes = static_cast<size_t>(cfg.num_classes);
  mc.num_levels = cfg.levels;
  core::AdamGnnNodeModel model(mc, &model_rng);

  train::TrainConfig tc;
  tc.max_epochs = cfg.epochs;
  tc.patience = cfg.epochs + 1;  // never early-stop: equal-length runs
  tc.learning_rate = 0.01;
  tc.seed = cfg.seed;
  train::NodeTaskResult r =
      train::TrainNodeClassifier(&model, g, split, tc).ValueOrDie();

  obs::SetEnabled(obs_was_enabled);

  RunResult out;
  out.losses = r.epoch_losses;
  out.epoch_seconds = r.epoch_seconds;
  out.levels = model.last_levels();
  return out;
}

/// True when every round in the given sets produced the same bitwise loss
/// trajectory as the first one.
bool TrajectoriesIdentical(
    const std::vector<const std::vector<RunResult>*>& round_sets) {
  const std::vector<double>& ref = round_sets.front()->front().losses;
  auto same = [&ref](const RunResult& r) {
    if (r.losses.size() != ref.size()) return false;
    for (size_t i = 0; i < ref.size(); ++i) {
      if (r.losses[i] != ref[i]) return false;
    }
    return true;
  };
  for (const std::vector<RunResult>* rounds : round_sets) {
    for (const RunResult& r : *rounds) {
      if (!same(r)) return false;
    }
  }
  return true;
}

/// Linear-interpolated quantile q in [0, 1] of `v` (non-empty).
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void PrintEpochArray(std::FILE* f, const char* key,
                     const std::vector<double>& seconds) {
  std::fprintf(f, "    \"%s\": [", key);
  for (size_t i = 0; i < seconds.size(); ++i) {
    std::fprintf(f, "%s%.3f", i == 0 ? "" : ", ", seconds[i] * 1e3);
  }
  std::fprintf(f, "],\n");
}

int Run(const EpochBenchConfig& cfg, const std::string& json_path,
        bool smoke) {
  util::SetNumThreads(cfg.threads);
  std::printf("building workload: %zu nodes, ~%zu edges, %zu features, "
              "%d classes\n",
              cfg.nodes, cfg.nodes * cfg.avg_degree / 2, cfg.feature_dim,
              cfg.num_classes);
  graph::Graph g = BuildWorkload(cfg);
  util::Rng split_rng(cfg.seed + 13);
  data::IndexSplit split =
      data::SplitIndices(g.num_nodes(), 0.8, 0.1, &split_rng).ValueOrDie();

  // Paired rounds: each repeat runs metrics on and metrics off back to
  // back, alternating which goes first so neither side always inherits the
  // other's warm caches or a slow drift. The metrics must cost < 2% per
  // warm epoch and leave the loss trajectory bitwise unchanged.
  std::vector<RunResult> obs_rounds, noobs_rounds;
  std::vector<double> paired_overhead_pct;
  for (int rep = 0; rep < cfg.repeats; ++rep) {
    const bool on_first = rep % 2 == 0;
    for (const bool obs_on : {on_first, !on_first}) {
      std::printf("round %d/%d: metrics %s, %d epochs...\n", rep + 1,
                  cfg.repeats, obs_on ? "on" : "off", cfg.epochs);
      (obs_on ? obs_rounds : noobs_rounds)
          .push_back(RunOnce(g, split, cfg, obs_on));
    }
    const double on_ms = WarmEpochMs(obs_rounds.back().epoch_seconds);
    const double off_ms = WarmEpochMs(noobs_rounds.back().epoch_seconds);
    paired_overhead_pct.push_back((on_ms - off_ms) / std::max(off_ms, 1e-9) *
                                  100.0);
  }
  // One extra round at an alternate pool size: the adaptive strategy
  // selector consults the pool, so this is the round that proves selection
  // changes speed, never bits.
  const int alt_threads = cfg.threads == 2 ? 3 : 2;
  std::printf("extra round: %d threads (bitwise check)...\n", alt_threads);
  util::SetNumThreads(alt_threads);
  std::vector<RunResult> alt_rounds;
  alt_rounds.push_back(RunOnce(g, split, cfg));
  util::SetNumThreads(cfg.threads);

  const CostSummary engine = Summarize(obs_rounds);
  const CostSummary noobs = Summarize(noobs_rounds);
  std::printf("metrics on:  first epoch %8.1f ms, warm epochs %8.1f ms\n",
              engine.first_epoch_ms, engine.warm_epoch_ms);
  std::printf("metrics off: first epoch %8.1f ms, warm epochs %8.1f ms\n",
              noobs.first_epoch_ms, noobs.warm_epoch_ms);

  // Metrics on/off and the alternate thread count must not move a bit.
  const bool bitwise =
      TrajectoriesIdentical({&obs_rounds, &noobs_rounds, &alt_rounds});
  const double obs_overhead_pct = Quantile(paired_overhead_pct, 0.5);
  const double obs_overhead_iqr = Quantile(paired_overhead_pct, 0.75) -
                                  Quantile(paired_overhead_pct, 0.25);
  // Smoke epochs are sub-millisecond, where one scheduler blip swamps the
  // percentage; the gate only binds on the full-size workload.
  const bool obs_gate_ok = smoke || obs_overhead_pct <= 2.0 ||
                           obs_overhead_pct <= obs_overhead_iqr;

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  bench::WriteEnvJson(f);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f,
               "  \"workload\": {\"task\": \"node_classification\", "
               "\"nodes\": %zu, \"edges\": %zu, \"feature_dim\": %zu, "
               "\"classes\": %d, \"model\": \"AdamGNN\", \"hidden_dim\": %zu, "
               "\"levels\": %d, \"epochs\": %d, \"repeats\": %d},\n",
               cfg.nodes, g.num_edges(), cfg.feature_dim, cfg.num_classes,
               cfg.hidden_dim, cfg.levels, cfg.epochs, cfg.repeats);
  std::fprintf(f,
               "  \"comment\": \"epoch_ms are per-epoch minima across the "
               "metrics-on rounds; the rounds do bitwise-identical work, so "
               "the min strips scheduler noise\",\n");
  std::fprintf(f, "  \"engine\": {\n");
  PrintEpochArray(f, "epoch_ms", engine.epoch_seconds);
  std::fprintf(f, "    \"first_epoch_ms\": %.1f,\n", engine.first_epoch_ms);
  std::fprintf(f, "    \"warm_epoch_ms\": %.1f\n  },\n",
               engine.warm_epoch_ms);
  std::fprintf(f, "  \"obs\": {\n");
  std::fprintf(f, "    \"enabled_warm_epoch_ms\": %.1f,\n",
               engine.warm_epoch_ms);
  std::fprintf(f, "    \"disabled_warm_epoch_ms\": %.1f,\n",
               noobs.warm_epoch_ms);
  std::fprintf(f, "    \"paired_overhead_pct\": [");
  for (size_t i = 0; i < paired_overhead_pct.size(); ++i) {
    std::fprintf(f, "%s%.2f", i == 0 ? "" : ", ", paired_overhead_pct[i]);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "    \"overhead_pct\": %.2f,\n", obs_overhead_pct);
  std::fprintf(f, "    \"overhead_iqr_pct\": %.2f,\n", obs_overhead_iqr);
  std::fprintf(f,
               "    \"gate\": \"median paired overhead_pct <= 2.0 or <= "
               "its IQR (full-size runs)\",\n");
  std::fprintf(f, "    \"gate_ok\": %s\n  },\n", obs_gate_ok ? "true"
                                                             : "false");
  std::fprintf(f, "  \"levels\": [");
  const std::vector<core::LevelInfo>& levels = obs_rounds.front().levels;
  for (size_t k = 0; k < levels.size(); ++k) {
    std::fprintf(f,
                 "%s\n    {\"level\": %zu, \"prev_nodes\": %zu, "
                 "\"hyper_nodes\": %zu, \"pairs\": %zu, "
                 "\"adjacency_nnz\": %zu}",
                 k == 0 ? "" : ",", k + 1, levels[k].num_prev_nodes,
                 levels[k].num_hyper_nodes, levels[k].num_pairs,
                 levels[k].adjacency_nnz);
  }
  std::fprintf(f, "%s],\n", levels.empty() ? "" : "\n  ");
  std::fprintf(f, "  \"engine_alt_threads\": %d,\n", alt_threads);
  std::fprintf(f, "  \"loss_trajectory_bitwise_identical\": %s\n}\n",
               bitwise ? "true" : "false");
  std::fclose(f);

  std::printf("trajectory (metrics on/off, threads %d/%d): %s\n",
              cfg.threads, alt_threads,
              bitwise ? "bitwise-identical" : "MISMATCH");
  std::printf(
      "metrics overhead %+.2f%% per warm epoch, median of %zu pairs, IQR "
      "%.2f (gate: <= 2%% or <= IQR%s)\n",
      obs_overhead_pct, paired_overhead_pct.size(), obs_overhead_iqr,
      smoke ? ", not binding in --smoke" : "");
  std::printf("wrote %s\n", json_path.c_str());
  if (!bitwise) {
    std::fprintf(stderr,
                 "FAIL: rounds (metrics on/off, alternate threads) did not "
                 "reproduce the loss trajectory bitwise\n");
    return 1;
  }
  if (!obs_gate_ok) {
    std::fprintf(stderr,
                 "FAIL: metrics instrumentation costs %.2f%% per warm epoch "
                 "(median of paired rounds; budget: 2%%, IQR %.2f)\n",
                 obs_overhead_pct, obs_overhead_iqr);
    return 1;
  }
  return 0;
}

// Strict value of a positive-integer flag: --nodes=abc, --epochs=0 or an
// out-of-range value exits 2 naming the flag, as the CLIs do.
int PositiveArgOrDie(const char* flag, const char* text) {
  const util::Result<int64_t> parsed = util::ParseInt(text);
  if (!parsed.ok() || parsed.ValueOrDie() < 1 ||
      parsed.ValueOrDie() > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "invalid value for %s: \"%s\" (%s)\n", flag, text,
                 parsed.ok() ? "must be a positive int"
                             : parsed.status().message().c_str());
    std::exit(2);
  }
  return static_cast<int>(parsed.ValueOrDie());
}

}  // namespace
}  // namespace adamgnn

int main(int argc, char** argv) {
  using adamgnn::PositiveArgOrDie;
  adamgnn::EpochBenchConfig cfg;
  std::string json_path = "BENCH_epoch.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      cfg.nodes = 600;
      cfg.epochs = 3;
      cfg.feature_dim = 16;
      cfg.hidden_dim = 16;
      cfg.avg_degree = 8;
      cfg.repeats = 1;
    } else if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      cfg.nodes = PositiveArgOrDie("--nodes", argv[i] + 8);
    } else if (std::strncmp(argv[i], "--epochs=", 9) == 0) {
      cfg.epochs = PositiveArgOrDie("--epochs", argv[i] + 9);
    } else if (std::strncmp(argv[i], "--degree=", 9) == 0) {
      cfg.avg_degree = PositiveArgOrDie("--degree", argv[i] + 9);
    } else if (std::strncmp(argv[i], "--hidden=", 9) == 0) {
      cfg.hidden_dim = PositiveArgOrDie("--hidden", argv[i] + 9);
    } else if (std::strncmp(argv[i], "--repeats=", 10) == 0) {
      cfg.repeats = PositiveArgOrDie("--repeats", argv[i] + 10);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      cfg.threads = PositiveArgOrDie("--threads", argv[i] + 10);
    } else if (std::strncmp(argv[i], "--isa=", 6) == 0) {
      adamgnn::tensor::Isa isa;
      if (!adamgnn::tensor::ParseIsa(argv[i] + 6, &isa)) {
        std::fprintf(stderr, "--isa must be scalar|avx2, got \"%s\"\n",
                     argv[i] + 6);
        return 2;
      }
      if (!adamgnn::tensor::SetIsa(isa)) {
        std::fprintf(
            stderr, "--isa=%s is not supported on this CPU (best: %s)\n",
            argv[i] + 6,
            adamgnn::tensor::IsaName(adamgnn::tensor::BestSupportedIsa()));
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }
  const int rc = adamgnn::Run(cfg, json_path, smoke);
  // ADAMGNN_METRICS=FILE dumps the final rounds' accumulated telemetry
  // (epoch/phase histograms, pool and workspace stats, spans) as JSONL.
  const std::string metrics_path = adamgnn::obs::MetricsPathFromEnv();
  if (!metrics_path.empty()) {
    adamgnn::obs::WriteMetricsJsonl(metrics_path).CheckOK();
  }
  return rc;
}
