// adamgnn_train — command-line trainer for AdamGNN on user-provided graphs.
//
// Usage:
//   adamgnn_train --task=nc --edges=g.txt --features=x.txt --labels=y.txt
//                 [--levels=3] [--hidden=64] [--epochs=200] [--lr=0.01]
//                 [--seed=1] [--threads=N] [--save=model.ckpt]
//                 [--checkpoint=run.ckpt] [--checkpoint-every=10] [--resume]
//   adamgnn_train --task=lp --edges=g.txt --features=x.txt [...]
//   adamgnn_train --task=nc --synthetic=cora [--scale=0.2] [...]
//
// Node classification reports test accuracy, macro-F1 and the confusion
// matrix; link prediction reports ROC-AUC. `--save` writes a checkpoint
// loadable with nn::LoadParameters. `--checkpoint` makes the run crash-safe:
// a resumable checkpoint (parameters + optimizer + RNG + bookkeeping) is
// written atomically every --checkpoint-every epochs and at the end;
// `--resume` continues an interrupted run bitwise-identically.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "autograd/loss_ops.h"
#include "core/adapters.h"
#include "data/splits.h"
#include "nn/serialize.h"
#include "tools/cli_common.h"
#include "train/evaluation.h"
#include "train/link_trainer.h"
#include "train/node_trainer.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace {

using namespace adamgnn;  // CLI tool; library code never does this
using cli::FlagOr;

// Single source of truth for the tool's flag surface: the known-flag set
// (strict parsing — a typo like --epoch=5 is rejected, not ignored) and the
// --help listing are both derived from this table, so every flag is
// documented exactly once.
const std::vector<cli::FlagSpec>& Specs() {
  static const std::vector<cli::FlagSpec>* kSpecs =
      new std::vector<cli::FlagSpec>{
          {"help", "print this flag list and exit"},
          {"task", "nc (node classification, default) or lp (link "
                   "prediction)"},
          {"edges", "edge-list input file (one `u v [w]` line per edge)"},
          {"features", "node-feature file for --edges input"},
          {"labels", "node-label file for --edges input (required for nc)"},
          {"synthetic", "built-in dataset: acm|citeseer|cora|emails|dblp|"
                        "wiki"},
          {"scale", "synthetic dataset size multiplier (default 0.2)"},
          {"levels", "pooling levels (default 3)"},
          {"hidden", "hidden width (default 64)"},
          {"epochs", "training epoch budget (default 200)"},
          {"lr", "Adam learning rate (default 0.01)"},
          {"seed", "RNG seed for init/splits/synthetic data (default 1)"},
          {"threads", "kernel worker threads (default: ADAMGNN_NUM_THREADS "
                      "env\nor hardware concurrency). Results are "
                      "bitwise-identical\nat every thread count."},
          {"isa", "scalar|avx2: force the SIMD kernel backend "
                  "(default:\nADAMGNN_ISA env or best the CPU supports). "
                  "Exits 2 if the\nCPU cannot run it. At a fixed ISA "
                  "results are\nbitwise-reproducible; across ISAs dense "
                  "matmuls may\ndiffer by a few ULPs (avx2 FMA)."},
          {"save", "write the final weights as a checkpoint loadable by\n"
                   "adamgnn_infer --load"},
          {"checkpoint", "crash-safe resumable checkpoint file (parameters "
                         "+\nAdam moments + RNG + epoch bookkeeping, "
                         "atomic writes)"},
          {"checkpoint-every", "also save every N epochs (default 10; the "
                               "end of the\nrun always saves)"},
          {"resume", "continue from --checkpoint if it exists; reproduces\n"
                     "the uninterrupted run bitwise at the same seed and\n"
                     "threads"},
          {"dump-predictions", "(nc only) write every node's final argmax "
                               "class as\n`node<TAB>class` lines, "
                               "comparable with adamgnn_infer\noutput"},
          {"print-config", "print the resolved effective configuration\n"
                           "(threads, ISA, obs state, training params) as "
                           "one JSON\nline on stdout and exit 0"},
          {"metrics-out", "write run telemetry (epoch/phase timings, pool "
                          "and\nworkspace stats, trace spans) as JSONL; "
                          "\"-\" means\nstdout. The ADAMGNN_METRICS env "
                          "var is the fallback\nwhen the flag is absent."},
      };
  return *kSpecs;
}

// Prints resume provenance and any divergence recoveries for a finished run.
void ReportResilience(const train::TaskResult& result) {
  if (result.resumed_from_epoch >= 0) {
    std::printf("resumed from epoch %d\n", result.resumed_from_epoch);
  }
  for (const nn::RecoveryEvent& e : result.recovery_events) {
    std::printf("recovery: epoch %lld %s, rolled back, lr %.6g -> %.6g\n",
                static_cast<long long>(e.epoch),
                nn::RecoveryKindToString(e.kind), e.lr_before, e.lr_after);
  }
}

int RunNodeClassification(const graph::Graph& g,
                          const std::map<std::string, std::string>& flags,
                          const core::AdamGnnConfig& base_config,
                          const train::TrainConfig& tc, util::Rng* rng) {
  if (!g.has_labels()) {
    std::fprintf(stderr, "node classification requires --labels\n");
    return 2;
  }
  core::AdamGnnConfig config = base_config;
  config.num_classes = static_cast<size_t>(g.num_classes());
  core::AdamGnnNodeModel model(config, rng);

  data::IndexSplit split =
      data::SplitIndices(g.num_nodes(), 0.8, 0.1, rng).ValueOrDie();
  auto train_result = train::TrainNodeClassifier(&model, g, split, tc);
  if (!train_result.ok()) {
    std::fprintf(stderr, "%s\n", train_result.status().ToString().c_str());
    return 1;
  }
  train::NodeTaskResult result = std::move(train_result).ValueOrDie();
  ReportResilience(result);
  std::printf("val accuracy  %.4f\ntest accuracy %.4f (epoch %d of %d)\n",
              result.val_accuracy, result.test_accuracy, result.best_epoch,
              result.epochs_run);

  // Detailed test-set report, through the tape-free serving path (bitwise
  // identical to the eval-mode training forward at these weights).
  util::Rng eval_rng(tc.seed);
  auto out = model.Evaluate(g, &eval_rng);
  std::vector<int> predicted, truth;
  std::vector<int> all_pred = autograd::ArgmaxRows(out.logits.value());
  for (size_t r : split.test) {
    predicted.push_back(all_pred[r]);
    truth.push_back(g.labels()[r]);
  }
  auto confusion = train::ConfusionMatrix::FromPredictions(
                       predicted, truth, g.num_classes())
                       .ValueOrDie();
  std::printf("macro-F1      %.4f\nconfusion matrix (test):\n%s",
              confusion.MacroF1(), confusion.ToString().c_str());

  const std::string dump = FlagOr(flags, "dump-predictions", "");
  if (!dump.empty()) {
    std::FILE* f = std::fopen(dump.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", dump.c_str());
      return 1;
    }
    for (size_t i = 0; i < all_pred.size(); ++i) {
      std::fprintf(f, "%zu\t%d\n", i, all_pred[i]);
    }
    std::fclose(f);
    std::printf("predictions written to %s\n", dump.c_str());
  }

  const std::string save = FlagOr(flags, "save", "");
  if (!save.empty()) {
    nn::SaveParameters(model.Parameters(), save).CheckOK();
    std::printf("checkpoint written to %s\n", save.c_str());
  }
  return 0;
}

int RunLinkPrediction(const graph::Graph& g,
                      const std::map<std::string, std::string>& flags,
                      const core::AdamGnnConfig& config,
                      const train::TrainConfig& tc, util::Rng* rng) {
  data::LinkSplit split = data::MakeLinkSplit(g, 0.1, 0.1, rng).ValueOrDie();
  core::AdamGnnEmbeddingModel model(config, rng);
  auto train_result = train::TrainLinkPredictor(&model, split, tc);
  if (!train_result.ok()) {
    std::fprintf(stderr, "%s\n", train_result.status().ToString().c_str());
    return 1;
  }
  train::LinkTaskResult result = std::move(train_result).ValueOrDie();
  ReportResilience(result);
  std::printf("val ROC-AUC  %.4f\ntest ROC-AUC %.4f (epoch %d of %d)\n",
              result.val_auc, result.test_auc, result.best_epoch,
              result.epochs_run);
  const std::string save = FlagOr(flags, "save", "");
  if (!save.empty()) {
    nn::SaveParameters(model.Parameters(), save).CheckOK();
    std::printf("checkpoint written to %s\n", save.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = cli::ParseFlags(argc, argv, cli::FlagNames(Specs()));
  if (flags.count("help") > 0) {
    std::printf(
        "usage: adamgnn_train --task=nc|lp (--edges=F [--features=F] "
        "[--labels=F] | --synthetic=acm|citeseer|cora|emails|dblp|wiki "
        "[--scale=S]) [flags...]\n"
        "flags:\n");
    cli::PrintFlagHelp(Specs());
    return 0;
  }
  cli::ConfigureThreadsOrDie(flags);
  cli::ConfigureIsaOrDie(flags);
  if (flags.count("print-config") > 0) {
    cli::PrintEffectiveConfig(
        "adamgnn_train",
        {{"task", cli::JsonQuote(cli::FlagOr(flags, "task", "nc"))},
         {"epochs", cli::FlagOr(flags, "epochs", "200")},
         {"lr", cli::FlagOr(flags, "lr", "0.01")},
         {"seed", cli::FlagOr(flags, "seed", cli::kDefaultSeed)},
         {"hidden", cli::FlagOr(flags, "hidden", cli::kDefaultHidden)},
         {"levels", cli::FlagOr(flags, "levels", cli::kDefaultLevels)},
         {"checkpoint_every",
          cli::FlagOr(flags, "checkpoint-every", "10")},
         {"resume", flags.count("resume") > 0 ? "true" : "false"}});
    return 0;
  }
  std::printf("kernel threads: %d\n", util::NumThreads());
  std::printf("kernel isa: %s (best supported: %s)\n",
              tensor::IsaName(tensor::ActiveIsa()),
              tensor::IsaName(tensor::BestSupportedIsa()));
  const std::string task = FlagOr(flags, "task", "nc");

  auto graph_result = cli::LoadInput(flags);
  if (!graph_result.ok()) {
    std::fprintf(stderr, "%s\n", graph_result.status().ToString().c_str());
    return 2;
  }
  graph::Graph g = std::move(graph_result).ValueOrDie();
  if (!g.has_features()) {
    std::fprintf(stderr, "input graph has no node features\n");
    return 2;
  }
  std::printf("loaded %s\n", g.DebugString().c_str());

  core::AdamGnnConfig config;
  config.in_dim = g.feature_dim();
  config.hidden_dim = static_cast<size_t>(
      cli::IntFlagOr(flags, "hidden", cli::kDefaultHidden));
  config.num_levels = static_cast<int>(
      cli::IntFlagOr(flags, "levels", cli::kDefaultLevels));

  train::TrainConfig tc;
  tc.max_epochs = static_cast<int>(cli::IntFlagOr(flags, "epochs", "200"));
  tc.patience = tc.max_epochs / 3 + 5;
  tc.learning_rate = cli::DoubleFlagOr(flags, "lr", "0.01");
  tc.seed = static_cast<uint64_t>(
      cli::IntFlagOr(flags, "seed", cli::kDefaultSeed));
  tc.checkpoint_path = FlagOr(flags, "checkpoint", "");
  tc.checkpoint_every =
      static_cast<int>(cli::IntFlagOr(flags, "checkpoint-every", "10"));
  tc.resume = flags.count("resume") > 0;
  if (tc.resume && tc.checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint=PATH\n");
    return 2;
  }
  if (tc.checkpoint_every < 0) {
    std::fprintf(stderr, "--checkpoint-every must be >= 0\n");
    return 2;
  }

  util::Rng rng(tc.seed);
  int rc = 2;
  if (task == "nc") {
    rc = RunNodeClassification(g, flags, config, tc, &rng);
  } else if (task == "lp") {
    rc = RunLinkPrediction(g, flags, config, tc, &rng);
  } else {
    std::fprintf(stderr, "unknown --task=%s (expected nc or lp)\n",
                 task.c_str());
    return 2;
  }
  cli::DumpMetricsOrDie(flags);
  return rc;
}
