// Task-facing model interfaces and the shared training configuration. Every
// architecture in this library (the flat GNN baselines, the pooling
// baselines, and AdamGNN) adapts to one or more of these, so the trainers
// and benches can treat them uniformly.

#ifndef ADAMGNN_TRAIN_INTERFACES_H_
#define ADAMGNN_TRAIN_INTERFACES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "graph/batch.h"
#include "graph/graph.h"
#include "util/random.h"

namespace adamgnn::train {

/// Configuration shared by all three task trainers (node, link, graph).
struct TrainConfig {
  int max_epochs = 200;
  double learning_rate = 0.01;
  double weight_decay = 5e-4;
  /// Stop after this many epochs without validation improvement.
  int patience = 30;
  double clip_norm = 5.0;
  uint64_t seed = 1;
  bool verbose = false;

  // --- crash safety ----------------------------------------------------
  /// Resumable checkpoint file (parameters + Adam moments + RNG + epoch
  /// bookkeeping, crash-safe atomic writes). Empty disables checkpointing.
  std::string checkpoint_path;
  /// Additionally save every N completed epochs (0 = only at the end of
  /// the run). Only meaningful with a checkpoint_path.
  int checkpoint_every = 0;
  /// Resume from checkpoint_path when the file exists; a missing file is a
  /// normal cold start. Resuming reproduces the uninterrupted run bitwise
  /// at the same seed and thread count.
  bool resume = false;

  // --- divergence recovery ---------------------------------------------
  /// When the loss or gradient norm goes non-finite, roll parameters and
  /// optimizer moments back to the last finite epoch, scale the learning
  /// rate by lr_backoff, and continue (the incident is recorded in the
  /// task result). After max_lr_retries rollbacks the run fails instead.
  bool divergence_guard = true;
  double lr_backoff = 0.5;
  int max_lr_retries = 3;
};

/// A model that scores nodes of a single graph (node classification).
class NodeModel {
 public:
  virtual ~NodeModel() = default;

  struct Out {
    autograd::Variable logits;    // (n x num_classes)
    autograd::Variable aux_loss;  // optional extra loss term (1x1)
  };
  virtual Out Forward(const graph::Graph& g, bool training,
                      util::Rng* rng) = 0;

  /// Eval-mode forward, used for every validation/test pass. The default
  /// wraps Forward(training=false) in a NoGradGuard so no tape is recorded;
  /// AdamGNN overrides it to also skip the auxiliary losses.
  /// Evaluation only consumes logit values, so overrides may leave aux_loss
  /// undefined and ignore `rng`.
  virtual Out Evaluate(const graph::Graph& g, util::Rng* rng) {
    autograd::NoGradGuard no_grad;
    return Forward(g, /*training=*/false, rng);
  }

  virtual std::vector<autograd::Variable> Parameters() const = 0;
};

/// A model that embeds nodes of a single graph (link prediction scores are
/// dot products of embeddings).
class EmbeddingModel {
 public:
  virtual ~EmbeddingModel() = default;

  struct Out {
    autograd::Variable embeddings;  // (n x d)
    autograd::Variable aux_loss;    // optional (1x1)
  };
  virtual Out Forward(const graph::Graph& g, bool training,
                      util::Rng* rng) = 0;

  /// Eval-mode forward; see NodeModel::Evaluate for the contract.
  virtual Out Evaluate(const graph::Graph& g, util::Rng* rng) {
    autograd::NoGradGuard no_grad;
    return Forward(g, /*training=*/false, rng);
  }

  virtual std::vector<autograd::Variable> Parameters() const = 0;
};

/// A model that classifies whole graphs from a batched block-diagonal graph.
class GraphModel {
 public:
  virtual ~GraphModel() = default;

  struct Out {
    autograd::Variable logits;    // (num_graphs x num_classes)
    autograd::Variable aux_loss;  // optional (1x1)
  };
  virtual Out Forward(const graph::GraphBatch& batch, bool training,
                      util::Rng* rng) = 0;

  /// Eval-mode forward; see NodeModel::Evaluate for the contract.
  virtual Out Evaluate(const graph::GraphBatch& batch, util::Rng* rng) {
    autograd::NoGradGuard no_grad;
    return Forward(batch, /*training=*/false, rng);
  }

  virtual std::vector<autograd::Variable> Parameters() const = 0;
};

}  // namespace adamgnn::train

#endif  // ADAMGNN_TRAIN_INTERFACES_H_
