// Full-batch node-classification training loop with validation-based early
// stopping, following the paper's protocol (80/10/10 labelled nodes).

#ifndef ADAMGNN_TRAIN_NODE_TRAINER_H_
#define ADAMGNN_TRAIN_NODE_TRAINER_H_

#include <vector>

#include "data/splits.h"
#include "graph/graph.h"
#include "nn/serialize.h"
#include "train/interfaces.h"
#include "util/status.h"

namespace adamgnn::train {

// TrainConfig (shared by all task trainers) lives in train/interfaces.h.

struct NodeTaskResult {
  double train_accuracy = 0;
  double val_accuracy = 0;
  /// Test accuracy at the best-validation epoch.
  double test_accuracy = 0;
  int best_epoch = 0;
  int epochs_run = 0;
  /// Mean wall time of one training epoch (seconds) — Table 4's metric.
  double avg_epoch_seconds = 0;
  /// Per-epoch training loss and wall seconds for the epochs this run
  /// executed, in order. bench_epoch compares `epoch_losses` bitwise across
  /// thread counts and obs on/off to prove those change speed, not math.
  std::vector<double> epoch_losses;
  std::vector<double> epoch_seconds;
  /// Absolute epoch the run resumed from, or -1 on a cold start.
  int resumed_from_epoch = -1;
  /// Divergence rollbacks performed during (or before, if resumed) the run.
  std::vector<nn::RecoveryEvent> recovery_events;
};

/// Trains `model` on g's labels. The graph must carry labels and features.
util::Result<NodeTaskResult> TrainNodeClassifier(NodeModel* model,
                                                 const graph::Graph& g,
                                                 const data::IndexSplit& split,
                                                 const TrainConfig& config);

}  // namespace adamgnn::train

#endif  // ADAMGNN_TRAIN_NODE_TRAINER_H_
