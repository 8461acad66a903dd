// Full-batch node-classification training with validation-based early
// stopping, following the paper's protocol (80/10/10 labelled nodes).

#ifndef ADAMGNN_TRAIN_NODE_TRAINER_H_
#define ADAMGNN_TRAIN_NODE_TRAINER_H_

#include "data/splits.h"
#include "graph/graph.h"
#include "train/interfaces.h"
#include "train/loop.h"
#include "util/status.h"

namespace adamgnn::train {

// TrainConfig (shared by all task trainers) lives in train/interfaces.h.

struct NodeTaskResult : TaskResult {
  double train_accuracy = 0;
  double val_accuracy = 0;
  /// Test accuracy at the best-validation epoch.
  double test_accuracy = 0;
};

/// Trains `model` on g's labels. The graph must carry labels and features.
util::Result<NodeTaskResult> TrainNodeClassifier(NodeModel* model,
                                                 const graph::Graph& g,
                                                 const data::IndexSplit& split,
                                                 const TrainConfig& config);

}  // namespace adamgnn::train

#endif  // ADAMGNN_TRAIN_NODE_TRAINER_H_
