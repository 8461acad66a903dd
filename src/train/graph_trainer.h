// Graph-classification training: mini-batches of graphs merged into
// block-diagonal batches (80/10/10 split over graphs, as in the paper).

#ifndef ADAMGNN_TRAIN_GRAPH_TRAINER_H_
#define ADAMGNN_TRAIN_GRAPH_TRAINER_H_

#include <cstddef>

#include "data/graph_datasets.h"
#include "data/splits.h"
#include "train/interfaces.h"
#include "train/loop.h"
#include "util/status.h"

namespace adamgnn::train {

struct GraphTaskResult : TaskResult {
  double train_accuracy = 0;
  double val_accuracy = 0;
  double test_accuracy = 0;
};

/// Trains `model` on dataset.graphs indexed by `split`.
util::Result<GraphTaskResult> TrainGraphClassifier(
    GraphModel* model, const data::GraphDataset& dataset,
    const data::IndexSplit& split, const TrainConfig& config,
    size_t batch_size = 32);

}  // namespace adamgnn::train

#endif  // ADAMGNN_TRAIN_GRAPH_TRAINER_H_
