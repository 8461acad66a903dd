// Link-prediction training: embeddings are trained with BCE over
// training positives and sampled negatives (for AdamGNN this *is* L_R, so
// L = L_R + γ L_KL as in the paper), evaluated with ROC-AUC.

#ifndef ADAMGNN_TRAIN_LINK_TRAINER_H_
#define ADAMGNN_TRAIN_LINK_TRAINER_H_

#include "data/splits.h"
#include "train/interfaces.h"
#include "train/loop.h"
#include "util/status.h"

namespace adamgnn::train {

struct LinkTaskResult : TaskResult {
  double val_auc = 0;
  /// Test AUC at the best-validation epoch.
  double test_auc = 0;
};

/// Trains on split.train_graph (val/test edges held out of message passing).
util::Result<LinkTaskResult> TrainLinkPredictor(EmbeddingModel* model,
                                                const data::LinkSplit& split,
                                                const TrainConfig& config);

}  // namespace adamgnn::train

#endif  // ADAMGNN_TRAIN_LINK_TRAINER_H_
