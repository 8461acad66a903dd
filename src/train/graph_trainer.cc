#include "train/graph_trainer.h"

#include <algorithm>

#include "autograd/loss_ops.h"
#include "autograd/ops.h"

namespace adamgnn::train {

namespace {

// Evaluation accuracy over the graphs listed by `indices`.
util::Result<double> EvalAccuracy(GraphModel* model,
                                  const data::GraphDataset& dataset,
                                  const std::vector<size_t>& indices,
                                  size_t batch_size, util::Rng* rng) {
  size_t correct = 0;
  for (size_t start = 0; start < indices.size(); start += batch_size) {
    std::vector<const graph::Graph*> members;
    for (size_t i = start; i < std::min(start + batch_size, indices.size());
         ++i) {
      members.push_back(&dataset.graphs[indices[i]]);
    }
    ADAMGNN_ASSIGN_OR_RETURN(graph::GraphBatch batch,
                             graph::MakeBatch(members));
    GraphModel::Out out = model->Evaluate(batch, rng);
    std::vector<int> pred = autograd::ArgmaxRows(out.logits.value());
    for (size_t i = 0; i < batch.num_graphs(); ++i) {
      if (pred[i] == batch.graph_labels[i]) ++correct;
    }
  }
  return static_cast<double>(correct) /
         static_cast<double>(indices.size());
}

}  // namespace

util::Result<GraphTaskResult> TrainGraphClassifier(
    GraphModel* model, const data::GraphDataset& dataset,
    const data::IndexSplit& split, const TrainConfig& config,
    size_t batch_size) {
  if (model == nullptr) {
    return util::Status::InvalidArgument("null model");
  }
  if (split.train.empty() || split.val.empty() || split.test.empty()) {
    return util::Status::InvalidArgument("empty split");
  }
  if (batch_size == 0) {
    return util::Status::InvalidArgument("batch_size must be positive");
  }

  EpochTask task;
  task.train = [&](Epoch* epoch) -> util::Status {
    // The epoch's batch order is a pure function of the split and the RNG
    // state at the epoch boundary (not of the previous epoch's order), so
    // a resumed run shuffles identically to an uninterrupted one.
    std::vector<size_t> train_order = split.train;
    epoch->rng()->Shuffle(&train_order);
    // A non-finite loss or gradient in any mini-batch abandons the whole
    // epoch: parameters and moments roll back to the last finite epoch
    // boundary, undoing the batches that already stepped.
    for (size_t start = 0;
         start < train_order.size() && !epoch->recovered();
         start += batch_size) {
      std::vector<const graph::Graph*> members;
      for (size_t i = start;
           i < std::min(start + batch_size, train_order.size()); ++i) {
        members.push_back(&dataset.graphs[train_order[i]]);
      }
      ADAMGNN_ASSIGN_OR_RETURN(graph::GraphBatch batch,
                               graph::MakeBatch(members));
      ADAMGNN_RETURN_NOT_OK(epoch->Update([&] {
        GraphModel::Out out =
            model->Forward(batch, /*training=*/true, epoch->rng());
        std::vector<size_t> all_rows(batch.num_graphs());
        for (size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
        autograd::Variable loss = autograd::SoftmaxCrossEntropy(
            out.logits, batch.graph_labels, all_rows);
        if (out.aux_loss.defined()) loss = autograd::Add(loss, out.aux_loss);
        return loss;
      }));
    }
    return util::Status::OK();
  };
  task.evaluate = [&](Epoch* epoch) -> util::Status {
    ADAMGNN_ASSIGN_OR_RETURN(
        double val_acc,
        EvalAccuracy(model, dataset, split.val, batch_size, epoch->rng()));
    if (epoch->Validate(val_acc)) {
      ADAMGNN_ASSIGN_OR_RETURN(
          double train_acc,
          EvalAccuracy(model, dataset, split.train, batch_size, epoch->rng()));
      ADAMGNN_ASSIGN_OR_RETURN(
          double test_acc,
          EvalAccuracy(model, dataset, split.test, batch_size, epoch->rng()));
      epoch->RecordBest(train_acc, test_acc);
    }
    return util::Status::OK();
  };

  GraphTaskResult result;
  ADAMGNN_ASSIGN_OR_RETURN(
      BestMetrics best,
      RunTrainingLoop(model->Parameters(), config, task, &result));
  result.train_accuracy = best.train;
  result.val_accuracy = best.val;
  result.test_accuracy = best.test;
  return result;
}

}  // namespace adamgnn::train
