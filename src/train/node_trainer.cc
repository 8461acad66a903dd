#include "train/node_trainer.h"

#include "autograd/loss_ops.h"
#include "autograd/ops.h"
#include "train/metrics.h"

namespace adamgnn::train {

util::Result<NodeTaskResult> TrainNodeClassifier(
    NodeModel* model, const graph::Graph& g, const data::IndexSplit& split,
    const TrainConfig& config) {
  if (model == nullptr) {
    return util::Status::InvalidArgument("null model");
  }
  if (!g.has_labels() || !g.has_features()) {
    return util::Status::InvalidArgument(
        "node classification needs labels and features");
  }
  if (split.train.empty() || split.val.empty() || split.test.empty()) {
    return util::Status::InvalidArgument("empty split");
  }

  EpochTask task;
  task.train = [&](Epoch* epoch) {
    return epoch->Update([&] {
      NodeModel::Out out = model->Forward(g, /*training=*/true, epoch->rng());
      autograd::Variable loss =
          autograd::SoftmaxCrossEntropy(out.logits, g.labels(), split.train);
      if (out.aux_loss.defined()) loss = autograd::Add(loss, out.aux_loss);
      return loss;
    });
  };
  task.evaluate = [&](Epoch* epoch) {
    // Evaluation pass without dropout, tape-free where the model supports it.
    NodeModel::Out eval = model->Evaluate(g, epoch->rng());
    const tensor::Matrix& logits = eval.logits.value();
    if (epoch->Validate(Accuracy(logits, g.labels(), split.val))) {
      epoch->RecordBest(Accuracy(logits, g.labels(), split.train),
                        Accuracy(logits, g.labels(), split.test));
    }
    return util::Status::OK();
  };

  NodeTaskResult result;
  ADAMGNN_ASSIGN_OR_RETURN(
      BestMetrics best,
      RunTrainingLoop(model->Parameters(), config, task, &result));
  result.train_accuracy = best.train;
  result.val_accuracy = best.val;
  result.test_accuracy = best.test;
  return result;
}

}  // namespace adamgnn::train
