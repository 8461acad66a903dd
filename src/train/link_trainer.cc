#include "train/link_trainer.h"

#include <utility>
#include <vector>

#include "autograd/loss_ops.h"
#include "autograd/ops.h"
#include "train/metrics.h"

namespace adamgnn::train {

namespace {

// AUC of dot-product scores for pos vs. neg pairs under embeddings h.
double PairAuc(const tensor::Matrix& h,
               const std::vector<std::pair<size_t, size_t>>& pos,
               const std::vector<std::pair<size_t, size_t>>& neg) {
  std::vector<double> scores;
  std::vector<int> labels;
  auto score = [&h](const std::pair<size_t, size_t>& p) {
    const double* a = h.row(p.first);
    const double* b = h.row(p.second);
    double s = 0.0;
    for (size_t j = 0; j < h.cols(); ++j) s += a[j] * b[j];
    return s;
  };
  for (const auto& p : pos) {
    scores.push_back(score(p));
    labels.push_back(1);
  }
  for (const auto& p : neg) {
    scores.push_back(score(p));
    labels.push_back(0);
  }
  return RocAuc(scores, labels);
}

}  // namespace

util::Result<LinkTaskResult> TrainLinkPredictor(EmbeddingModel* model,
                                                const data::LinkSplit& split,
                                                const TrainConfig& config) {
  if (model == nullptr) {
    return util::Status::InvalidArgument("null model");
  }
  if (split.train_pos.empty() || split.val_pos.empty() ||
      split.test_pos.empty()) {
    return util::Status::InvalidArgument("empty link split");
  }

  // Training targets: positives then negatives.
  std::vector<std::pair<size_t, size_t>> train_pairs = split.train_pos;
  train_pairs.insert(train_pairs.end(), split.train_neg.begin(),
                     split.train_neg.end());
  std::vector<double> targets(split.train_pos.size(), 1.0);
  targets.resize(train_pairs.size(), 0.0);

  EpochTask task;
  task.train = [&](Epoch* epoch) {
    return epoch->Update([&] {
      EmbeddingModel::Out out =
          model->Forward(split.train_graph, /*training=*/true, epoch->rng());
      autograd::Variable logits =
          autograd::EdgeDotProduct(out.embeddings, train_pairs);
      autograd::Variable loss =
          autograd::BinaryCrossEntropyWithLogits(logits, targets);
      if (out.aux_loss.defined()) loss = autograd::Add(loss, out.aux_loss);
      return loss;
    });
  };
  task.evaluate = [&](Epoch* epoch) {
    EmbeddingModel::Out eval = model->Evaluate(split.train_graph, epoch->rng());
    const tensor::Matrix& h = eval.embeddings.value();
    if (epoch->Validate(PairAuc(h, split.val_pos, split.val_neg))) {
      epoch->RecordBest(/*train_metric=*/0.0,
                        PairAuc(h, split.test_pos, split.test_neg));
    }
    return util::Status::OK();
  };

  LinkTaskResult result;
  ADAMGNN_ASSIGN_OR_RETURN(
      BestMetrics best,
      RunTrainingLoop(model->Parameters(), config, task, &result));
  result.val_auc = best.val;
  result.test_auc = best.test;
  return result;
}

}  // namespace adamgnn::train
