#include "core/adapters.h"

#include <utility>

#include "util/logging.h"

namespace adamgnn::core {

const std::shared_ptr<const GraphPlan>& PlanCache::For(const graph::Graph& g) {
  const uint64_t fp = GraphPlan::Fingerprint(g);
  if (plan_ == nullptr || plan_->fingerprint() != fp) {
    plan_ = GraphPlan::Build(g, lambda_);
  }
  return plan_;
}

AdamGnnNodeModel::AdamGnnNodeModel(const AdamGnnConfig& config,
                                   util::Rng* rng)
    : model_(config, rng), plans_(config.lambda) {
  ADAMGNN_CHECK_GT(config.num_classes, 0u);
}

train::NodeModel::Out AdamGnnNodeModel::Forward(const graph::Graph& g,
                                                bool training,
                                                util::Rng* rng) {
  AdamGnn::Output out = model_.Forward(g, *plans_.For(g), training, rng);
  last_attention_ = out.flyback_attention;
  last_levels_ = out.levels;
  return {out.logits, out.aux_loss};
}

train::NodeModel::Out AdamGnnNodeModel::Evaluate(const graph::Graph& g,
                                                 util::Rng* rng) {
  autograd::NoGradGuard no_grad;
  AdamGnn::Output out =
      model_.Forward(g, *plans_.For(g), /*training=*/false, rng);
  last_attention_ = std::move(out.flyback_attention);
  last_levels_ = std::move(out.levels);
  return {out.logits, autograd::Variable()};
}

std::vector<autograd::Variable> AdamGnnNodeModel::Parameters() const {
  return model_.Parameters();
}

AdamGnnEmbeddingModel::AdamGnnEmbeddingModel(const AdamGnnConfig& config,
                                             util::Rng* rng)
    : model_(config, rng),
      plans_(config.lambda),
      projection_(config.hidden_dim, config.hidden_dim, /*use_bias=*/false,
                  rng) {}

train::EmbeddingModel::Out AdamGnnEmbeddingModel::Forward(
    const graph::Graph& g, bool training, util::Rng* rng) {
  AdamGnn::Output out = model_.Forward(g, *plans_.For(g), training, rng);
  // For link prediction L_task = L_R (the trainer's BCE on edges), so the
  // aux term carries γ·L_KL + δ·L_R as configured.
  return {projection_.Forward(out.embeddings), out.aux_loss};
}

train::EmbeddingModel::Out AdamGnnEmbeddingModel::Evaluate(
    const graph::Graph& g, util::Rng* rng) {
  autograd::NoGradGuard no_grad;
  AdamGnn::Output out =
      model_.Forward(g, *plans_.For(g), /*training=*/false, rng);
  return {projection_.Forward(out.embeddings), autograd::Variable()};
}

std::vector<autograd::Variable> AdamGnnEmbeddingModel::Parameters() const {
  std::vector<autograd::Variable> params = model_.Parameters();
  for (auto& p : projection_.Parameters()) params.push_back(p);
  return params;
}

AdamGnnGraphModel::AdamGnnGraphModel(const AdamGnnConfig& config,
                                     int num_graph_classes, util::Rng* rng)
    : model_([&config, num_graph_classes] {
        AdamGnnConfig c = config;
        c.num_classes = static_cast<size_t>(num_graph_classes);
        return c;
      }(), rng) {
  ADAMGNN_CHECK_GT(num_graph_classes, 0);
}

train::GraphModel::Out AdamGnnGraphModel::Forward(
    const graph::GraphBatch& batch, bool training, util::Rng* rng) {
  AdamGnn::Output out = model_.Forward(batch.merged, training, rng);
  autograd::Variable logits =
      model_.GraphLogits(out, batch.node_to_graph, batch.num_graphs());
  return {logits, out.aux_loss};
}

train::GraphModel::Out AdamGnnGraphModel::Evaluate(
    const graph::GraphBatch& batch, util::Rng* rng) {
  autograd::NoGradGuard no_grad;
  AdamGnn::Output out = model_.Forward(
      batch.merged, *GraphPlan::Build(batch.merged, model_.config().lambda),
      /*training=*/false, rng);
  return {model_.GraphLogits(out, batch.node_to_graph, batch.num_graphs()),
          autograd::Variable()};
}

std::vector<autograd::Variable> AdamGnnGraphModel::Parameters() const {
  return model_.Parameters();
}

}  // namespace adamgnn::core
