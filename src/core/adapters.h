// Adapters exposing core::AdamGnn through the task interfaces the trainers
// and benches consume. Evaluate runs Forward(training=false) under
// autograd::NoGradGuard: the same logits, with no tape and no RNG draw.

#ifndef ADAMGNN_CORE_ADAPTERS_H_
#define ADAMGNN_CORE_ADAPTERS_H_

#include <memory>
#include <vector>

#include "core/adamgnn_model.h"
#include "core/graph_plan.h"
#include "nn/linear.h"
#include "train/interfaces.h"

namespace adamgnn::core {

/// Fingerprint-keyed single-plan cache shared by the single-graph adapters:
/// trainers call Forward/Evaluate with the same graph every epoch, so the
/// plan (and its λ-hop ego enumeration) is built exactly once per graph.
/// Each call rehashes the graph (one word-wise pass over its CSR and
/// features), so the key is the graph's content, not its address.
class PlanCache {
 public:
  explicit PlanCache(int lambda) : lambda_(lambda) {}
  const std::shared_ptr<const GraphPlan>& For(const graph::Graph& g);

 private:
  int lambda_;
  std::shared_ptr<const GraphPlan> plan_;
};

class AdamGnnNodeModel final : public train::NodeModel {
 public:
  AdamGnnNodeModel(const AdamGnnConfig& config, util::Rng* rng);

  Out Forward(const graph::Graph& g, bool training, util::Rng* rng) override;
  /// Eval-mode forward without aux losses; see the file comment.
  Out Evaluate(const graph::Graph& g, util::Rng* rng) override;
  std::vector<autograd::Variable> Parameters() const override;

  /// The most recent forward's flyback attention (for Figure 2).
  const tensor::Matrix& last_attention() const { return last_attention_; }
  /// The most recent forward's per-level pooling stats (for Figure 3).
  const std::vector<LevelInfo>& last_levels() const { return last_levels_; }

 private:
  AdamGnn model_;
  PlanCache plans_;
  tensor::Matrix last_attention_;
  std::vector<LevelInfo> last_levels_;
};

class AdamGnnEmbeddingModel final : public train::EmbeddingModel {
 public:
  AdamGnnEmbeddingModel(const AdamGnnConfig& config, util::Rng* rng);

  Out Forward(const graph::Graph& g, bool training, util::Rng* rng) override;
  /// Projected eval embeddings; see the file comment.
  Out Evaluate(const graph::Graph& g, util::Rng* rng) override;
  std::vector<autograd::Variable> Parameters() const override;

 private:
  AdamGnn model_;
  PlanCache plans_;
  // Linear decoder projection: AdamGNN's H is elementwise non-negative
  // (ReLU outputs mixed through non-negative assignment weights), which a
  // dot-product decoder cannot rank well; the projection restores a full
  // sign range, the same role the final linear layer plays in the flat
  // baselines.
  nn::Linear projection_;
};

class AdamGnnGraphModel final : public train::GraphModel {
 public:
  AdamGnnGraphModel(const AdamGnnConfig& config, int num_graph_classes,
                    util::Rng* rng);

  Out Forward(const graph::GraphBatch& batch, bool training,
              util::Rng* rng) override;
  /// Eval-mode graph logits; see the file comment. Batches are ephemeral,
  /// so each call builds a throwaway plan (no fingerprint cache).
  Out Evaluate(const graph::GraphBatch& batch, util::Rng* rng) override;
  std::vector<autograd::Variable> Parameters() const override;

 private:
  AdamGnn model_;
};

}  // namespace adamgnn::core

#endif  // ADAMGNN_CORE_ADAPTERS_H_
