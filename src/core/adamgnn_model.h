// The AdamGNN model (Algorithm 1): GCN primary representations, K levels of
// adaptive ego-network pooling, unpooling of every level's semantics back to
// the original nodes, flyback attention, and the auxiliary training losses.
// One model serves all three tasks: node classification (node logits), link
// prediction (embeddings + dot-product scoring), and graph classification
// (readout + graph logits).

#ifndef ADAMGNN_CORE_ADAMGNN_MODEL_H_
#define ADAMGNN_CORE_ADAMGNN_MODEL_H_

#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "core/assignment.h"
#include "core/ego_selection.h"
#include "core/fitness.h"
#include "core/flyback.h"
#include "core/graph_plan.h"
#include "core/hyper_features.h"
#include "graph/graph.h"
#include "nn/dropout.h"
#include "nn/gcn_conv.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "util/random.h"
#include "util/status.h"

namespace adamgnn::core {

struct AdamGnnConfig {
  size_t in_dim = 0;
  size_t hidden_dim = 64;
  /// 0 disables the node classification head (link-prediction mode).
  size_t num_classes = 0;
  /// K, the number of granularity levels (paper Appendix A.4: 2–5).
  int num_levels = 3;
  /// λ, the ego-network radius.
  int lambda = 1;
  /// Loss mixing weights (paper: γ = 0.1, δ = 0.01).
  double gamma = 0.1;
  double delta = 0.01;
  /// Ablation toggles (Tables 3 and 5).
  bool use_flyback = true;
  bool use_kl_loss = true;
  bool use_recon_loss = true;
  /// Fitness-score composition (Eq. 2); kBoth is the paper's model.
  FitnessMode fitness_mode = FitnessMode::kBoth;
  /// L_KL costs O(n · #egos); when level-1 selects more egos than this, a
  /// deterministic stride subsample of egos anchors the loss (a standard
  /// scalability measure for center-based self-training losses).
  size_t max_kl_egos = 128;
  double dropout = 0.1;
};

/// Pooling statistics of one constructed level, for diagnostics and the
/// coverage experiment (Figure 3).
struct LevelInfo {
  size_t num_prev_nodes = 0;
  size_t num_hyper_nodes = 0;
  size_t num_selected_egos = 0;
  size_t num_retained = 0;
  size_t num_covered = 0;
  /// λ-hop (ego, member) pairs scored at this level.
  size_t num_pairs = 0;
  /// nnz of the unnormalised hyper-graph A_k = S_kᵀ Â_{k-1} S_k.
  size_t adjacency_nnz = 0;
};

class AdamGnn : public nn::Module {
 public:
  AdamGnn(const AdamGnnConfig& config, util::Rng* rng);

  struct Output {
    /// Final node representations H (n x hidden).
    autograd::Variable embeddings;
    /// Node-classification logits (n x num_classes); undefined when the
    /// config has no head.
    autograd::Variable logits;
    /// γ·L_KL + δ·L_R (1x1); undefined when both are disabled.
    autograd::Variable aux_loss;
    /// Flyback β (n x K_effective); empty when flyback is off.
    tensor::Matrix flyback_attention;
    /// Per-level pooling statistics (may be shorter than num_levels when
    /// pooling bottoms out early).
    std::vector<LevelInfo> levels;
    /// Level-1 selected egos (original-graph node ids).
    std::vector<size_t> level1_egos;
    /// For each original node, the level-1 ego whose network absorbed it
    /// (highest-φ owner when several overlap; the ego itself for egos;
    /// -1 for retained nodes). Drives core/explain.h.
    std::vector<int64_t> level1_ego_of_node;
  };

  /// Runs the full pipeline on g. `training` controls dropout and the
  /// auxiliary losses, which only a training forward builds; `rng` drives
  /// dropout masks and negative sampling for L_R. An eval forward draws
  /// nothing from `rng`, which may then be null. Builds a throwaway
  /// GraphPlan internally — amortizing callers should build a plan once and
  /// use the plan-based overload.
  Output Forward(const graph::Graph& g, bool training, util::Rng* rng) const;

  /// Plan-based forward: all topology-only structure (Â, level-0 ego
  /// enumeration, local-max neighborhoods, feature constant) comes
  /// precomputed from `plan`, which must have been built from `g` with this
  /// config's λ. `g` is still consulted for the reconstruction loss edges
  /// when training.
  Output Forward(const graph::Graph& g, const GraphPlan& plan, bool training,
                 util::Rng* rng) const;

  /// Same pipeline, but over externally supplied node features (n x in_dim)
  /// instead of g's — the hook the heterogeneous extension (core/hetero.h)
  /// uses to feed per-type projected features. Gradients flow into
  /// `features` if it requires them.
  Output ForwardFromFeatures(const graph::Graph& g,
                             const autograd::Variable& features,
                             bool training, util::Rng* rng) const;

  /// Plan-based variant of ForwardFromFeatures.
  Output ForwardFromFeatures(const graph::Graph& g, const GraphPlan& plan,
                             const autograd::Variable& features, bool training,
                             util::Rng* rng) const;

  /// Eq. 1 primary representations H_0 = dropout(ReLU(GCN(Â, X))).
  autograd::Variable PrimaryRepresentations(
      const std::shared_ptr<const graph::SparseMatrix>& norm_adj,
      const autograd::Variable& x, bool training, util::Rng* rng) const;

  /// The one multi-grained pipeline every forward runs, training and
  /// serving alike: up to `max_levels` pooling levels (Eqs. 2–3, S_kᵀÂS_k,
  /// level GCN) from the primary representations `h0` over the level-0
  /// `adjacency` / `level0` topology, unpooling, flyback (Eq. 4) and the
  /// node head. Deeper levels enumerate ego-networks at radius `lambda`;
  /// `level0` must have been built at the same radius. Forward passes the
  /// config's λ and K; a degraded serving session passes smaller ones.
  ///
  /// With `loss_graph` set, γ·L_KL + δ·L_R over it land in out->aux_loss,
  /// drawn before the node head's dropout mask (the RNG order training has
  /// always used). Serving passes null: no aux loss and, in eval mode, no
  /// RNG draw at all, so `rng` may then be null.
  ///
  /// Polls util::CheckCancel() at every level phase; a fired token returns
  /// its status with *out partial. Without a token it always returns OK.
  /// Run under autograd::NoGradGuard to skip the tape; values are the same.
  util::Status Cascade(const graph::SparseMatrix& adjacency,
                       const LevelTopology& level0,
                       const autograd::Variable& h0, int lambda,
                       int max_levels, bool training, util::Rng* rng,
                       const graph::Graph* loss_graph, Output* out) const;

  /// Graph-classification logits from a forward output over a batched graph:
  /// readout = [mean ‖ max] of embeddings per member graph, then a linear
  /// head. `node_to_graph` comes from graph::GraphBatch.
  autograd::Variable GraphLogits(const Output& out,
                                 const std::vector<size_t>& node_to_graph,
                                 size_t num_graphs) const;

  std::vector<autograd::Variable> Parameters() const override;

  const AdamGnnConfig& config() const { return config_; }

  /// Null without classification heads (link-prediction mode).
  const nn::Linear* graph_head() const { return graph_head_.get(); }

 private:
  AdamGnnConfig config_;
  std::unique_ptr<nn::GcnConv> input_conv_;
  std::vector<std::unique_ptr<FitnessScorer>> fitness_;
  std::vector<std::unique_ptr<HyperFeatureInit>> hyper_init_;
  std::vector<std::unique_ptr<nn::GcnConv>> level_convs_;
  std::unique_ptr<FlybackAggregator> flyback_;
  std::unique_ptr<nn::Linear> node_head_;
  std::unique_ptr<nn::Linear> graph_head_;
  nn::Dropout dropout_;
};

}  // namespace adamgnn::core

#endif  // ADAMGNN_CORE_ADAMGNN_MODEL_H_
