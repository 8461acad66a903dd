#include "core/adamgnn_model.h"

#include <algorithm>
#include <utility>

#include "autograd/ops.h"
#include "autograd/segment_ops.h"
#include "core/losses.h"
#include "core/unpooling.h"
#include "util/cancel.h"
#include "util/logging.h"

namespace adamgnn::core {

AdamGnn::AdamGnn(const AdamGnnConfig& config, util::Rng* rng)
    : config_(config), dropout_(config.dropout) {
  ADAMGNN_CHECK_GT(config.in_dim, 0u);
  ADAMGNN_CHECK_GT(config.hidden_dim, 0u);
  ADAMGNN_CHECK_GE(config.num_levels, 1);
  ADAMGNN_CHECK_GE(config.lambda, 1);

  input_conv_ =
      std::make_unique<nn::GcnConv>(config.in_dim, config.hidden_dim, rng);
  for (int k = 0; k < config.num_levels; ++k) {
    fitness_.push_back(std::make_unique<FitnessScorer>(
        config.hidden_dim, rng, config.fitness_mode));
    hyper_init_.push_back(
        std::make_unique<HyperFeatureInit>(config.hidden_dim, rng));
    level_convs_.push_back(
        std::make_unique<nn::GcnConv>(config.hidden_dim, config.hidden_dim,
                                      rng));
  }
  flyback_ = std::make_unique<FlybackAggregator>(config.hidden_dim, rng);
  if (config.num_classes > 0) {
    node_head_ = std::make_unique<nn::Linear>(config.hidden_dim,
                                              config.num_classes,
                                              /*use_bias=*/true, rng);
    graph_head_ = std::make_unique<nn::Linear>(2 * config.hidden_dim,
                                               config.num_classes,
                                               /*use_bias=*/true, rng);
  }
}

AdamGnn::Output AdamGnn::Forward(const graph::Graph& g, bool training,
                                 util::Rng* rng) const {
  return Forward(g, *GraphPlan::Build(g, config_.lambda), training, rng);
}

AdamGnn::Output AdamGnn::Forward(const graph::Graph& g, const GraphPlan& plan,
                                 bool training, util::Rng* rng) const {
  ADAMGNN_CHECK_EQ(g.feature_dim(), config_.in_dim);
  ADAMGNN_CHECK(plan.feature_constant().defined());
  return ForwardFromFeatures(g, plan, plan.feature_constant(), training, rng);
}

AdamGnn::Output AdamGnn::ForwardFromFeatures(const graph::Graph& g,
                                             const autograd::Variable& x,
                                             bool training,
                                             util::Rng* rng) const {
  return ForwardFromFeatures(g, *GraphPlan::Build(g, config_.lambda), x,
                             training, rng);
}

AdamGnn::Output AdamGnn::ForwardFromFeatures(const graph::Graph& g,
                                             const GraphPlan& plan,
                                             const autograd::Variable& x,
                                             bool training,
                                             util::Rng* rng) const {
  ADAMGNN_CHECK_EQ(x.rows(), g.num_nodes());
  ADAMGNN_CHECK_EQ(x.cols(), config_.in_dim);
  ADAMGNN_CHECK_EQ(plan.num_nodes(), g.num_nodes());
  ADAMGNN_CHECK_EQ(plan.lambda(), config_.lambda);
  Output out;
  Cascade(plan.adjacency(), plan.level0(),
          PrimaryRepresentations(plan.norm_adj(), x, training, rng),
          config_.lambda, config_.num_levels, training, rng,
          training ? &g : nullptr, &out)
      .CheckOK();
  return out;
}

autograd::Variable AdamGnn::PrimaryRepresentations(
    const std::shared_ptr<const graph::SparseMatrix>& norm_adj,
    const autograd::Variable& x, bool training, util::Rng* rng) const {
  // One GCN layer, as in the paper.
  return dropout_.Apply(autograd::Relu(input_conv_->Forward(norm_adj, x)),
                        rng, training);
}

util::Status AdamGnn::Cascade(const graph::SparseMatrix& adjacency,
                              const LevelTopology& level0,
                              const autograd::Variable& h0, int lambda,
                              int max_levels, bool training, util::Rng* rng,
                              const graph::Graph* loss_graph,
                              Output* out) const {
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
  *out = Output();

  // Multi-grained structure construction, level by level. Level 0's
  // topology comes precomputed; deeper levels depend on the weight-dependent
  // selections below them, so they are derived on the fly.
  const graph::SparseMatrix* cur_adj = &adjacency;
  const LevelTopology* cur_topo = &level0;
  graph::SparseMatrix owned_adj;
  LevelTopology owned_topo;
  autograd::Variable h_prev = h0;
  std::vector<Assignment> assignments;
  std::vector<autograd::Variable> messages;

  const int num_levels = std::min(max_levels, config_.num_levels);
  for (int k = 0; k < num_levels; ++k) {
    const EgoPairs& pairs = cur_topo->pairs;
    if (pairs.num_pairs() == 0) break;  // no edges left to pool over

    FitnessScorer::Scores scores = fitness_[static_cast<size_t>(k)]->Score(
        *cur_topo, h_prev);
    ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
    Selection sel =
        SelectEgoNetworks(scores.ego_phi.value(), cur_topo->adjacency, pairs);
    if (sel.selected_egos.empty()) break;
    if (sel.num_hyper_nodes() >= pairs.num_nodes) break;  // no compression

    Assignment asg = BuildAssignment(pairs, sel, scores);
    autograd::Variable x_k = hyper_init_[static_cast<size_t>(k)]->Initialise(
        sel, asg, scores, h_prev);
    ADAMGNN_RETURN_NOT_OK(util::CheckCancel());

    graph::SparseMatrix next_adj = NextAdjacency(*cur_adj, asg);
    auto norm_next =
        std::make_shared<const graph::SparseMatrix>(next_adj.Normalized());
    // A_k's values are learned, so this operator is rebuilt every forward;
    // prewarming moves its one transposed-view build off the backward pass
    // (where the gather SpMMᵀ would otherwise build it lazily mid-gradient).
    // Without a tape there is no backward pass to serve.
    if (autograd::GradEnabled()) norm_next->PrewarmTranspose();
    autograd::Variable h_k = autograd::Relu(
        level_convs_[static_cast<size_t>(k)]->Forward(norm_next, x_k));
    h_k = dropout_.Apply(h_k, rng, training);
    ADAMGNN_RETURN_NOT_OK(util::CheckCancel());

    LevelInfo info;
    info.num_prev_nodes = pairs.num_nodes;
    info.num_hyper_nodes = sel.num_hyper_nodes();
    info.num_selected_egos = sel.selected_egos.size();
    info.num_retained = sel.retained_nodes.size();
    info.num_covered = 0;
    for (bool c : sel.covered) info.num_covered += c ? 1 : 0;
    info.num_pairs = pairs.num_pairs();
    info.adjacency_nnz = next_adj.nnz();
    out->levels.push_back(info);
    if (k == 0) {
      out->level1_egos = sel.selected_egos;
      // Ownership map for explainability: strongest-φ covering ego.
      out->level1_ego_of_node.assign(pairs.num_nodes, -1);
      std::vector<double> best_phi(pairs.num_nodes, -1.0);
      for (size_t e : sel.selected_egos) {
        out->level1_ego_of_node[e] = static_cast<int64_t>(e);
        best_phi[e] = 2.0;  // an ego always owns itself
      }
      for (size_t idx : asg.kept_pair_indices) {
        const size_t member = pairs.member[idx];
        const size_t ego = pairs.ego[idx];
        const double phi = scores.pair_phi.value()(idx, 0);
        if (phi > best_phi[member]) {
          best_phi[member] = phi;
          out->level1_ego_of_node[member] = static_cast<int64_t>(ego);
        }
      }
    }

    assignments.push_back(std::move(asg));
    messages.push_back(Unpool(assignments, assignments.size(), h_k));
    ADAMGNN_RETURN_NOT_OK(util::CheckCancel());

    if (sel.num_hyper_nodes() < 4) break;  // pooled to (near) a point
    owned_adj = std::move(next_adj);
    cur_adj = &owned_adj;
    owned_topo = LevelTopology::FromAdjacency(
        AdjacencyListsFromSparse(owned_adj), lambda);
    cur_topo = &owned_topo;
    // FromAdjacency's ego enumeration breaks out early once the token
    // fires; discard the truncated topology before the next level uses it.
    ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
    h_prev = h_k;
  }

  // Flyback aggregation (Eq. 4); the ablation keeps H = H_0.
  if (config_.use_flyback) {
    FlybackAggregator::Output fb = flyback_->Aggregate(h0, messages);
    out->embeddings = fb.h;
    out->flyback_attention = std::move(fb.attention);
  } else {
    out->embeddings = h0;
    out->flyback_attention = tensor::Matrix(h0.rows(), 0);
  }

  if (loss_graph != nullptr) {
    // Auxiliary losses (Eq. 7): L = L_task + γ L_KL + δ L_R.
    std::vector<autograd::Variable> aux_terms;
    if (config_.use_kl_loss && !out->level1_egos.empty()) {
      std::vector<size_t> kl_egos = out->level1_egos;
      if (config_.max_kl_egos > 0 && kl_egos.size() > config_.max_kl_egos) {
        std::vector<size_t> sampled;
        const size_t stride = kl_egos.size() / config_.max_kl_egos + 1;
        for (size_t i = 0; i < kl_egos.size(); i += stride) {
          sampled.push_back(kl_egos[i]);
        }
        kl_egos = std::move(sampled);
      }
      aux_terms.push_back(autograd::Scale(
          KlSelfOptimisationLoss(out->embeddings, kl_egos), config_.gamma));
    }
    if (config_.use_recon_loss) {
      aux_terms.push_back(autograd::Scale(
          ReconstructionLoss(out->embeddings, *loss_graph, rng),
          config_.delta));
    }
    if (!aux_terms.empty()) out->aux_loss = autograd::AddN(aux_terms);
  }

  if (node_head_ != nullptr) {
    out->logits =
        node_head_->Forward(dropout_.Apply(out->embeddings, rng, training));
  }
  return util::CheckCancel();
}

autograd::Variable AdamGnn::GraphLogits(
    const Output& out, const std::vector<size_t>& node_to_graph,
    size_t num_graphs) const {
  ADAMGNN_CHECK(graph_head_ != nullptr);
  ADAMGNN_CHECK_EQ(node_to_graph.size(), out.embeddings.rows());
  autograd::Variable mean_read =
      autograd::SegmentMean(out.embeddings, node_to_graph, num_graphs);
  autograd::Variable max_read =
      autograd::SegmentMax(out.embeddings, node_to_graph, num_graphs);
  return graph_head_->Forward(autograd::ConcatCols(mean_read, max_read));
}

std::vector<autograd::Variable> AdamGnn::Parameters() const {
  std::vector<autograd::Variable> params = input_conv_->Parameters();
  auto append = [&params](const std::vector<autograd::Variable>& more) {
    params.insert(params.end(), more.begin(), more.end());
  };
  for (const auto& f : fitness_) append(f->Parameters());
  for (const auto& h : hyper_init_) append(h->Parameters());
  for (const auto& c : level_convs_) append(c->Parameters());
  append(flyback_->Parameters());
  if (node_head_ != nullptr) append(node_head_->Parameters());
  if (graph_head_ != nullptr) append(graph_head_->Parameters());
  return params;
}

}  // namespace adamgnn::core
