#include "core/hyper_features.h"

#include "autograd/ops.h"
#include "autograd/segment_ops.h"
#include "nn/init.h"
#include "nn/pair_logits.h"
#include "util/logging.h"

namespace adamgnn::core {

HyperFeatureInit::HyperFeatureInit(size_t dim, util::Rng* rng) {
  weight_ = autograd::Variable::Parameter(nn::GlorotUniform(dim, dim, rng));
  attention_ =
      autograd::Variable::Parameter(nn::GlorotUniform(2 * dim, 1, rng));
}

autograd::Variable HyperFeatureInit::Initialise(
    const Selection& selection, const Assignment& assignment,
    const FitnessScorer::Scores& scores,
    const autograd::Variable& h_prev) const {
  const size_t num_egos = selection.selected_egos.size();

  // Ego base features H_{k-1}(i).
  autograd::Variable ego_feats =
      num_egos > 0
          ? autograd::GatherRows(h_prev, selection.selected_egos)
          : autograd::Variable();

  if (num_egos > 0 && !assignment.kept_pair_indices.empty()) {
    // Member contributions, attention-weighted per selected ego-network.
    autograd::Variable phi =
        autograd::GatherRows(scores.pair_phi, assignment.kept_pair_indices);

    // With a = [a_top; a_bot], the logit's linear part
    // aᵀ(W(φ_ij · h_j) ‖ h_i) = φ_ij·(h·(W·a_top))_j + (h·a_bot)_i, so one
    // (n x d)·(d x 2) product replaces the per-pair gathers and GEMM.
    autograd::Variable halves = nn::AttentionHalves(attention_);
    autograd::Variable logits = nn::PairLogits(
        h_prev,
        autograd::ConcatCols(
            autograd::MatMul(weight_, autograd::SliceCols(halves, 0, 1)),
            autograd::SliceCols(halves, 1, 1)),
        assignment.member_rows, assignment.ego_rows, phi);
    autograd::Variable h_member =
        autograd::GatherRows(h_prev, assignment.member_rows);
    autograd::Variable alpha =
        autograd::SegmentSoftmax(logits, assignment.init_segments, num_egos);
    autograd::Variable weighted = autograd::MulColBroadcast(h_member, alpha);
    autograd::Variable member_sum =
        autograd::SegmentSum(weighted, assignment.init_segments, num_egos);
    ego_feats = autograd::Add(ego_feats, member_sum);
  }

  if (selection.retained_nodes.empty()) {
    ADAMGNN_CHECK_GT(num_egos, 0u);
    return ego_feats;
  }
  autograd::Variable retained_feats =
      autograd::GatherRows(h_prev, selection.retained_nodes);
  if (num_egos == 0) return retained_feats;
  return autograd::ConcatRows(ego_feats, retained_feats);
}

std::vector<autograd::Variable> HyperFeatureInit::Parameters() const {
  return {weight_, attention_};
}

}  // namespace adamgnn::core
