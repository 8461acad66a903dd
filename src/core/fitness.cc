#include "core/fitness.h"

#include <deque>
#include <utility>

#include "autograd/loss_ops.h"
#include "autograd/ops.h"
#include "autograd/segment_ops.h"
#include "core/graph_plan.h"
#include "nn/init.h"
#include "nn/pair_logits.h"
#include "util/cancel.h"
#include "util/logging.h"

namespace adamgnn::core {

std::vector<std::vector<size_t>> AdjacencyLists(const graph::Graph& g) {
  std::vector<std::vector<size_t>> adj(g.num_nodes());
  for (graph::NodeId v = 0; static_cast<size_t>(v) < g.num_nodes(); ++v) {
    for (graph::NodeId u : g.Neighbors(v)) {
      adj[static_cast<size_t>(v)].push_back(static_cast<size_t>(u));
    }
  }
  return adj;
}

EgoPairs EgoPairs::Build(const std::vector<std::vector<size_t>>& adjacency,
                         int lambda) {
  ADAMGNN_CHECK_GE(lambda, 1);
  EgoPairs pairs;
  pairs.num_nodes = adjacency.size();
  const size_t n = adjacency.size();
  std::vector<int> visited(n, 0);
  std::vector<size_t> seen;
  for (size_t ego = 0; ego < n; ++ego) {
    // Strided cancellation poll: an expired serving deadline stops the λ-hop
    // enumeration here; the caller (GraphPlan::TryBuild or the forward's
    // level rebuild) checks the token right after and discards the partial
    // pair list, so training and uncancelled runs are untouched.
    if ((ego & 255) == 0 && util::CancelRequested()) break;
    // Bounded BFS identical to graph::EgoNetwork but over raw lists.
    seen.clear();
    std::deque<std::pair<size_t, int>> queue;
    queue.emplace_back(ego, 0);
    visited[ego] = 1;
    seen.push_back(ego);
    while (!queue.empty()) {
      auto [v, depth] = queue.front();
      queue.pop_front();
      if (depth == lambda) continue;
      for (size_t w : adjacency[v]) {
        if (visited[w]) continue;
        visited[w] = 1;
        seen.push_back(w);
        pairs.ego.push_back(ego);
        pairs.member.push_back(w);
        queue.emplace_back(w, depth + 1);
      }
    }
    for (size_t v : seen) visited[v] = 0;
  }
  return pairs;
}

FitnessScorer::FitnessScorer(size_t dim, util::Rng* rng, FitnessMode mode)
    : mode_(mode) {
  weight_ = autograd::Variable::Parameter(nn::GlorotUniform(dim, dim, rng));
  attention_ =
      autograd::Variable::Parameter(nn::GlorotUniform(2 * dim, 1, rng));
}

namespace {

// Shared body of the two Score overloads: `dot_pairs` is the (member, ego)
// gather list aligned with `pairs`.
FitnessScorer::Scores ScoreImpl(
    const EgoPairs& pairs,
    std::vector<std::pair<size_t, size_t>> dot_pairs,
    const autograd::Variable& h, const autograd::Variable& weight,
    const autograd::Variable& attention, FitnessMode mode) {
  ADAMGNN_CHECK_GT(pairs.num_pairs(), 0u);
  // f^s: attention logits normalized within each ego-network. With
  // a = [a_top; a_bot], aᵀ(W h_j ‖ W h_i) = (h·(W·a_top))_j + (h·(W·a_bot))_i,
  // so one (n x d)·(d x 2) product replaces the per-pair feature gathers.
  autograd::Variable logits = nn::PairLogits(
      h, autograd::MatMul(weight, nn::AttentionHalves(attention)),
      pairs.member, pairs.ego);
  std::vector<size_t> segments = pairs.ego;
  autograd::Variable f_s = autograd::SegmentSoftmax(
      logits, std::move(segments), pairs.num_nodes);

  // f^c: linearity between member and ego representations.
  autograd::Variable f_c = autograd::Sigmoid(
      autograd::EdgeDotProduct(h, std::move(dot_pairs)));

  FitnessScorer::Scores scores;
  switch (mode) {
    case FitnessMode::kBoth:
      scores.pair_phi = autograd::CwiseMul(f_s, f_c);
      break;
    case FitnessMode::kAttentionOnly:
      scores.pair_phi = f_s;
      break;
    case FitnessMode::kSigmoidOnly:
      scores.pair_phi = f_c;
      break;
  }
  scores.ego_phi = autograd::SegmentMean(scores.pair_phi, pairs.ego,
                                         pairs.num_nodes);
  return scores;
}

}  // namespace

FitnessScorer::Scores FitnessScorer::Score(const EgoPairs& pairs,
                                           const autograd::Variable& h) const {
  std::vector<std::pair<size_t, size_t>> dot_pairs(pairs.num_pairs());
  for (size_t p = 0; p < pairs.num_pairs(); ++p) {
    dot_pairs[p] = {pairs.member[p], pairs.ego[p]};
  }
  return ScoreImpl(pairs, std::move(dot_pairs), h, weight_, attention_, mode_);
}

FitnessScorer::Scores FitnessScorer::Score(const LevelTopology& topo,
                                           const autograd::Variable& h) const {
  return ScoreImpl(topo.pairs, topo.dot_pairs, h, weight_, attention_, mode_);
}

std::vector<autograd::Variable> FitnessScorer::Parameters() const {
  return {weight_, attention_};
}

}  // namespace adamgnn::core
