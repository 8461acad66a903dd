#include "core/graph_plan.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/cancel.h"
#include "util/hash.h"
#include "util/logging.h"

namespace adamgnn::core {

LevelTopology LevelTopology::FromAdjacency(
    std::vector<std::vector<size_t>> adjacency, int lambda) {
  LevelTopology topo;
  topo.pairs = EgoPairs::Build(adjacency, lambda);
  topo.adjacency = std::move(adjacency);
  topo.dot_pairs.resize(topo.pairs.num_pairs());
  for (size_t p = 0; p < topo.pairs.num_pairs(); ++p) {
    topo.dot_pairs[p] = {topo.pairs.member[p], topo.pairs.ego[p]};
  }
  return topo;
}

std::shared_ptr<const GraphPlan> GraphPlan::Build(const graph::Graph& g,
                                                  int lambda) {
  ADAMGNN_CHECK_GE(lambda, 1);
  util::Result<std::shared_ptr<const GraphPlan>> plan = TryBuild(g, lambda);
  // Without an ambient cancellation token TryBuild cannot fail for a valid
  // lambda, so the training path keeps its infallible signature.
  plan.status().CheckOK();
  return std::move(plan).ValueOrDie();
}

util::Result<std::shared_ptr<const GraphPlan>> GraphPlan::TryBuild(
    const graph::Graph& g, int lambda) {
  // A token that fires mid-hash truncates the digest; the three-argument
  // TryBuild polls before its first phase, so the plan carrying it is
  // discarded.
  return TryBuild(g, lambda, Fingerprint(g));
}

util::Result<std::shared_ptr<const GraphPlan>> GraphPlan::TryBuild(
    const graph::Graph& g, int lambda, uint64_t fingerprint) {
  if (lambda < 1) {
    return util::Status::InvalidArgument("lambda must be >= 1, got " +
                                         std::to_string(lambda));
  }
  auto plan = std::shared_ptr<GraphPlan>(new GraphPlan());
  plan->shape_ = GraphShape::Of(g);
  plan->lambda_ = lambda;
  plan->fingerprint_ = fingerprint;
  // Cooperative cancellation between (and, for the per-node loops, inside)
  // the construction phases: each phase's partial output is discarded when
  // the ambient token fires, so the checks never change what a completed
  // plan contains.
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
  plan->norm_adj_ = std::make_shared<const graph::SparseMatrix>(
      graph::SparseMatrix::NormalizedAdjacency(g));
  // Every training epoch's backward pass multiplies by Âᵀ; building the
  // transposed view here — once per plan, not once per epoch — keeps the
  // gather SpMMᵀ kernel allocation-free on the hot path.
  plan->norm_adj_->PrewarmTranspose();
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
  plan->adjacency_ = graph::SparseMatrix::Adjacency(g);
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
  plan->level0_ = LevelTopology::FromAdjacency(AdjacencyLists(g), lambda);
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
  if (g.has_features()) {
    plan->feature_constant_ = autograd::Variable::Constant(g.features());
  }
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
  return std::static_pointer_cast<const GraphPlan>(std::move(plan));
}

uint64_t GraphPlan::Fingerprint(const graph::Graph& g) {
  // One word stream: the node count, then each CSR row length-prefixed by
  // its degree (neighbors sorted by construction) so moving an edge between
  // rows changes the stream, then the feature width and bits. Weights are
  // folded in because Â and A are built from them, features because plans
  // hoist a copy of them: a plan must be dropped when the topology, the
  // weights or the features change.
  util::WordHash h;
  h.Add(g.num_nodes());
  for (graph::NodeId v = 0; static_cast<size_t>(v) < g.num_nodes(); ++v) {
    // Strided cancellation poll: a fired token makes the caller discard the
    // digest, so the early exit can never leak a truncated fingerprint.
    if ((v & 1023) == 0 && util::CancelRequested()) return h.Digest();
    const auto neighbors = g.Neighbors(v);
    h.Add(neighbors.size());
    h.AddWords(neighbors.data(), neighbors.size());
    h.AddWords(g.NeighborWeights(v).data(), neighbors.size());
  }
  if (g.has_features()) {
    const tensor::Matrix& x = g.features();
    h.Add(x.cols());
    constexpr size_t kPollWords = 8192;
    for (size_t i = 0; i < x.size(); i += kPollWords) {
      if (util::CancelRequested()) return h.Digest();
      h.AddWords(x.data() + i, std::min(kPollWords, x.size() - i));
    }
  }
  return h.Digest();
}

}  // namespace adamgnn::core
