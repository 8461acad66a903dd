// Topology-conditioned precomputation for the AdamGNN forward pass. Every
// quantity here depends only on the graph's structure (and λ), never on
// model weights: the normalized adjacency Â, the base adjacency used to
// derive hyper-graph connectivity, the λ-hop ego-network enumeration and
// 1-hop local-max neighborhoods of level 0, and the hoisted feature
// constant. Built once per graph and shared by training and inference, it
// removes the per-forward structure recomputation the monolithic forward
// used to pay on every call.
//
// Invalidation rule: a plan is invalid iff the topology changes (drop the
// plan); weight updates never invalidate it (they invalidate only the
// weight-dependent selection cache in core::InferenceSession).

#ifndef ADAMGNN_CORE_GRAPH_PLAN_H_
#define ADAMGNN_CORE_GRAPH_PLAN_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "core/fitness.h"
#include "graph/graph.h"
#include "graph/sparse_matrix.h"
#include "util/status.h"

namespace adamgnn::core {

/// The structure of one pooling level: λ-hop ego memberships, the 1-hop
/// lists the local-max selection compares over, and the (member, ego) pair
/// list fed to the f^c dot products. Level 0's instance lives in the
/// GraphPlan; deeper levels are derived on the fly because their topology
/// depends on the weight-dependent selections of the level below.
struct LevelTopology {
  EgoPairs pairs;
  std::vector<std::vector<size_t>> adjacency;
  /// (member[p], ego[p]) per pair — the gather list for Eq. 2's f^c.
  std::vector<std::pair<size_t, size_t>> dot_pairs;

  /// Enumerates the level's topology from its 1-hop adjacency lists.
  static LevelTopology FromAdjacency(std::vector<std::vector<size_t>> adjacency,
                                     int lambda);
};

/// The sizes of a graph that the session's fingerprint-keyed result cache
/// stores with each entry and compares on a hit, so a 64-bit key collision
/// can never hand out a result of the wrong shape.
struct GraphShape {
  size_t num_nodes = 0;
  size_t num_edges = 0;
  size_t feature_dim = 0;

  static GraphShape Of(const graph::Graph& g) {
    return {g.num_nodes(), g.num_edges(), g.feature_dim()};
  }
  bool operator==(const GraphShape&) const = default;
};

/// Everything the forward pass needs that is a pure function of (topology,
/// features, λ). Immutable after Build; cheap to share via shared_ptr.
class GraphPlan {
 public:
  static std::shared_ptr<const GraphPlan> Build(const graph::Graph& g,
                                                int lambda);

  /// Cancellable Build for the serving path: polls the ambient
  /// util::CancelToken while hashing the graph, between construction phases
  /// (Â, adjacency, level-0 ego enumeration) and inside the long per-node
  /// loops, so an expired request deadline aborts plan construction in
  /// bounded time with DeadlineExceeded instead of running to completion.
  /// Identical output to Build when the token never fires (the checkpoints
  /// touch no data). Also validates lambda (InvalidArgument for < 1)
  /// instead of aborting.
  static util::Result<std::shared_ptr<const GraphPlan>> TryBuild(
      const graph::Graph& g, int lambda);

  /// TryBuild for a caller that already holds `fingerprint` ==
  /// Fingerprint(g), computed with no token fired: the plan carries it as
  /// its key instead of hashing the graph a second time.
  static util::Result<std::shared_ptr<const GraphPlan>> TryBuild(
      const graph::Graph& g, int lambda, uint64_t fingerprint);

  /// Order-sensitive digest of the plan inputs, as a util::WordHash over:
  /// the node count; each CSR row's degree, neighbor ids and edge weights
  /// (Â and A are weighted); the feature width; and the raw feature bits
  /// (features are folded in because the plan hoists a copy of them). Two
  /// graphs with the same fingerprint are treated as plan-compatible;
  /// callers key plan caches on it so a recycled Graph address can never
  /// alias a stale plan. Polls the ambient token once
  /// per 1024 rows and once per 8192 feature words and returns early when
  /// it fired; a caller must then discard the digest.
  static uint64_t Fingerprint(const graph::Graph& g);

  size_t num_nodes() const { return shape_.num_nodes; }
  const GraphShape& shape() const { return shape_; }
  int lambda() const { return lambda_; }
  uint64_t fingerprint() const { return fingerprint_; }

  /// Â = D̂^{-1/2}(A+I)D̂^{-1/2}, shared with the GCN layers.
  const std::shared_ptr<const graph::SparseMatrix>& norm_adj() const {
    return norm_adj_;
  }
  /// The unnormalized adjacency A, the seed of the A_k = SᵀÂS chain.
  const graph::SparseMatrix& adjacency() const { return adjacency_; }
  const LevelTopology& level0() const { return level0_; }

  /// g.features() wrapped in a Variable once at build time, so forwards
  /// stop re-materializing the feature matrix per call. Undefined when the
  /// graph has no features.
  const autograd::Variable& feature_constant() const {
    return feature_constant_;
  }

 private:
  GraphPlan() = default;

  GraphShape shape_;
  int lambda_ = 1;
  uint64_t fingerprint_ = 0;
  std::shared_ptr<const graph::SparseMatrix> norm_adj_;
  graph::SparseMatrix adjacency_;
  LevelTopology level0_;
  autograd::Variable feature_constant_;
};

}  // namespace adamgnn::core

#endif  // ADAMGNN_CORE_GRAPH_PLAN_H_
