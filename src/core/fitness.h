// Fitness scoring (Eq. 2 of the paper): for each ego v_i and each member v_j
// of its λ-hop ego-network,
//   φ_ij = f^s(v_i, v_j) · f^c(v_i, v_j)
//        = softmax_{j in c_λ(i)}(aᵀ LeakyReLU(W h_j ‖ W h_i)) · σ(h_jᵀ h_i),
// and the ego-network score φ_i = mean_j φ_ij. Fully differentiable: these
// scores become the values of the assignment matrix S_k.

#ifndef ADAMGNN_CORE_FITNESS_H_
#define ADAMGNN_CORE_FITNESS_H_

#include <vector>

#include "autograd/variable.h"
#include "graph/graph.h"
#include "nn/module.h"
#include "util/random.h"

namespace adamgnn::core {

/// The flattened (ego, member) incidence of all λ-hop ego-networks at one
/// granularity level. Pair p states: node member[p] belongs to the
/// ego-network of node ego[p] (ego itself not included as its own member).
struct EgoPairs {
  size_t num_nodes = 0;
  std::vector<size_t> ego;
  std::vector<size_t> member;

  size_t num_pairs() const { return ego.size(); }

  /// Enumerates λ-hop ego-networks over adjacency lists (usable both for the
  /// original graph and for pooled hyper-graphs).
  static EgoPairs Build(const std::vector<std::vector<size_t>>& adjacency,
                        int lambda);
};

/// Adjacency lists of a graph (ignoring weights).
std::vector<std::vector<size_t>> AdjacencyLists(const graph::Graph& g);

/// Which components of Eq. 2 to use — kBoth is the paper's model; the other
/// two modes exist for the ablation bench.
enum class FitnessMode { kBoth, kAttentionOnly, kSigmoidOnly };

struct LevelTopology;  // core/graph_plan.h

class FitnessScorer : public nn::Module {
 public:
  FitnessScorer(size_t dim, util::Rng* rng,
                FitnessMode mode = FitnessMode::kBoth);

  struct Scores {
    /// φ_ij per pair, aligned with EgoPairs (num_pairs x 1), in (0,1).
    autograd::Variable pair_phi;
    /// φ_i per ego (num_nodes x 1); zero for nodes with empty ego-networks.
    autograd::Variable ego_phi;
  };

  /// h: (num_nodes x dim) current-level representations.
  Scores Score(const EgoPairs& pairs, const autograd::Variable& h) const;

  /// Same scores over a precomputed level topology (reuses its dot-pair
  /// gather list instead of rebuilding it per call).
  Scores Score(const LevelTopology& topo, const autograd::Variable& h) const;

  std::vector<autograd::Variable> Parameters() const override;

  FitnessMode mode() const { return mode_; }
  const autograd::Variable& weight() const { return weight_; }
  const autograd::Variable& attention() const { return attention_; }

 private:
  FitnessMode mode_;
  autograd::Variable weight_;     // (dim, dim) — W
  autograd::Variable attention_;  // (2·dim, 1) — a
};

}  // namespace adamgnn::core

#endif  // ADAMGNN_CORE_FITNESS_H_
