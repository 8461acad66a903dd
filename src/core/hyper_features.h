// Hyper-node feature initialisation (Eq. 3): a selected ego's hyper node
// starts from the ego's own representation plus a self-attention-weighted sum
// of its members' representations,
//   X_k(i) = H_{k-1}(i) + Σ_{j in c_λ(i)\i} α_ij H_{k-1}(j),
//   α_ij   = softmax_{j}(aᵀ LeakyReLU(W(φ_ij · h_j) ‖ h_i)).
// Retained nodes keep their representation unchanged.

#ifndef ADAMGNN_CORE_HYPER_FEATURES_H_
#define ADAMGNN_CORE_HYPER_FEATURES_H_

#include <vector>

#include "autograd/variable.h"
#include "core/assignment.h"
#include "core/ego_selection.h"
#include "core/fitness.h"
#include "nn/module.h"
#include "util/random.h"

namespace adamgnn::core {

class HyperFeatureInit : public nn::Module {
 public:
  HyperFeatureInit(size_t dim, util::Rng* rng);

  /// Produces X_k (num_hyper_nodes x dim), rows ordered like the assignment
  /// columns (selected egos first, then retained nodes). The gather and
  /// segment index sets come precomputed from the assignment structure.
  autograd::Variable Initialise(const Selection& selection,
                                const Assignment& assignment,
                                const FitnessScorer::Scores& scores,
                                const autograd::Variable& h_prev) const;

  std::vector<autograd::Variable> Parameters() const override;

  const autograd::Variable& weight() const { return weight_; }
  const autograd::Variable& attention() const { return attention_; }

 private:
  autograd::Variable weight_;     // (dim, dim) — W
  autograd::Variable attention_;  // (2·dim, 1) — a
};

}  // namespace adamgnn::core

#endif  // ADAMGNN_CORE_HYPER_FEATURES_H_
