// Flyback aggregation (Eq. 4): combines the unpooled multi-grained messages
// with the primary representation via per-node, per-level attention,
//   H = H_0 + Σ_k β_k ⊙ Ĥ_k,
//   β_k(v) = softmax_k(aᵀ LeakyReLU(W Ĥ_k(v) ‖ H_0(v))).
// The learned β matrix is exposed for explainability (paper Figure 2).

#ifndef ADAMGNN_CORE_FLYBACK_H_
#define ADAMGNN_CORE_FLYBACK_H_

#include <vector>

#include "autograd/variable.h"
#include "nn/module.h"
#include "util/random.h"

namespace adamgnn::core {

class FlybackAggregator : public nn::Module {
 public:
  FlybackAggregator(size_t dim, util::Rng* rng);

  struct Output {
    /// Final node representations (n x dim).
    autograd::Variable h;
    /// β per node and level (n x K), rows summing to 1 — for Figure 2.
    tensor::Matrix attention;
  };

  /// h0: primary representations; messages: Ĥ_1..Ĥ_K (all n x dim).
  /// With no messages, returns h0 with an empty attention matrix.
  Output Aggregate(const autograd::Variable& h0,
                   const std::vector<autograd::Variable>& messages) const;

  std::vector<autograd::Variable> Parameters() const override;

  const autograd::Variable& weight() const { return weight_; }
  const autograd::Variable& attention() const { return attention_; }

 private:
  autograd::Variable weight_;     // (dim, dim) — W
  autograd::Variable attention_;  // (2·dim, 1) — a
};

}  // namespace adamgnn::core

#endif  // ADAMGNN_CORE_FLYBACK_H_
