// Fully connected layer y = xW (+ b).

#ifndef ADAMGNN_NN_LINEAR_H_
#define ADAMGNN_NN_LINEAR_H_

#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "nn/module.h"
#include "util/random.h"

namespace adamgnn::nn {

/// Dense affine map. Weight is Glorot-initialized, bias zero-initialized.
class Linear : public Module {
 public:
  Linear(size_t in_dim, size_t out_dim, bool use_bias, util::Rng* rng);

  /// x: (n, in_dim) -> (n, out_dim).
  autograd::Variable Forward(const autograd::Variable& x) const;

  std::vector<autograd::Variable> Parameters() const override;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  bool has_bias() const { return bias_.defined(); }
  const autograd::Variable& weight() const { return weight_; }
  /// Undefined (null Variable) when the layer has no bias.
  const autograd::Variable& bias() const { return bias_; }

 private:
  size_t in_dim_;
  size_t out_dim_;
  autograd::Variable weight_;  // (in, out)
  autograd::Variable bias_;    // (1, out) or undefined
};

}  // namespace adamgnn::nn

#endif  // ADAMGNN_NN_LINEAR_H_
