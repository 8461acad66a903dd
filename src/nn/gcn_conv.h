// Graph Convolutional Network layer (Kipf & Welling 2017):
//   H' = act(Â H W),  Â = D̂^{-1/2}(A+I)D̂^{-1/2}.
// Takes the propagation operator explicitly so the same layer serves the
// original graph and AdamGNN's pooled hyper-graphs.

#ifndef ADAMGNN_NN_GCN_CONV_H_
#define ADAMGNN_NN_GCN_CONV_H_

#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "graph/sparse_matrix.h"
#include "nn/module.h"
#include "util/random.h"

namespace adamgnn::nn {

class GcnConv : public Module {
 public:
  GcnConv(size_t in_dim, size_t out_dim, util::Rng* rng);

  /// norm_adj: symmetric-normalized (n x n); x: (n, in) -> (n, out).
  /// No activation is applied; callers compose Relu etc. themselves.
  autograd::Variable Forward(
      const std::shared_ptr<const graph::SparseMatrix>& norm_adj,
      const autograd::Variable& x) const;

  std::vector<autograd::Variable> Parameters() const override;

  const autograd::Variable& weight() const { return weight_; }
  const autograd::Variable& bias() const { return bias_; }

 private:
  autograd::Variable weight_;  // (in, out)
  autograd::Variable bias_;    // (1, out)
};

}  // namespace adamgnn::nn

#endif  // ADAMGNN_NN_GCN_CONV_H_
