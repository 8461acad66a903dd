#include "nn/gcn_conv.h"

#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "nn/init.h"

namespace adamgnn::nn {

GcnConv::GcnConv(size_t in_dim, size_t out_dim, util::Rng* rng) {
  weight_ = autograd::Variable::Parameter(GlorotUniform(in_dim, out_dim, rng));
  bias_ = autograd::Variable::Parameter(tensor::Matrix(1, out_dim));
}

autograd::Variable GcnConv::Forward(
    const std::shared_ptr<const graph::SparseMatrix>& norm_adj,
    const autograd::Variable& x) const {
  autograd::Variable xw = autograd::MatMul(x, weight_);
  autograd::Variable propagated = autograd::SpMM(norm_adj, xw);
  return autograd::AddBias(propagated, bias_);
}

std::vector<autograd::Variable> GcnConv::Parameters() const {
  return {weight_, bias_};
}

}  // namespace adamgnn::nn
