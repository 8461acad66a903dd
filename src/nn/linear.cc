#include "nn/linear.h"

#include "nn/init.h"

namespace adamgnn::nn {

Linear::Linear(size_t in_dim, size_t out_dim, bool use_bias, util::Rng* rng)
    : in_dim_(in_dim), out_dim_(out_dim) {
  weight_ = autograd::Variable::Parameter(GlorotUniform(in_dim, out_dim, rng));
  if (use_bias) {
    bias_ = autograd::Variable::Parameter(tensor::Matrix(1, out_dim));
  }
}

autograd::Variable Linear::Forward(const autograd::Variable& x) const {
  autograd::Variable y = autograd::MatMul(x, weight_);
  if (bias_.defined()) y = autograd::AddBias(y, bias_);
  return y;
}

std::vector<autograd::Variable> Linear::Parameters() const {
  std::vector<autograd::Variable> out = {weight_};
  if (bias_.defined()) out.push_back(bias_);
  return out;
}

}  // namespace adamgnn::nn
