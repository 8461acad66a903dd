#include "nn/pair_logits.h"

#include "autograd/ops.h"
#include "util/logging.h"

namespace adamgnn::nn {

autograd::Variable AttentionHalves(const autograd::Variable& a) {
  ADAMGNN_CHECK_EQ(a.cols(), 1u);
  ADAMGNN_CHECK_EQ(a.rows() % 2, 0u);
  return autograd::Transpose(autograd::Reshape(a, 2, a.rows() / 2));
}

autograd::Variable PairLogits(const autograd::Variable& x,
                              const autograd::Variable& a_pair,
                              const std::vector<size_t>& left_rows,
                              const std::vector<size_t>& right_rows,
                              const autograd::Variable& left_scale) {
  ADAMGNN_CHECK_EQ(a_pair.cols(), 2u);
  ADAMGNN_CHECK_EQ(left_rows.size(), right_rows.size());
  autograd::Variable proj = autograd::MatMul(x, a_pair);  // (n x 2)
  autograd::Variable left =
      autograd::GatherRows(autograd::SliceCols(proj, 0, 1), left_rows);
  if (left_scale.defined()) left = autograd::CwiseMul(left_scale, left);
  autograd::Variable right =
      autograd::GatherRows(autograd::SliceCols(proj, 1, 1), right_rows);
  return autograd::LeakyRelu(autograd::Add(left, right), 0.2);
}

}  // namespace adamgnn::nn
