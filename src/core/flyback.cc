#include "core/flyback.h"

#include <utility>

#include "autograd/ops.h"
#include "nn/init.h"
#include "util/logging.h"

namespace adamgnn::core {

FlybackAggregator::FlybackAggregator(size_t dim, util::Rng* rng) {
  weight_ = autograd::Variable::Parameter(nn::GlorotUniform(dim, dim, rng));
  attention_ =
      autograd::Variable::Parameter(nn::GlorotUniform(2 * dim, 1, rng));
}

FlybackAggregator::Output FlybackAggregator::Aggregate(
    const autograd::Variable& h0,
    const std::vector<autograd::Variable>& messages) const {
  Output out;
  if (messages.empty()) {
    out.h = h0;
    out.attention = tensor::Matrix(h0.rows(), 0);
    return out;
  }
  const size_t num_levels = messages.size();

  // Per-level logits, assembled into an (n x K) matrix for a row softmax.
  autograd::Variable logits;
  for (size_t k = 0; k < num_levels; ++k) {
    ADAMGNN_CHECK_EQ(messages[k].rows(), h0.rows());
    autograd::Variable level_logit = autograd::LeakyRelu(
        autograd::MatMul(
            autograd::ConcatCols(autograd::MatMul(messages[k], weight_), h0),
            attention_),
        0.2);
    logits = k == 0 ? level_logit : autograd::ConcatCols(logits, level_logit);
  }
  autograd::Variable beta = autograd::SoftmaxRows(logits);
  out.attention = beta.value();

  autograd::Variable h = h0;
  for (size_t k = 0; k < num_levels; ++k) {
    autograd::Variable beta_k = autograd::SliceCols(beta, k, 1);
    h = autograd::Add(h, autograd::MulColBroadcast(messages[k], beta_k));
  }
  out.h = h;
  return out;
}

std::vector<autograd::Variable> FlybackAggregator::Parameters() const {
  return {weight_, attention_};
}

}  // namespace adamgnn::core
