#include "nn/gat_conv.h"

#include "autograd/ops.h"
#include "autograd/segment_ops.h"
#include "autograd/sparse_ops.h"
#include "nn/init.h"
#include "nn/pair_logits.h"

namespace adamgnn::nn {

GatConv::GatConv(size_t in_dim, size_t out_dim, util::Rng* rng) {
  weight_ = autograd::Variable::Parameter(GlorotUniform(in_dim, out_dim, rng));
  a_src_ = autograd::Variable::Parameter(GlorotUniform(out_dim, 1, rng));
  a_dst_ = autograd::Variable::Parameter(GlorotUniform(out_dim, 1, rng));
  bias_ = autograd::Variable::Parameter(tensor::Matrix(1, out_dim));
}

std::shared_ptr<const EdgeIndex> GatConv::BuildEdgeIndex(
    const graph::Graph& g) {
  auto idx = std::make_shared<EdgeIndex>();
  idx->num_nodes = g.num_nodes();
  for (graph::NodeId v = 0; static_cast<size_t>(v) < g.num_nodes(); ++v) {
    for (graph::NodeId u : g.Neighbors(v)) {
      idx->src.push_back(static_cast<size_t>(u));
      idx->dst.push_back(static_cast<size_t>(v));
    }
    idx->src.push_back(static_cast<size_t>(v));  // self-loop
    idx->dst.push_back(static_cast<size_t>(v));
  }
  return idx;
}

autograd::Variable GatConv::Forward(
    const std::shared_ptr<const EdgeIndex>& edges,
    const autograd::Variable& x) const {
  autograd::Variable z = autograd::MatMul(x, weight_);

  // Per-edge attention logits, decomposed as a_srcᵀ z_u + a_dstᵀ z_v.
  autograd::Variable logits = PairLogits(
      z, autograd::ConcatCols(a_src_, a_dst_), edges->src, edges->dst);

  // Normalize over each destination's in-neighborhood.
  std::vector<size_t> dst = edges->dst;
  autograd::Variable att =
      autograd::SegmentSoftmax(logits, std::move(dst), edges->num_nodes);

  auto pattern = std::make_shared<autograd::SparsePattern>();
  pattern->rows = edges->num_nodes;
  pattern->cols = edges->num_nodes;
  pattern->row_indices = edges->dst;
  pattern->col_indices = edges->src;
  autograd::Variable out = autograd::SpMMValues(pattern, att, z);
  return autograd::AddBias(out, bias_);
}

std::vector<autograd::Variable> GatConv::Parameters() const {
  return {weight_, a_src_, a_dst_, bias_};
}

}  // namespace adamgnn::nn
