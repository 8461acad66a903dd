// Pair-linear attention logits (the GAT decomposition, Velickovic et al.
// 2018). A logit over a pair (l, r) that is linear before its LeakyReLU,
//   e_lr = LeakyReLU(aᵀ [x_l ‖ x_r]) = LeakyReLU(a_lᵀ x_l + a_rᵀ x_r),
// needs only the two (n x 1) products x·a_l and x·a_r, gathered per pair.
// Multiplying before gathering costs O(n·d + pairs) time and memory instead
// of the O(pairs·d) of gathering x_l and x_r and concatenating them.

#ifndef ADAMGNN_NN_PAIR_LOGITS_H_
#define ADAMGNN_NN_PAIR_LOGITS_H_

#include <vector>

#include "autograd/variable.h"

namespace adamgnn::nn {

/// The halves of a stacked (2d x 1) attention vector a = [a_l; a_r] as the
/// columns of a (d x 2) matrix [a_l | a_r], inside the autograd graph.
autograd::Variable AttentionHalves(const autograd::Variable& a);

/// Per-pair logits, (pairs x 1):
///   e_p = LeakyReLU(s_p · (x·a_l)[left_rows[p]] + (x·a_r)[right_rows[p]]),
/// with negative slope 0.2, x (n x d) and a_pair = [a_l | a_r] (d x 2).
/// `left_scale` (s, pairs x 1) is optional; undefined means s_p = 1.
autograd::Variable PairLogits(const autograd::Variable& x,
                              const autograd::Variable& a_pair,
                              const std::vector<size_t>& left_rows,
                              const std::vector<size_t>& right_rows,
                              const autograd::Variable& left_scale = {});

}  // namespace adamgnn::nn

#endif  // ADAMGNN_NN_PAIR_LOGITS_H_
