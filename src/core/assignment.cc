#include "core/assignment.h"

#include <utility>

#include "autograd/ops.h"
#include "util/logging.h"

namespace adamgnn::core {

Assignment BuildAssignment(const EgoPairs& pairs, const Selection& selection,
                           const FitnessScorer::Scores& scores) {
  const size_t n_prev = pairs.num_nodes;
  const size_t n_hyper = selection.num_hyper_nodes();
  ADAMGNN_CHECK_GT(n_hyper, 0u);

  Assignment s;
  s.num_ego_columns = selection.selected_egos.size();

  // Column index per selected ego.
  std::vector<int64_t> ego_column(n_prev, -1);
  for (size_t c = 0; c < selection.selected_egos.size(); ++c) {
    ego_column[selection.selected_egos[c]] = static_cast<int64_t>(c);
    s.hyper_to_prev.push_back(selection.selected_egos[c]);
  }

  auto pattern = std::make_shared<autograd::SparsePattern>();
  pattern->rows = n_prev;
  pattern->cols = n_hyper;

  // Leading entries: differentiable φ_ij for members of selected networks.
  for (size_t p = 0; p < pairs.num_pairs(); ++p) {
    const int64_t col = ego_column[pairs.ego[p]];
    if (col < 0) continue;
    pattern->row_indices.push_back(pairs.member[p]);
    pattern->col_indices.push_back(static_cast<size_t>(col));
    s.kept_pair_indices.push_back(p);
    s.member_rows.push_back(pairs.member[p]);
    s.ego_rows.push_back(pairs.ego[p]);
    s.init_segments.push_back(static_cast<size_t>(col));
  }
  const size_t num_phi_entries = s.kept_pair_indices.size();

  // Constant entries: egos own their column; retained nodes map identically.
  for (size_t c = 0; c < selection.selected_egos.size(); ++c) {
    pattern->row_indices.push_back(selection.selected_egos[c]);
    pattern->col_indices.push_back(c);
  }
  for (size_t r = 0; r < selection.retained_nodes.size(); ++r) {
    const size_t col = selection.selected_egos.size() + r;
    pattern->row_indices.push_back(selection.retained_nodes[r]);
    pattern->col_indices.push_back(col);
    s.hyper_to_prev.push_back(selection.retained_nodes[r]);
  }
  s.num_const_entries = pattern->nnz() - num_phi_entries;
  s.pattern = std::move(pattern);

  autograd::Variable ones = autograd::Variable::Constant(
      tensor::Matrix::Ones(s.num_const_entries, 1));
  if (s.kept_pair_indices.empty()) {
    s.values = ones;
  } else {
    autograd::Variable phi =
        autograd::GatherRows(scores.pair_phi, s.kept_pair_indices);
    s.values = autograd::ConcatRows(phi, ones);
  }
  return s;
}

graph::SparseMatrix NextAdjacency(const graph::SparseMatrix& prev_adjacency,
                                  const Assignment& assignment) {
  ADAMGNN_CHECK_EQ(prev_adjacency.rows(), assignment.pattern->rows);
  const tensor::Matrix& values = assignment.values.value();
  graph::SparseMatrix s = assignment.pattern->WithValues(
      std::vector<double>(values.data(), values.data() + values.size()));
  // Â_{k-1} = A_{k-1} + I.
  return s.Transposed().Multiply(prev_adjacency.PlusIdentity()).Multiply(s);
}

std::vector<std::vector<size_t>> AdjacencyListsFromSparse(
    const graph::SparseMatrix& adj) {
  ADAMGNN_CHECK_EQ(adj.rows(), adj.cols());
  std::vector<std::vector<size_t>> lists(adj.rows());
  for (size_t r = 0; r < adj.rows(); ++r) {
    for (size_t k = adj.row_offsets()[r]; k < adj.row_offsets()[r + 1]; ++k) {
      const size_t c = adj.col_indices()[k];
      if (c != r && adj.values()[k] != 0.0) lists[r].push_back(c);
    }
  }
  return lists;
}

}  // namespace adamgnn::core
