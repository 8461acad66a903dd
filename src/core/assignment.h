// The hyper-node formation matrix S_k ∈ R^{n_{k-1} × n_k} (Section 3.2).
// Column layout: one column per selected ego-network (in selection order),
// then one per retained node. Entries:
//   S[i, col(i)]  = 1      for a selected ego i (it fully owns its network),
//   S[j, col(i)]  = φ_ij   for members j of selected ego-network i
//                          (differentiable — gradients flow into Eq. 2),
//   S[r, col(r)]  = 1      for retained nodes r.
// The weighted S both pools features and, transposed, routes unpooled
// messages back down (Section 3.3), and derives hyper connectivity
// A_k = S_kᵀ Â_{k-1} S_k.

#ifndef ADAMGNN_CORE_ASSIGNMENT_H_
#define ADAMGNN_CORE_ASSIGNMENT_H_

#include <memory>
#include <vector>

#include "autograd/sparse_ops.h"
#include "autograd/variable.h"
#include "core/ego_selection.h"
#include "core/fitness.h"
#include "graph/sparse_matrix.h"

namespace adamgnn::core {

/// S_k: its sparsity structure, the index sets every consumer (hyper feature
/// init, unpool) gathers through, and the differentiable values.
struct Assignment {
  /// Sparsity structure of S_k (n_prev x n_hyper).
  std::shared_ptr<const autograd::SparsePattern> pattern;
  /// For each hyper column, the level k-1 node id of its ego / retained node.
  std::vector<size_t> hyper_to_prev;
  /// Number of leading columns that are selected ego-networks.
  size_t num_ego_columns = 0;
  /// Indices into the EgoPairs arrays of the member entries kept in S
  /// (pairs whose ego was selected), aligned with the leading φ values.
  std::vector<size_t> kept_pair_indices;
  /// Trailing 1.0 entries of the values column (egos + retained nodes).
  size_t num_const_entries = 0;
  /// Gather/segment index sets for Eq. 3, aligned with kept_pair_indices:
  /// member_rows[i] = pairs.member[p], ego_rows[i] = pairs.ego[p], and
  /// init_segments[i] = the ego's column among the selected egos.
  std::vector<size_t> member_rows;
  std::vector<size_t> ego_rows;
  std::vector<size_t> init_segments;
  /// Values aligned with `pattern` (nnz x 1): the kept φ entries, which
  /// carry gradients, then num_const_entries ones.
  autograd::Variable values;
};

/// Assembles S_k from the level's pairs, selection, and fitness scores.
Assignment BuildAssignment(const EgoPairs& pairs, const Selection& selection,
                           const FitnessScorer::Scores& scores);

/// A_k = Sᵀ (A_prev + I) S with S's current (detached) values. Gradients do
/// not flow through connectivity — only through features — matching the
/// sparse-pooling convention (TopK/SAGPool do the same).
graph::SparseMatrix NextAdjacency(const graph::SparseMatrix& prev_adjacency,
                                  const Assignment& assignment);

/// 1-hop neighbor lists of a sparse adjacency, ignoring self-loops.
std::vector<std::vector<size_t>> AdjacencyListsFromSparse(
    const graph::SparseMatrix& adj);

}  // namespace adamgnn::core

#endif  // ADAMGNN_CORE_ASSIGNMENT_H_
