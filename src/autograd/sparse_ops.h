// Differentiable sparse products. Two flavors:
//  - SpMM with a *constant* sparse operator (GCN propagation with Â).
//  - SpMM where the sparse *values* are themselves a Variable (AdamGNN's
//    assignment matrices S_k, whose entries are learned fitness scores).

#ifndef ADAMGNN_AUTOGRAD_SPARSE_OPS_H_
#define ADAMGNN_AUTOGRAD_SPARSE_OPS_H_

#include <memory>
#include <mutex>
#include <vector>

#include "autograd/variable.h"
#include "graph/sparse_matrix.h"

namespace adamgnn::autograd {

/// The fixed sparsity structure of a learned sparse matrix: where the
/// nonzeros live, independent of their values.
struct SparsePattern {
  size_t rows = 0;
  size_t cols = 0;
  /// Coordinates of each nonzero; values come from a Variable of shape
  /// (nnz x 1) aligned with these arrays.
  std::vector<size_t> row_indices;
  std::vector<size_t> col_indices;

  size_t nnz() const { return row_indices.size(); }

  /// Materializes a concrete sparse matrix with the given values.
  graph::SparseMatrix WithValues(const std::vector<double>& values) const;

  /// Entries grouped by one coordinate, for gather-style SpMMValues kernels:
  /// group g owns entry ids order[offsets[g] .. offsets[g+1]), ascending
  /// within each group (= the serial scatter kernel's summation order).
  struct EntryGroups {
    std::vector<size_t> offsets;  // one per group, plus a trailing total
    std::vector<size_t> order;    // permutation of [0, nnz)
  };

  /// Entries grouped by row_indices (offsets sized rows + 1). Lazily built,
  /// cached, thread-safe once-init. Valid for the pattern's lifetime:
  /// patterns are shared as `shared_ptr<const SparsePattern>` and their index
  /// arrays are never mutated after construction.
  std::shared_ptr<const EntryGroups> RowGroups() const;
  /// Entries grouped by col_indices (offsets sized cols + 1).
  std::shared_ptr<const EntryGroups> ColGroups() const;

 private:
  struct GroupCache {
    std::mutex mu;
    std::shared_ptr<const EntryGroups> by_row;
    std::shared_ptr<const EntryGroups> by_col;
  };
  mutable std::shared_ptr<GroupCache> gcache_ =
      std::make_shared<GroupCache>();
};

/// y = S * x for a constant sparse S. Gradient: dx = Sᵀ g.
Variable SpMM(std::shared_ptr<const graph::SparseMatrix> s, const Variable& x);

/// y = Sᵀ * x for a constant sparse S. Gradient: dx = S g.
Variable SpMMTranspose(std::shared_ptr<const graph::SparseMatrix> s,
                       const Variable& x);

/// y = S(values) * x where values is (nnz x 1) aligned with `pattern`.
/// Differentiable in both values and x:
///   dvalues_k = g.row(i_k) · x.row(j_k),  dx.row(j) += v_k g.row(i_k).
Variable SpMMValues(std::shared_ptr<const SparsePattern> pattern,
                    const Variable& values, const Variable& x);

}  // namespace adamgnn::autograd

#endif  // ADAMGNN_AUTOGRAD_SPARSE_OPS_H_
