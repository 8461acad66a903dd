// General sparse matrix in CSR form. This carries the GCN propagation
// operator Â = D^{-1/2}(A+I)D^{-1/2}, the AdamGNN assignment matrices S_k,
// and the pooled adjacencies A_k = S_kᵀ Â_{k-1} S_k.
//
// Training-path engine: TransposeMultiplyDense adaptively runs either as a
// plain serial scatter or as a row-parallel *gather* over a lazily built,
// cached transposed-CSR view (thread-safe once-init); the strategy is
// picked per call from the problem shape and the effective pool parallelism
// (tensor/tuning.h). Every strategy folds each output row's contributions
// in the same ascending source-row order through the per-ISA lane
// primitives (tensor/simd_ops.h, no FMA), so the engine's results are
// bitwise-identical across strategies, thread counts, and ISAs, and equal
// to a plain serial loop that visits the source rows in ascending order.

#ifndef ADAMGNN_GRAPH_SPARSE_MATRIX_H_
#define ADAMGNN_GRAPH_SPARSE_MATRIX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "tensor/matrix.h"

namespace adamgnn::graph {

/// One nonzero entry (used for construction from triplets).
struct Triplet {
  size_t row = 0;
  size_t col = 0;
  double value = 0.0;
};

/// Immutable sparse rows x cols matrix, CSR, column-sorted within each row,
/// no duplicate columns in a row.
///
/// Every builder below except FromTriplets writes the CSR arrays directly,
/// row by row, and drops exact zeros. Because no row holds a column twice,
/// FromTriplets would only reorder such entries, so each builder is
/// bitwise-equal to collecting the same values as triplets and calling
/// FromTriplets (the tests keep those triplet builds as references).
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Builds from (row, col, value) triplets in any order: sorts them,
  /// sums duplicates and drops exact zeros after coalescing. Out-of-range
  /// indices abort. For unsorted input only: the sort dominates its cost,
  /// so input that is already row-sorted CSR is built directly instead.
  static SparseMatrix FromTriplets(size_t rows, size_t cols,
                                   std::vector<Triplet> triplets);

  /// Identity of size n.
  static SparseMatrix Identity(size_t n);

  /// Adjacency (with edge weights) of g as an n x n sparse matrix; an edge
  /// of weight exactly 0 is left out.
  static SparseMatrix Adjacency(const Graph& g);

  /// Symmetric GCN normalization D̂^{-1/2}(A+I)D̂^{-1/2} over g's weighted
  /// adjacency (Kipf & Welling 2017, Eq. 1 of the paper).
  static SparseMatrix NormalizedAdjacency(const Graph& g);

  /// Symmetric GCN normalization of *this* matrix (adds identity, then
  /// normalizes by row sums). Requires square shape and non-negative values.
  /// D̂_ii sums row i in CSR order, the +1 folded into a stored diagonal or,
  /// when row i stores none, added last.
  SparseMatrix Normalized() const;

  /// this + I for a square matrix: the 1 is added into a stored diagonal or
  /// inserted at its sorted place in the row; exact zeros are dropped.
  SparseMatrix PlusIdentity() const;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return col_indices_.size(); }

  const std::vector<size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<size_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }
  /// Mutable access to the values array. Invalidates the cached transposed
  /// view (copy-on-write: copies sharing the cache keep their own, still
  /// valid, snapshot), so a later TransposeMultiplyDense can never serve
  /// stale values.
  std::vector<double>& mutable_values() {
    ResetTransposeCache();
    return values_;
  }

  /// Value at (r, c); 0 when the position is structurally empty.
  double At(size_t r, size_t c) const;

  /// this * dense. Shapes (r,c)(c,d) -> (r,d).
  tensor::Matrix MultiplyDense(const tensor::Matrix& x) const;
  /// thisᵀ * dense without materializing the transpose. Adaptive serial
  /// scatter or gather over the cached transposed view; both strategies
  /// agree bitwise.
  tensor::Matrix TransposeMultiplyDense(const tensor::Matrix& x) const;

  /// Builds the cached transposed-CSR view now (idempotent, thread-safe).
  /// Amortizing callers — GraphPlan for Â, the model for per-level pooled
  /// adjacencies — call this once at construction so no epoch pays the
  /// O(nnz) build inside its backward pass.
  void PrewarmTranspose() const;
  /// True once the transposed view exists (for tests and diagnostics).
  bool transpose_view_built() const;

  /// Sparse-sparse product this * other (Gustavson, dense row
  /// accumulator). Output rows are column-sorted and hold no exact zeros;
  /// entry (r, c) adds the products this(r, m) * other(m, c) in the CSR
  /// order of row r's entries m, so the result is bitwise-equal to
  /// collecting the row sums as triplets and calling FromTriplets.
  SparseMatrix Multiply(const SparseMatrix& other) const;
  /// Counting-sort transpose; exact zeros are dropped.
  SparseMatrix Transposed() const;

  /// Scales each row to sum to 1 (rows with zero sum are left untouched).
  SparseMatrix RowNormalized() const;

  /// Dense copy (for tests and tiny matrices only).
  tensor::Matrix ToDense() const;

  std::string DebugString() const;

 private:
  /// Transposed-CSR (i.e. CSC) view: row r of the view is column r of the
  /// matrix, entries sorted by original row ascending — exactly the
  /// summation order of the serial scatter kernel.
  struct TransposeView {
    std::vector<size_t> row_offsets;  // size cols_ + 1
    std::vector<size_t> col_indices;  // original row ids
    std::vector<double> values;       // values permuted to view order
  };
  /// Shared once-init box. Copies of a SparseMatrix share the box (their
  /// values are equal, so the view is valid for both); mutable_values()
  /// detaches the mutating object onto a fresh box instead of clearing the
  /// shared one.
  struct TransposeCache {
    std::mutex mu;
    std::shared_ptr<const TransposeView> view;
  };

  std::shared_ptr<const TransposeView> EnsureTransposeView() const;
  /// Counting-sort transpose of the CSR arrays into (cols_ x rows_) CSR
  /// arrays: walking the rows in ascending order leaves every output row in
  /// ascending source-row order. With drop_zeros, exact zeros are left out.
  void TransposeInto(bool drop_zeros, std::vector<size_t>* row_offsets,
                     std::vector<size_t>* col_indices,
                     std::vector<double>* values) const;

  /// Direct CSR writing: Empty() starts a rows x cols matrix with no rows
  /// written and room for nnz_hint entries; Push() appends (col, value) to
  /// the open row, skipping exact zeros, with columns in ascending order;
  /// EndRow() closes the row.
  static SparseMatrix Empty(size_t rows, size_t cols, size_t nnz_hint = 0);
  void Push(size_t col, double value) {
    if (value == 0.0) return;
    col_indices_.push_back(col);
    values_.push_back(value);
  }
  void EndRow() { row_offsets_.push_back(col_indices_.size()); }
  void ResetTransposeCache() { tcache_ = std::make_shared<TransposeCache>(); }

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_offsets_;  // size rows_ + 1
  std::vector<size_t> col_indices_;
  std::vector<double> values_;
  mutable std::shared_ptr<TransposeCache> tcache_ =
      std::make_shared<TransposeCache>();
};

}  // namespace adamgnn::graph

#endif  // ADAMGNN_GRAPH_SPARSE_MATRIX_H_
