#include "graph/sparse_matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "tensor/simd_ops.h"
#include "tensor/tuning.h"
#include "util/logging.h"
#include "util/thread_pool.h"

// Grains and strategy selection come from tensor/tuning.h; the row-gather
// inner loops run through the per-ISA vtable in tensor/simd_ops.h. The lane
// primitives use no FMA at any ISA, so SpMM results are bitwise-identical
// across scalar/avx2 and identical to plain ascending serial loops.

namespace adamgnn::graph {

SparseMatrix SparseMatrix::FromTriplets(size_t rows, size_t cols,
                                        std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    ADAMGNN_CHECK_LT(t.row, rows);
    ADAMGNN_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              if (a.row != b.row) return a.row < b.row;
              return a.col < b.col;
            });
  // Coalesce duplicates by summation, then drop exact zeros.
  std::vector<Triplet> merged;
  merged.reserve(triplets.size());
  for (const Triplet& t : triplets) {
    if (!merged.empty() && merged.back().row == t.row &&
        merged.back().col == t.col) {
      merged.back().value += t.value;
    } else {
      merged.push_back(t);
    }
  }
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_offsets_.assign(rows + 1, 0);
  for (const Triplet& t : merged) {
    if (t.value == 0.0) continue;
    ++m.row_offsets_[t.row + 1];
  }
  for (size_t i = 1; i <= rows; ++i) m.row_offsets_[i] += m.row_offsets_[i - 1];
  m.col_indices_.reserve(merged.size());
  m.values_.reserve(merged.size());
  for (const Triplet& t : merged) {
    if (t.value == 0.0) continue;
    m.col_indices_.push_back(t.col);
    m.values_.push_back(t.value);
  }
  return m;
}

SparseMatrix SparseMatrix::Empty(size_t rows, size_t cols, size_t nnz_hint) {
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_offsets_.reserve(rows + 1);
  m.row_offsets_.push_back(0);
  m.col_indices_.reserve(nnz_hint);
  m.values_.reserve(nnz_hint);
  return m;
}

SparseMatrix SparseMatrix::Identity(size_t n) {
  SparseMatrix m = Empty(n, n, n);
  for (size_t i = 0; i < n; ++i) {
    m.Push(i, 1.0);
    m.EndRow();
  }
  return m;
}

SparseMatrix SparseMatrix::Adjacency(const Graph& g) {
  // g's CSR rows are sorted by neighbor id, with no parallel edges.
  const size_t n = g.num_nodes();
  SparseMatrix m = Empty(n, n, g.num_edges() * 2);
  for (NodeId u = 0; static_cast<size_t>(u) < n; ++u) {
    auto nbrs = g.Neighbors(u);
    auto ws = g.NeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      ADAMGNN_DCHECK(i == 0 || nbrs[i - 1] < nbrs[i]);
      m.Push(static_cast<size_t>(nbrs[i]), ws[i]);
    }
    m.EndRow();
  }
  return m;
}

SparseMatrix SparseMatrix::NormalizedAdjacency(const Graph& g) {
  return Adjacency(g).Normalized();
}

SparseMatrix SparseMatrix::PlusIdentity() const {
  ADAMGNN_CHECK_EQ(rows_, cols_);
  SparseMatrix m = Empty(rows_, cols_, nnz() + rows_);
  for (size_t r = 0; r < rows_; ++r) {
    bool diag_written = false;
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const size_t c = col_indices_[k];
      if (!diag_written && c >= r) {
        diag_written = true;
        if (c == r) {
          m.Push(r, values_[k] + 1.0);
          continue;
        }
        m.Push(r, 1.0);
      }
      m.Push(c, values_[k]);
    }
    if (!diag_written) m.Push(r, 1.0);
    m.EndRow();
  }
  return m;
}

SparseMatrix SparseMatrix::Normalized() const {
  ADAMGNN_CHECK_EQ(rows_, cols_);
  const size_t n = rows_;
  // Â = A + I; D̂_ii = sum_j Â_ij; return D̂^{-1/2} Â D̂^{-1/2}. The degree
  // sums row i in CSR order with the identity's 1 folded into a stored
  // diagonal, or added last when the row stores none.
  std::vector<double> degree(n, 0.0);
  for (size_t r = 0; r < n; ++r) {
    bool has_diag = false;
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      ADAMGNN_CHECK_GE(values_[k], 0.0);
      double v = values_[k];
      if (col_indices_[k] == r) {
        v += 1.0;
        has_diag = true;
      }
      degree[r] += v;
    }
    if (!has_diag) degree[r] += 1.0;
  }
  std::vector<double> sqrt_degree(n);
  for (size_t i = 0; i < n; ++i) sqrt_degree[i] = std::sqrt(degree[i]);
  // Scale Â in place, compacting away any value that underflows to 0.
  SparseMatrix hat = PlusIdentity();
  size_t out = 0;
  size_t begin = 0;
  for (size_t r = 0; r < n; ++r) {
    const size_t end = hat.row_offsets_[r + 1];
    for (size_t k = begin; k < end; ++k) {
      const size_t c = hat.col_indices_[k];
      // degree >= 1 always because of the added self-loop.
      const double v = hat.values_[k] / (sqrt_degree[r] * sqrt_degree[c]);
      if (v == 0.0) continue;
      hat.col_indices_[out] = c;
      hat.values_[out++] = v;
    }
    begin = end;
    hat.row_offsets_[r + 1] = out;
  }
  hat.col_indices_.resize(out);
  hat.values_.resize(out);
  return hat;
}

double SparseMatrix::At(size_t r, size_t c) const {
  ADAMGNN_CHECK_LT(r, rows_);
  ADAMGNN_CHECK_LT(c, cols_);
  auto begin = col_indices_.begin() + static_cast<int64_t>(row_offsets_[r]);
  auto end = col_indices_.begin() + static_cast<int64_t>(row_offsets_[r + 1]);
  auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<size_t>(it - col_indices_.begin())];
}

tensor::Matrix SparseMatrix::MultiplyDense(const tensor::Matrix& x) const {
  ADAMGNN_CHECK_EQ(cols_, x.rows());
  // Uninitialized output: every row is either zeroed (no entries) or fully
  // written by the gather kernel, whose first-entry store is `0.0 + v * x` —
  // the exact value the zero-initialized accumulation produced (the explicit
  // add keeps -0.0 products normalizing to +0.0, so results stay bitwise
  // unchanged) — which lets the buffer skip its fill pass entirely.
  tensor::Matrix out = tensor::Matrix::Uninit(rows_, x.cols());
  const size_t d = x.cols();
  const tensor::SimdOps* ops = tensor::ActiveOps();
  // Gather: each output row is owned by exactly one chunk, so row
  // partitioning is race-free and bitwise-deterministic.
  const tensor::GatherSpec spec{row_offsets_.data(), nullptr,
                                col_indices_.data(), values_.data(),
                                x.data(),            d,
                                out.data(),          true};
  util::ParallelFor(
      0, rows_,
      tensor::tuning::GatherRowGrain(rows_, nnz() * d,
                                     util::EffectiveParallelism()),
      [&](size_t r0, size_t r1) { ops->gather_rows(spec, r0, r1); });
  return out;
}

std::shared_ptr<const SparseMatrix::TransposeView>
SparseMatrix::EnsureTransposeView() const {
  if (tcache_ == nullptr) {  // moved-from object being reused
    tcache_ = std::make_shared<TransposeCache>();
  }
  const std::shared_ptr<TransposeCache> cache = tcache_;
  std::lock_guard<std::mutex> lock(cache->mu);
  if (cache->view != nullptr) return cache->view;
  // Every view row lands in ascending source-row order: exactly the order
  // the serial scatter kernel sums them in.
  auto view = std::make_shared<TransposeView>();
  TransposeInto(/*drop_zeros=*/false, &view->row_offsets, &view->col_indices,
                &view->values);
  cache->view = std::move(view);
  return cache->view;
}

void SparseMatrix::PrewarmTranspose() const { (void)EnsureTransposeView(); }

bool SparseMatrix::transpose_view_built() const {
  if (tcache_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(tcache_->mu);
  return tcache_->view != nullptr;
}

tensor::Matrix SparseMatrix::TransposeMultiplyDense(
    const tensor::Matrix& x) const {
  ADAMGNN_CHECK_EQ(rows_, x.rows());
  if (rows_ == 0 || nnz() == 0) return tensor::Matrix(cols_, x.cols());
  const size_t d = x.cols();
  const tensor::SimdOps* ops = tensor::ActiveOps();
  const int ep = util::EffectiveParallelism();
  // Every output row's contributions fold in ascending source-row order
  // from a +0.0 root, under both strategies below, so the strategy choice —
  // and the pool size it consults — changes speed, never bits.
  if (tensor::tuning::ChooseSpmmTranspose(nnz(), d, cols_, ep) ==
      tensor::tuning::ReduceStrategy::kSerialScatter) {
    // One ascending pass over the CSR rows, accumulating into a
    // zero-initialized output. Skips building (and caching) the transposed
    // view entirely — the right call for small one-shot multiplies.
    tensor::Matrix out(cols_, d);
    for (size_t r = 0; r < rows_; ++r) {
      const double* xr = x.row(r);
      for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
        ops->axpy(out.row(col_indices_[k]), xr, d, values_[k]);
      }
    }
    return out;
  }
  // Gather: the cached transposed view stores each output row's entries in
  // ascending source-row order — the same order the serial scatter above
  // delivers them in — and each output row is owned by exactly one task:
  // no partial matrices, no merge, race-free at any thread count.
  tensor::Matrix out = tensor::Matrix::Uninit(cols_, d);
  const std::shared_ptr<const TransposeView> view = EnsureTransposeView();
  const tensor::GatherSpec spec{view->row_offsets.data(), nullptr,
                                view->col_indices.data(), view->values.data(),
                                x.data(),                 d,
                                out.data(),               true};
  util::ParallelFor(
      0, cols_, tensor::tuning::GatherRowGrain(cols_, nnz() * d, ep),
      [&](size_t c0, size_t c1) { ops->gather_rows(spec, c0, c1); });
  return out;
}

void SparseMatrix::TransposeInto(bool drop_zeros,
                                 std::vector<size_t>* row_offsets,
                                 std::vector<size_t>* col_indices,
                                 std::vector<double>* values) const {
  row_offsets->assign(cols_ + 1, 0);
  for (size_t k = 0; k < nnz(); ++k) {
    if (drop_zeros && values_[k] == 0.0) continue;
    ++(*row_offsets)[col_indices_[k] + 1];
  }
  for (size_t i = 1; i <= cols_; ++i) {
    (*row_offsets)[i] += (*row_offsets)[i - 1];
  }
  col_indices->resize(row_offsets->back());
  values->resize(row_offsets->back());
  std::vector<size_t> cursor(row_offsets->begin(), row_offsets->end() - 1);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      if (drop_zeros && values_[k] == 0.0) continue;
      const size_t pos = cursor[col_indices_[k]]++;
      (*col_indices)[pos] = r;
      (*values)[pos] = values_[k];
    }
  }
}

SparseMatrix SparseMatrix::Multiply(const SparseMatrix& other) const {
  ADAMGNN_CHECK_EQ(cols_, other.rows_);
  // Gustavson row-by-row SpGEMM with a dense accumulator over other.cols().
  // `seen[c] == r` marks column c as touched in row r, so a column whose
  // partial sum cancels to exactly 0 and is touched again is listed once.
  SparseMatrix m = Empty(rows_, other.cols_);
  std::vector<double> acc(other.cols_, 0.0);
  std::vector<size_t> seen(other.cols_, SIZE_MAX);
  std::vector<size_t> touched;
  for (size_t r = 0; r < rows_; ++r) {
    touched.clear();
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const double v = values_[k];
      const size_t mid = col_indices_[k];
      for (size_t k2 = other.row_offsets_[mid];
           k2 < other.row_offsets_[mid + 1]; ++k2) {
        const size_t c = other.col_indices_[k2];
        if (seen[c] != r) {
          seen[c] = r;
          touched.push_back(c);
        }
        acc[c] += v * other.values_[k2];
      }
    }
    // Columns go out in ascending order. Sorting a row that touches more
    // than 1/16 of the columns costs more than scanning the markers.
    if (touched.size() * 16 > other.cols_) {
      touched.clear();
      for (size_t c = 0; c < other.cols_; ++c) {
        if (seen[c] == r) touched.push_back(c);
      }
    } else {
      std::sort(touched.begin(), touched.end());
    }
    for (size_t c : touched) {
      m.Push(c, acc[c]);
      acc[c] = 0.0;
    }
    m.EndRow();
  }
  return m;
}

SparseMatrix SparseMatrix::Transposed() const {
  SparseMatrix m;
  m.rows_ = cols_;
  m.cols_ = rows_;
  TransposeInto(/*drop_zeros=*/true, &m.row_offsets_, &m.col_indices_,
                &m.values_);
  return m;
}

SparseMatrix SparseMatrix::RowNormalized() const {
  SparseMatrix m = *this;
  // The copy shares this matrix's transpose-cache box; detach it before
  // editing values so the cached view can never serve the unscaled values.
  m.ResetTransposeCache();
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      sum += values_[k];
    }
    if (sum == 0.0) continue;
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      m.values_[k] /= sum;
    }
  }
  return m;
}

tensor::Matrix SparseMatrix::ToDense() const {
  tensor::Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      out(r, col_indices_[k]) = values_[k];
    }
  }
  return out;
}

std::string SparseMatrix::DebugString() const {
  std::ostringstream os;
  os << "SparseMatrix(" << rows_ << "x" << cols_ << ", nnz=" << nnz() << ")";
  return os.str();
}

}  // namespace adamgnn::graph
