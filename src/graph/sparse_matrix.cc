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

SparseMatrix SparseMatrix::Identity(size_t n) {
  std::vector<Triplet> t;
  t.reserve(n);
  for (size_t i = 0; i < n; ++i) t.push_back({i, i, 1.0});
  return FromTriplets(n, n, std::move(t));
}

SparseMatrix SparseMatrix::Adjacency(const Graph& g) {
  std::vector<Triplet> t;
  t.reserve(g.num_edges() * 2);
  for (NodeId u = 0; static_cast<size_t>(u) < g.num_nodes(); ++u) {
    auto nbrs = g.Neighbors(u);
    auto ws = g.NeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      t.push_back({static_cast<size_t>(u), static_cast<size_t>(nbrs[i]),
                   ws[i]});
    }
  }
  return FromTriplets(g.num_nodes(), g.num_nodes(), std::move(t));
}

SparseMatrix SparseMatrix::NormalizedAdjacency(const Graph& g) {
  return Adjacency(g).Normalized();
}

SparseMatrix SparseMatrix::Normalized() const {
  ADAMGNN_CHECK_EQ(rows_, cols_);
  const size_t n = rows_;
  // Â = A + I; D̂_ii = sum_j Â_ij; return D̂^{-1/2} Â D̂^{-1/2}.
  std::vector<Triplet> hat;
  hat.reserve(nnz() + n);
  std::vector<double> degree(n, 0.0);
  for (size_t r = 0; r < n; ++r) {
    bool has_diag = false;
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      ADAMGNN_CHECK_GE(values_[k], 0.0);
      double v = values_[k];
      if (col_indices_[k] == r) {
        v += 1.0;  // merge the added identity into an existing diagonal
        has_diag = true;
      }
      hat.push_back({r, col_indices_[k], v});
      degree[r] += v;
    }
    if (!has_diag) {
      hat.push_back({r, r, 1.0});
      degree[r] += 1.0;
    }
  }
  for (Triplet& t : hat) {
    double dr = degree[t.row];
    double dc = degree[t.col];
    // degree >= 1 always because of the added self-loop.
    t.value /= std::sqrt(dr) * std::sqrt(dc);
  }
  return FromTriplets(n, n, std::move(hat));
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
  // Counting sort into transposed-CSR. Walking the CSR rows in ascending
  // order lands every view row's entries in ascending original-row order —
  // exactly the order the serial scatter kernel sums them in.
  auto view = std::make_shared<TransposeView>();
  view->row_offsets.assign(cols_ + 1, 0);
  for (size_t c : col_indices_) ++view->row_offsets[c + 1];
  for (size_t i = 1; i <= cols_; ++i) {
    view->row_offsets[i] += view->row_offsets[i - 1];
  }
  view->col_indices.resize(nnz());
  view->values.resize(nnz());
  std::vector<size_t> cursor(view->row_offsets.begin(),
                             view->row_offsets.end() - 1);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const size_t pos = cursor[col_indices_[k]]++;
      view->col_indices[pos] = r;
      view->values[pos] = values_[k];
    }
  }
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

SparseMatrix SparseMatrix::Multiply(const SparseMatrix& other) const {
  ADAMGNN_CHECK_EQ(cols_, other.rows_);
  // Gustavson row-by-row SpGEMM with a dense accumulator over other.cols().
  std::vector<Triplet> t;
  std::vector<double> acc(other.cols_, 0.0);
  std::vector<size_t> touched;
  for (size_t r = 0; r < rows_; ++r) {
    touched.clear();
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const double v = values_[k];
      const size_t mid = col_indices_[k];
      for (size_t k2 = other.row_offsets_[mid];
           k2 < other.row_offsets_[mid + 1]; ++k2) {
        const size_t c = other.col_indices_[k2];
        if (acc[c] == 0.0) touched.push_back(c);
        acc[c] += v * other.values_[k2];
      }
    }
    for (size_t c : touched) {
      if (acc[c] != 0.0) t.push_back({r, c, acc[c]});
      acc[c] = 0.0;
    }
  }
  return FromTriplets(rows_, other.cols_, std::move(t));
}

SparseMatrix SparseMatrix::Transposed() const {
  std::vector<Triplet> t;
  t.reserve(nnz());
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      t.push_back({col_indices_[k], r, values_[k]});
    }
  }
  return FromTriplets(cols_, rows_, std::move(t));
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
