#include "autograd/sparse_ops.h"

#include <algorithm>
#include <cstdint>

#include "autograd/ops.h"
#include "tensor/simd_ops.h"
#include "tensor/tuning.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace adamgnn::autograd {

using internal::AccumulateGrad;
using internal::NewOpNode;
using internal::Node;
using tensor::Matrix;

namespace {

// Grains come from tensor/tuning.h (single source of truth shared with
// graph/sparse_matrix.cc and tensor/kernels.cc); inner loops run through the
// per-ISA lane primitives of tensor/simd_ops.h, which use no FMA at any ISA
// — so SpMMValues results are bitwise-identical across scalar/avx2.

// out(row, :) += w(k) * x(col, :) for every entry k, with adaptive strategy
// selection; `transpose=true` swaps the index roles (the dx backward). Both
// strategies fold each output row's contributions in ascending entry order
// into the zero-initialized `out`, so they produce identical bits — to each
// other and to a plain serial loop — at every ISA and thread count. The
// serial strategy additionally skips building (and caching) the entry
// groups: the right call when the pool cannot help or the multiply is small.
void EntrySpmm(const SparsePattern& pattern, bool transpose, const double* w,
                const Matrix& x, Matrix* out) {
  const size_t nnz = pattern.nnz();
  const size_t d = x.cols();
  if (nnz == 0) return;
  const std::vector<size_t>& out_rows =
      transpose ? pattern.col_indices : pattern.row_indices;
  const std::vector<size_t>& in_rows =
      transpose ? pattern.row_indices : pattern.col_indices;
  const tensor::SimdOps* ops = tensor::ActiveOps();
  const int ep = util::EffectiveParallelism();
  if (tensor::tuning::ChooseSpmmTranspose(nnz, d, out->rows(), ep) ==
      tensor::tuning::ReduceStrategy::kSerialScatter) {
    for (size_t k = 0; k < nnz; ++k) {
      ops->axpy(out->row(out_rows[k]), x.row(in_rows[k]), d, w[k]);
    }
    return;
  }
  const std::shared_ptr<const SparsePattern::EntryGroups> groups =
      transpose ? pattern.ColGroups() : pattern.RowGroups();
  const tensor::GatherSpec spec{groups->offsets.data(), groups->order.data(),
                                in_rows.data(),         w,
                                x.data(),               d,
                                out->data(),            false};
  util::ParallelFor(
      0, out->rows(),
      tensor::tuning::GatherRowGrain(out->rows(), nnz * d, ep),
      [&](size_t r0, size_t r1) { ops->gather_rows(spec, r0, r1); });
}

// Counting sort of entry ids by `keys`, ids ascending within each group.
std::shared_ptr<const SparsePattern::EntryGroups> BuildGroups(
    const std::vector<size_t>& keys, size_t num_groups) {
  auto g = std::make_shared<SparsePattern::EntryGroups>();
  g->offsets.assign(num_groups + 1, 0);
  for (size_t key : keys) ++g->offsets[key + 1];
  for (size_t i = 1; i <= num_groups; ++i) g->offsets[i] += g->offsets[i - 1];
  g->order.resize(keys.size());
  std::vector<size_t> cursor(g->offsets.begin(), g->offsets.end() - 1);
  for (size_t k = 0; k < keys.size(); ++k) g->order[cursor[keys[k]]++] = k;
  return g;
}

}  // namespace

std::shared_ptr<const SparsePattern::EntryGroups> SparsePattern::RowGroups()
    const {
  if (gcache_ == nullptr) {  // moved-from pattern being reused
    gcache_ = std::make_shared<GroupCache>();
  }
  const std::shared_ptr<GroupCache> cache = gcache_;
  std::lock_guard<std::mutex> lock(cache->mu);
  if (cache->by_row == nullptr) cache->by_row = BuildGroups(row_indices, rows);
  return cache->by_row;
}

std::shared_ptr<const SparsePattern::EntryGroups> SparsePattern::ColGroups()
    const {
  if (gcache_ == nullptr) {
    gcache_ = std::make_shared<GroupCache>();
  }
  const std::shared_ptr<GroupCache> cache = gcache_;
  std::lock_guard<std::mutex> lock(cache->mu);
  if (cache->by_col == nullptr) cache->by_col = BuildGroups(col_indices, cols);
  return cache->by_col;
}

graph::SparseMatrix SparsePattern::WithValues(
    const std::vector<double>& values) const {
  ADAMGNN_CHECK_EQ(values.size(), nnz());
  std::vector<graph::Triplet> t;
  t.reserve(nnz());
  for (size_t k = 0; k < nnz(); ++k) {
    t.push_back({row_indices[k], col_indices[k], values[k]});
  }
  return graph::SparseMatrix::FromTriplets(rows, cols, std::move(t));
}

Variable SpMM(std::shared_ptr<const graph::SparseMatrix> s,
              const Variable& x) {
  ADAMGNN_CHECK(s != nullptr);
  ADAMGNN_CHECK_EQ(s->cols(), x.rows());
  auto px = x.node();
  return Variable::FromNode(
      NewOpNode(s->MultiplyDense(x.value()), {px}, [s, px](Node& self) {
        AccumulateGrad(px.get(), s->TransposeMultiplyDense(self.grad));
      }));
}

Variable SpMMTranspose(std::shared_ptr<const graph::SparseMatrix> s,
                       const Variable& x) {
  ADAMGNN_CHECK(s != nullptr);
  ADAMGNN_CHECK_EQ(s->rows(), x.rows());
  auto px = x.node();
  return Variable::FromNode(NewOpNode(s->TransposeMultiplyDense(x.value()),
                                      {px}, [s, px](Node& self) {
                                        AccumulateGrad(
                                            px.get(),
                                            s->MultiplyDense(self.grad));
                                      }));
}

Variable SpMMValues(std::shared_ptr<const SparsePattern> pattern,
                    const Variable& values, const Variable& x) {
  ADAMGNN_CHECK(pattern != nullptr);
  auto pv = values.node();
  auto px = x.node();

  ADAMGNN_CHECK_EQ(values.rows(), pattern->nnz());
  ADAMGNN_CHECK_EQ(values.cols(), 1u);
  ADAMGNN_CHECK_EQ(pattern->cols, x.rows());
  Matrix out(pattern->rows, x.cols());
  EntrySpmm(*pattern, /*transpose=*/false, values.value().data(), x.value(),
            &out);

  return Variable::FromNode(NewOpNode(
      std::move(out), {pv, px}, [pattern, pv, px](Node& self) {
        const size_t d = px->value.cols();
        const size_t nnz = pattern->nnz();
        if (pv->requires_grad) {
          // Gather: dvals(k) is owned by exactly one chunk. Scalar
          // ascending-j dots, identical at every ISA.
          Matrix dvals(nnz, 1);
          util::ParallelFor(
              0, nnz,
              tensor::tuning::GatherEntryGrain(nnz, nnz * d,
                                               util::EffectiveParallelism()),
              [&](size_t b, size_t e) {
                for (size_t k = b; k < e; ++k) {
                  const double* g = self.grad.row(pattern->row_indices[k]);
                  const double* xr = px->value.row(pattern->col_indices[k]);
                  double s = 0.0;
                  for (size_t j = 0; j < d; ++j) s += g[j] * xr[j];
                  dvals(k, 0) = s;
                }
              });
          AccumulateGrad(pv.get(), dvals);
        }
        if (px->requires_grad) {
          // dx rows through the transposed pattern: gather per dx row via
          // the cached column groups.
          Matrix dx(px->value.rows(), d);
          EntrySpmm(*pattern, /*transpose=*/true, pv->value.data(), self.grad,
                    &dx);
          AccumulateGrad(px.get(), dx);
        }
      }));
}

}  // namespace adamgnn::autograd
