#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "tensor/isa.h"
#include "tensor/simd_ops.h"
#include "tensor/tuning.h"
#include "tensor/workspace.h"
#include "util/thread_pool.h"

namespace adamgnn::tensor {

namespace {

// Elementwise thresholds and grains. These decompositions are pure
// functions of the operand shapes — never of the thread count — so results
// are bitwise-identical at any ADAMGNN_NUM_THREADS (see util/thread_pool.h).
// GEMM and the sparse/segment reductions additionally consult
// util::EffectiveParallelism() via tensor/tuning.h, which is safe because
// their bits are invariant to the decomposition.
constexpr size_t kElemGrain = size_t{1} << 14;  // elements per chunk

// Inputs at or below kLogTiny (including zero and negatives from degenerate
// cluster assignments) are clamped before std::log so downstream training
// never sees NaN/-inf. log(1e-300) ~= -690.8.
constexpr double kLogTiny = 1e-300;

size_t ElemGrain(size_t total) {
  return total < tuning::kMinParallelElems ? (total == 0 ? 1 : total)
                                           : kElemGrain;
}

size_t RowGrain(size_t rows, size_t cols) {
  const size_t total = rows * cols;
  if (total < tuning::kMinParallelElems) return rows == 0 ? 1 : rows;
  const size_t per_chunk = kElemGrain / (cols == 0 ? 1 : cols);
  return per_chunk < 1 ? 1 : per_chunk;
}

// Per-kernel-variant dispatch counters: which ISA the GEMMs ran at, and
// which strategy the adaptive reductions picked.
obs::Counter& GemmDispatchCounter(Isa isa) {
  static obs::Counter* scalar_calls = new obs::Counter("kernel.gemm.scalar");
  static obs::Counter* avx2_calls = new obs::Counter("kernel.gemm.avx2");
  switch (isa) {
    case Isa::kAvx2:
      return *avx2_calls;
    default:
      return *scalar_calls;
  }
}

obs::Counter& SegmentStrategyCounter(tuning::ReduceStrategy strategy) {
  static obs::Counter* serial_calls =
      new obs::Counter("kernel.segment_reduce.serial");
  static obs::Counter* gather_calls =
      new obs::Counter("kernel.segment_reduce.gather");
  return strategy == tuning::ReduceStrategy::kSerialScatter ? *serial_calls
                                                            : *gather_calls;
}

// Writes c[i] = f(a[i]) into an uninitialized result: one read pass and one
// write pass, versus copy-then-apply's two of each. Entry-wise, so the
// parallel split cannot affect the values.
template <typename F>
void ParallelApplyInto(const Matrix& a, Matrix* c, F f) {
  const double* s = a.data();
  double* d = c->data();
  util::ParallelFor(0, a.size(), ElemGrain(a.size()),
                    [s, d, f](size_t b, size_t e) {
                      for (size_t i = b; i < e; ++i) d[i] = f(s[i]);
                    });
}

// Writes c[i] = f(a[i], b[i]) into an uninitialized result.
template <typename F>
void ParallelCombineInto(const Matrix& a, const Matrix& b, Matrix* c, F f) {
  const double* sa = a.data();
  const double* sb = b.data();
  double* d = c->data();
  util::ParallelFor(0, a.size(), ElemGrain(a.size()),
                    [sa, sb, d, f](size_t b2, size_t e) {
                      for (size_t i = b2; i < e; ++i) d[i] = f(sa[i], sb[i]);
                    });
}

// ---------------------------------------------------------------------------
// GEMM dispatch. The microkernels live in the per-ISA translation units
// (kernels_{scalar,avx2}.cc, shared body in kernels_isa_body.inc);
// this layer packs B once, fans C rows across the pool, and hands each
// chunk a Workspace-backed A-packing scratch. Per output element the fold
// is a single accumulator over ascending k (K blocks accumulate in order),
// so results are bitwise-identical at every thread count for a fixed ISA;
// avx2 differs from scalar only via its explicit in-kernel FMA
// (ULP-bounded, see tests/isa_test.cc).
// ---------------------------------------------------------------------------

// Packs b's 8-column panels into panel-major layout: panel j/8 occupies
// k * 8 consecutive doubles, row p at offset p * 8. Leftover columns
// (n % 8) are read from b directly by the scalar tail.
std::vector<double> PackPanels(const Matrix& b) {
  const size_t k = b.rows(), n = b.cols();
  const size_t num_panels = n / 8;
  std::vector<double> packed(num_panels * k * 8);
  // Serial: packing is O(k*n) against the multiply's O(m*k*n).
  for (size_t panel = 0; panel < num_panels; ++panel) {
    double* dst = packed.data() + panel * k * 8;
    const size_t j = panel * 8;
    for (size_t p = 0; p < k; ++p) {
      const double* bp = b.row(p) + j;
      for (int u = 0; u < 8; ++u) dst[p * 8 + u] = bp[u];
    }
  }
  return packed;
}

// Same layout for MatMulTransB, where the effective B'(p, j) = b(j, p):
// panel row p holds b(8 * panel + u, p) for u in [0, 8).
std::vector<double> PackPanelsTransB(const Matrix& b) {
  const size_t k = b.cols(), n = b.rows();
  const size_t num_panels = n / 8;
  std::vector<double> packed(num_panels * k * 8);
  for (size_t panel = 0; panel < num_panels; ++panel) {
    double* dst = packed.data() + panel * k * 8;
    const size_t j = panel * 8;
    for (int u = 0; u < 8; ++u) {
      const double* br = b.row(j + u);
      for (size_t p = 0; p < k; ++p) dst[p * 8 + u] = br[p];
    }
  }
  return packed;
}

// Fans C rows across the pool; each chunk gets its own A-packing scratch
// (groups of 4 rows interleaved, one K block at a time — see
// kernels_isa_body.inc). proto.apack is filled in per chunk.
void GemmDispatch(const GemmArgs& proto, size_t m, size_t k, size_t n) {
  const SimdOps* ops = ActiveOps();
  GemmDispatchCounter(ops->isa).Add();
  const size_t grain =
      tuning::MatMulGrain(m, k, n, util::EffectiveParallelism());
  util::ParallelFor(0, m, grain, [&](size_t i0, size_t i1) {
    const size_t kc = k < tuning::kGemmKc ? k : tuning::kGemmKc;
    const size_t rows4 = (i1 - i0 + 3) & ~size_t{3};
    std::vector<double> apack = Workspace::AcquireUninit(kc * rows4);
    GemmArgs args = proto;
    args.apack = apack.data();
    ops->gemm_rows(args, i0, i1);
    Workspace::Release(std::move(apack));
  });
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  ADAMGNN_CHECK_EQ(a.cols(), b.rows());
  Matrix c = Matrix::Uninit(a.rows(), b.cols());  // kernels store every entry
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || n == 0) return c;
  if (k == 0) {  // K-blocked kernel never stores with an empty inner dim
    std::fill(c.data(), c.data() + c.size(), 0.0);
    return c;
  }
  const std::vector<double> packed = PackPanels(b);
  // A(i, p) at a[i * k + p]; B'(p, j) = b[p * n + j].
  GemmDispatch({a.data(), k, 1, b.data(), n, 1, packed.data(), k, n, c.data(),
                n, nullptr},
               m, k, n);
  return c;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  ADAMGNN_CHECK_EQ(a.rows(), b.rows());
  Matrix c = Matrix::Uninit(a.cols(), b.cols());  // kernels store every entry
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (m == 0 || n == 0) return c;
  if (k == 0) {
    std::fill(c.data(), c.data() + c.size(), 0.0);
    return c;
  }
  const std::vector<double> packed = PackPanels(b);
  // (A^T)(i, p) = A(p, i) at a[p * m + i]: row stride 1, element stride m.
  GemmDispatch({a.data(), 1, m, b.data(), n, 1, packed.data(), k, n, c.data(),
                n, nullptr},
               m, k, n);
  return c;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  ADAMGNN_CHECK_EQ(a.cols(), b.cols());
  Matrix c = Matrix::Uninit(a.rows(), b.rows());  // kernels store every entry
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (m == 0 || n == 0) return c;
  if (k == 0) {
    std::fill(c.data(), c.data() + c.size(), 0.0);
    return c;
  }
  const std::vector<double> packed = PackPanelsTransB(b);
  // (B^T)(p, j) = B(j, p) at b[j * k + p]: k stride 1, column stride k.
  GemmDispatch({a.data(), k, 1, b.data(), 1, k, packed.data(), k, n, c.data(),
                n, nullptr},
               m, k, n);
  return c;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  ADAMGNN_CHECK(a.SameShape(b));
  Matrix c = Matrix::Uninit(a.rows(), a.cols());
  ParallelCombineInto(a, b, &c, [](double x, double y) { return x + y; });
  return c;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  ADAMGNN_CHECK(a.SameShape(b));
  Matrix c = Matrix::Uninit(a.rows(), a.cols());
  ParallelCombineInto(a, b, &c, [](double x, double y) { return x - y; });
  return c;
}

Matrix CwiseMul(const Matrix& a, const Matrix& b) {
  ADAMGNN_CHECK(a.SameShape(b));
  Matrix c = Matrix::Uninit(a.rows(), a.cols());
  ParallelCombineInto(a, b, &c, [](double x, double y) { return x * y; });
  return c;
}

Matrix Scale(const Matrix& a, double scalar) {
  Matrix c = Matrix::Uninit(a.rows(), a.cols());
  ParallelApplyInto(a, &c, [scalar](double x) { return x * scalar; });
  return c;
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& row) {
  ADAMGNN_CHECK_EQ(row.rows(), 1u);
  ADAMGNN_CHECK_EQ(row.cols(), a.cols());
  Matrix c = Matrix::Uninit(a.rows(), a.cols());
  const double* rv = row.data();
  util::ParallelFor(0, c.rows(), RowGrain(c.rows(), c.cols()),
                    [&](size_t r0, size_t r1) {
                      for (size_t r = r0; r < r1; ++r) {
                        const double* ar = a.row(r);
                        double* cr = c.row(r);
                        for (size_t j = 0; j < c.cols(); ++j) {
                          cr[j] = ar[j] + rv[j];
                        }
                      }
                    });
  return c;
}

Matrix MulColBroadcast(const Matrix& a, const Matrix& col) {
  ADAMGNN_CHECK_EQ(col.cols(), 1u);
  ADAMGNN_CHECK_EQ(col.rows(), a.rows());
  Matrix c = Matrix::Uninit(a.rows(), a.cols());
  util::ParallelFor(0, c.rows(), RowGrain(c.rows(), c.cols()),
                    [&](size_t r0, size_t r1) {
                      for (size_t r = r0; r < r1; ++r) {
                        const double s = col(r, 0);
                        const double* ar = a.row(r);
                        double* cr = c.row(r);
                        for (size_t j = 0; j < c.cols(); ++j) {
                          cr[j] = ar[j] * s;
                        }
                      }
                    });
  return c;
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  ADAMGNN_CHECK_EQ(a.rows(), b.rows());
  Matrix c = Matrix::Uninit(a.rows(), a.cols() + b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    std::copy(a.row(r), a.row(r) + a.cols(), c.row(r));
    std::copy(b.row(r), b.row(r) + b.cols(), c.row(r) + a.cols());
  }
  return c;
}

Matrix ConcatRows(const Matrix& a, const Matrix& b) {
  ADAMGNN_CHECK_EQ(a.cols(), b.cols());
  Matrix c = Matrix::Uninit(a.rows() + b.rows(), a.cols());
  std::copy(a.data(), a.data() + a.size(), c.data());
  std::copy(b.data(), b.data() + b.size(), c.data() + a.size());
  return c;
}

Matrix ColSum(const Matrix& a) {
  Matrix c(1, a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* ar = a.row(r);
    for (size_t j = 0; j < a.cols(); ++j) c.data()[j] += ar[j];
  }
  return c;
}

Matrix RowSum(const Matrix& a) {
  Matrix c(a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* ar = a.row(r);
    double s = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) s += ar[j];
    c(r, 0) = s;
  }
  return c;
}

Matrix RowMean(const Matrix& a) {
  ADAMGNN_CHECK_GT(a.cols(), 0u);
  Matrix c = RowSum(a);
  c *= 1.0 / static_cast<double>(a.cols());
  return c;
}

Matrix RowMax(const Matrix& a) {
  ADAMGNN_CHECK_GT(a.cols(), 0u);
  Matrix c(a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* ar = a.row(r);
    double m = ar[0];
    for (size_t j = 1; j < a.cols(); ++j) m = std::max(m, ar[j]);
    c(r, 0) = m;
  }
  return c;
}

Matrix SoftmaxRows(const Matrix& a) {
  ADAMGNN_CHECK_GT(a.cols(), 0u);
  Matrix c = Matrix::Uninit(a.rows(), a.cols());
  util::ParallelFor(0, c.rows(), RowGrain(c.rows(), c.cols()),
                    [&](size_t r0, size_t r1) {
                      for (size_t r = r0; r < r1; ++r) {
                        const double* ar = a.row(r);
                        double* cr = c.row(r);
                        double m = ar[0];
                        for (size_t j = 1; j < c.cols(); ++j) {
                          m = std::max(m, ar[j]);
                        }
                        double z = 0.0;
                        for (size_t j = 0; j < c.cols(); ++j) {
                          cr[j] = std::exp(ar[j] - m);
                          z += cr[j];
                        }
                        for (size_t j = 0; j < c.cols(); ++j) cr[j] /= z;
                      }
                    });
  return c;
}

Matrix Relu(const Matrix& a) {
  Matrix c = Matrix::Uninit(a.rows(), a.cols());
  ParallelApplyInto(a, &c, [](double x) { return x > 0.0 ? x : 0.0; });
  return c;
}

Matrix LeakyRelu(const Matrix& a, double slope) {
  Matrix c = Matrix::Uninit(a.rows(), a.cols());
  ParallelApplyInto(a, &c,
                    [slope](double x) { return x > 0.0 ? x : slope * x; });
  return c;
}

Matrix Sigmoid(const Matrix& a) {
  Matrix c = Matrix::Uninit(a.rows(), a.cols());
  ParallelApplyInto(a, &c, [](double x) {
    // Split on sign for numeric stability at large |x|.
    if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
    double e = std::exp(x);
    return e / (1.0 + e);
  });
  return c;
}

Matrix Tanh(const Matrix& a) {
  Matrix c = Matrix::Uninit(a.rows(), a.cols());
  ParallelApplyInto(a, &c, [](double x) { return std::tanh(x); });
  return c;
}

Matrix Exp(const Matrix& a) {
  Matrix c = Matrix::Uninit(a.rows(), a.cols());
  ParallelApplyInto(a, &c, [](double x) { return std::exp(x); });
  return c;
}

Matrix Log(const Matrix& a) {
  Matrix c = Matrix::Uninit(a.rows(), a.cols());
  ParallelApplyInto(
      a, &c, [](double x) { return std::log(std::max(x, kLogTiny)); });
  return c;
}

namespace {

/// Counting-sorts row indices by segment: `row_ids` ends up grouped by
/// segment (CSR-style `offsets`), ascending within each group. Also bounds-
/// checks every segment id. The two output vectors are plain allocations —
/// index data must not churn the bound Workspace.
void GroupRowsBySegment(const std::vector<size_t>& segments,
                        size_t num_segments, std::vector<size_t>* offsets,
                        std::vector<size_t>* row_ids) {
  offsets->assign(num_segments + 1, 0);
  for (size_t s : segments) {
    ADAMGNN_CHECK_LT(s, num_segments);
    ++(*offsets)[s + 1];
  }
  for (size_t s = 0; s < num_segments; ++s) (*offsets)[s + 1] += (*offsets)[s];
  row_ids->resize(segments.size());
  std::vector<size_t> cursor(offsets->begin(), offsets->end() - 1);
  for (size_t r = 0; r < segments.size(); ++r) {
    (*row_ids)[cursor[segments[r]]++] = r;
  }
}

/// Segment reduction with adaptive strategy selection. Both strategies fold
/// each output row's sources in ascending source-row order through the
/// per-ISA lane primitives (no FMA at any ISA), so they produce IDENTICAL
/// bits — to each other, to the plain serial scatter loop, and across
/// scalar/avx2. The choice is pure speed:
///   kSerialScatter  — one ascending pass, no grouping, no pool dispatch;
///                     wins when the pool cannot help or the work is small.
///   kParallelGather — counting-sort rows by segment, then one pool task
///                     per output-row range; no partial accumulators are
///                     allocated, zeroed, or merged.
Matrix SegmentReduce(const Matrix& a, const std::vector<size_t>& segments,
                     size_t num_segments) {
  const size_t rows = a.rows(), cols = a.cols();
  const SimdOps* ops = ActiveOps();
  const tuning::ReduceStrategy strategy = tuning::ChooseSegmentReduce(
      rows, cols, num_segments, util::EffectiveParallelism());
  SegmentStrategyCounter(strategy).Add();
  if (strategy == tuning::ReduceStrategy::kSerialScatter) {
    Matrix c(num_segments, cols);  // zero-init: scatter accumulates in place
    for (size_t r = 0; r < rows; ++r) {
      ADAMGNN_CHECK_LT(segments[r], num_segments);
      ops->vadd(c.row(segments[r]), a.row(r), cols);
    }
    return c;
  }
  Matrix c = Matrix::Uninit(num_segments, cols);  // gather writes all rows
  std::vector<size_t> offsets, row_ids;
  GroupRowsBySegment(segments, num_segments, &offsets, &row_ids);
  const GatherSpec spec{offsets.data(), nullptr, row_ids.data(), nullptr,
                        a.data(),       cols,    c.data(),       true};
  util::ParallelFor(
      0, num_segments, tuning::SegmentGrain(num_segments),
      [&](size_t s0, size_t s1) { ops->gather_rows(spec, s0, s1); });
  return c;
}

}  // namespace

Matrix SegmentSum(const Matrix& a, const std::vector<size_t>& segments,
                  size_t num_segments) {
  ADAMGNN_CHECK_EQ(segments.size(), a.rows());
  return SegmentReduce(a, segments, num_segments);
}

Matrix IndexAddRows(const Matrix& a, const std::vector<size_t>& index,
                    size_t num_rows) {
  ADAMGNN_CHECK_EQ(index.size(), a.rows());
  return SegmentReduce(a, index, num_rows);
}

Matrix SegmentMean(const Matrix& a, const std::vector<size_t>& segments,
                   size_t num_segments) {
  Matrix c = SegmentSum(a, segments, num_segments);
  std::vector<double> counts(num_segments, 0.0);
  for (size_t s : segments) counts[s] += 1.0;
  for (size_t s = 0; s < num_segments; ++s) {
    if (counts[s] == 0.0) continue;
    double inv = 1.0 / counts[s];
    double* cs = c.row(s);
    for (size_t j = 0; j < c.cols(); ++j) cs[j] *= inv;
  }
  return c;
}

Matrix SegmentMax(const Matrix& a, const std::vector<size_t>& segments,
                  size_t num_segments, std::vector<int64_t>* argmax) {
  ADAMGNN_CHECK_EQ(segments.size(), a.rows());
  const size_t d = a.cols();
  Matrix out(num_segments, d);
  std::vector<int64_t> local;
  std::vector<int64_t>& am = argmax != nullptr ? *argmax : local;
  am.assign(num_segments * d, -1);
  for (size_t i = 0; i < segments.size(); ++i) {
    const size_t s = segments[i];
    ADAMGNN_CHECK_LT(s, num_segments);
    const double* ar = a.row(i);
    for (size_t j = 0; j < d; ++j) {
      int64_t& owner = am[s * d + j];
      if (owner < 0 || ar[j] > out(s, j)) {
        out(s, j) = ar[j];
        owner = static_cast<int64_t>(i);
      }
    }
  }
  return out;
}

Matrix SegmentSoftmax(const Matrix& scores, const std::vector<size_t>& segments,
                      size_t num_segments) {
  ADAMGNN_CHECK_EQ(scores.cols(), 1u);
  ADAMGNN_CHECK_EQ(segments.size(), scores.rows());
  const size_t m = scores.rows();
  std::vector<double> seg_max(num_segments,
                              -std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < m; ++i) {
    ADAMGNN_CHECK_LT(segments[i], num_segments);
    seg_max[segments[i]] = std::max(seg_max[segments[i]], scores(i, 0));
  }
  std::vector<double> seg_z(num_segments, 0.0);
  Matrix out(m, 1);
  for (size_t i = 0; i < m; ++i) {
    out(i, 0) = std::exp(scores(i, 0) - seg_max[segments[i]]);
    seg_z[segments[i]] += out(i, 0);
  }
  for (size_t i = 0; i < m; ++i) out(i, 0) /= seg_z[segments[i]];
  return out;
}

Matrix EdgeDots(const Matrix& h,
                const std::vector<std::pair<size_t, size_t>>& pairs) {
  const size_t d = h.cols();
  Matrix out(pairs.size(), 1);
  for (size_t e = 0; e < pairs.size(); ++e) {
    ADAMGNN_CHECK_LT(pairs[e].first, h.rows());
    ADAMGNN_CHECK_LT(pairs[e].second, h.rows());
    const double* hu = h.row(pairs[e].first);
    const double* hv = h.row(pairs[e].second);
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) s += hu[j] * hv[j];
    out(e, 0) = s;
  }
  return out;
}

}  // namespace adamgnn::tensor
