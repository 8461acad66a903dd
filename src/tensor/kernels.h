// Dense linear-algebra kernels over Matrix. These are the non-differentiable
// primitives; the autograd layer composes them into differentiable ops.
//
// Threading: the MatMul variants, elementwise maps, SoftmaxRows, and the
// segment reductions run on the shared pool in util/thread_pool.h. Results
// are bitwise-identical at every thread count (ADAMGNN_NUM_THREADS /
// util::SetNumThreads), including the serial threads == 1 fallback: either
// the decomposition is a pure function of the operand shapes, or (GEMM and
// the segment reductions) every decomposition produces the same per-element
// fold order, so consulting the pool size for strategy selection cannot
// change bits.
//
// ISA dispatch: the inner loops run through the runtime-selected SIMD
// backend (tensor/isa.h, ADAMGNN_ISA=scalar|avx2). Sparse/segment kernels
// are bitwise-identical across both ISAs; the MatMul variants use explicit
// FMA at avx2 and differ from scalar within an ULP-bounded tolerance.

#ifndef ADAMGNN_TENSOR_KERNELS_H_
#define ADAMGNN_TENSOR_KERNELS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/matrix.h"

namespace adamgnn::tensor {

/// C = A * B. Shapes: (m,k) x (k,n) -> (m,n).
Matrix MatMul(const Matrix& a, const Matrix& b);
/// C = A^T * B. Shapes: (k,m) x (k,n) -> (m,n). Avoids materializing A^T.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);
/// C = A * B^T. Shapes: (m,k) x (n,k) -> (m,n). Avoids materializing B^T.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// Elementwise sum / difference / product (shapes must match).
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix CwiseMul(const Matrix& a, const Matrix& b);

/// a * scalar.
Matrix Scale(const Matrix& a, double scalar);

/// Adds a 1 x cols row vector to every row of a.
Matrix AddRowBroadcast(const Matrix& a, const Matrix& row);
/// Multiplies row r of a by col(r, 0); col is rows x 1.
Matrix MulColBroadcast(const Matrix& a, const Matrix& col);

/// Horizontal concatenation [a | b]; row counts must match.
Matrix ConcatCols(const Matrix& a, const Matrix& b);
/// Vertical concatenation [a ; b]; column counts must match.
Matrix ConcatRows(const Matrix& a, const Matrix& b);

/// Column sums as a 1 x cols matrix.
Matrix ColSum(const Matrix& a);
/// Row sums as a rows x 1 matrix.
Matrix RowSum(const Matrix& a);
/// Row means as a rows x 1 matrix.
Matrix RowMean(const Matrix& a);
/// Per-row maximum as rows x 1.
Matrix RowMax(const Matrix& a);

/// Numerically stable row-wise softmax. Requires cols > 0 (same contract as
/// RowMax; a row-wise reduction over zero columns is undefined).
Matrix SoftmaxRows(const Matrix& a);

/// Elementwise maps.
Matrix Relu(const Matrix& a);
Matrix LeakyRelu(const Matrix& a, double slope);
Matrix Sigmoid(const Matrix& a);
Matrix Tanh(const Matrix& a);
Matrix Exp(const Matrix& a);
/// Elementwise natural log. Inputs are clamped to >= 1e-300 first, so zeros
/// and negatives from degenerate inputs yield a large-but-finite negative
/// value instead of -inf/NaN that would silently poison training.
Matrix Log(const Matrix& a);

/// Sum over segments: out(seg[i], :) += a(i, :). out has num_segments rows.
/// Bitwise-identical to the plain serial ascending-i loop at every thread
/// count and strategy (see IndexAddRows). Every segment id must be
/// < num_segments.
Matrix SegmentSum(const Matrix& a, const std::vector<size_t>& segments,
                  size_t num_segments);

/// Mean over segments; empty segments yield zero rows.
Matrix SegmentMean(const Matrix& a, const std::vector<size_t>& segments,
                   size_t num_segments);

/// Indexed row accumulation: out(index[i], :) += a(i, :), out has num_rows
/// rows. Bitwise-identical to the plain serial ascending-i loop at every
/// thread count and strategy; large inputs run segment-grouped and
/// row-parallel instead (the backward of a row gather, the forward of a row
/// scatter), picked adaptively per call (see tensor/tuning.h). Every index
/// must be < num_rows.
Matrix IndexAddRows(const Matrix& a, const std::vector<size_t>& index,
                    size_t num_rows);

/// Columnwise max over segments; empty segments yield zero rows. When
/// `argmax` is non-null it is resized to num_segments * a.cols() and
/// argmax[s * cols + j] records the input row owning the max of column j in
/// segment s (-1 for empty segments). Ties keep the first-seen row.
Matrix SegmentMax(const Matrix& a, const std::vector<size_t>& segments,
                  size_t num_segments, std::vector<int64_t>* argmax = nullptr);

/// Per-segment softmax over an (m x 1) score column: within each segment the
/// entries are exponentiated (max-shifted for stability) and normalized to
/// sum to one. Every segment id must be < num_segments.
Matrix SegmentSoftmax(const Matrix& scores, const std::vector<size_t>& segments,
                      size_t num_segments);

/// Pairwise row dot products: out(e, 0) = h.row(pairs[e].first) ·
/// h.row(pairs[e].second). Both endpoints must be < h.rows().
Matrix EdgeDots(const Matrix& h,
                const std::vector<std::pair<size_t, size_t>>& pairs);

}  // namespace adamgnn::tensor

#endif  // ADAMGNN_TENSOR_KERNELS_H_
