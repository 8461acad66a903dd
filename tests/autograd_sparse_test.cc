#include "autograd/sparse_ops.h"

#include <memory>

#include "autograd/ops.h"
#include "graph/sparse_matrix.h"
#include "gtest/gtest.h"
#include "tensor/kernels.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace adamgnn::autograd {
namespace {

using adamgnn::testing::ExpectGradientsMatch;
using graph::SparseMatrix;
using graph::Triplet;
using tensor::Matrix;

Matrix WeightsOf(size_t rows, size_t cols, uint64_t seed) {
  util::Rng rng(seed);
  return Matrix::Gaussian(rows, cols, 1.0, &rng);
}

/// Sum of x ∘ W: its gradient w.r.t. x is exactly W = WeightsOf(x, seed).
Variable WeightedSum(const Variable& x, uint64_t seed) {
  return Sum(CwiseMul(
      x, Variable::Constant(WeightsOf(x.rows(), x.cols(), seed))));
}

std::shared_ptr<const SparseMatrix> SmallSparse() {
  return std::make_shared<const SparseMatrix>(SparseMatrix::FromTriplets(
      3, 4, {{0, 1, 2.0}, {1, 0, -1.0}, {1, 3, 0.5}, {2, 2, 3.0}}));
}

TEST(SpMMTest, ForwardMatchesDense) {
  auto s = SmallSparse();
  util::Rng rng(1);
  Matrix x = Matrix::Gaussian(4, 3, 1.0, &rng);
  Variable y = SpMM(s, Variable::Constant(x));
  EXPECT_TRUE(tensor::AllClose(y.value(),
                               tensor::MatMul(s->ToDense(), x), 1e-12));
}

TEST(SpMMTest, GradientMatchesFiniteDifference) {
  auto s = SmallSparse();
  util::Rng rng(2);
  Variable x = Variable::Parameter(Matrix::Gaussian(4, 3, 1.0, &rng));
  ExpectGradientsMatch(x, [&] { return WeightedSum(SpMM(s, x), 3); });
}

TEST(SpMMTransposeTest, ForwardMatchesDense) {
  auto s = SmallSparse();
  util::Rng rng(3);
  Matrix x = Matrix::Gaussian(3, 2, 1.0, &rng);
  Variable y = SpMMTranspose(s, Variable::Constant(x));
  EXPECT_TRUE(tensor::AllClose(
      y.value(), tensor::MatMul(s->ToDense().Transposed(), x), 1e-12));
}

TEST(SpMMTransposeTest, GradientMatchesFiniteDifference) {
  auto s = SmallSparse();
  util::Rng rng(4);
  Variable x = Variable::Parameter(Matrix::Gaussian(3, 2, 1.0, &rng));
  ExpectGradientsMatch(x, [&] { return WeightedSum(SpMMTranspose(s, x), 5); });
}

std::shared_ptr<const SparsePattern> SmallPattern() {
  auto p = std::make_shared<SparsePattern>();
  p->rows = 3;
  p->cols = 4;
  p->row_indices = {0, 1, 1, 2};
  p->col_indices = {1, 0, 3, 2};
  return p;
}

TEST(SpMMValuesTest, ForwardMatchesMaterialized) {
  auto pattern = SmallPattern();
  util::Rng rng(5);
  Matrix vals = Matrix::Gaussian(4, 1, 1.0, &rng);
  Matrix x = Matrix::Gaussian(4, 3, 1.0, &rng);
  Variable y = SpMMValues(pattern, Variable::Constant(vals),
                          Variable::Constant(x));
  SparseMatrix s = pattern->WithValues(
      std::vector<double>(vals.data(), vals.data() + vals.size()));
  EXPECT_TRUE(tensor::AllClose(y.value(), s.MultiplyDense(x), 1e-12));
}

TEST(SpMMValuesTest, GradientWrtValues) {
  auto pattern = SmallPattern();
  util::Rng rng(6);
  Variable vals = Variable::Parameter(Matrix::Gaussian(4, 1, 1.0, &rng));
  Variable x = Variable::Constant(Matrix::Gaussian(4, 3, 1.0, &rng));
  ExpectGradientsMatch(
      vals, [&] { return WeightedSum(SpMMValues(pattern, vals, x), 7); });
}

TEST(SpMMValuesTest, GradientWrtDense) {
  auto pattern = SmallPattern();
  util::Rng rng(7);
  Variable vals = Variable::Constant(Matrix::Gaussian(4, 1, 1.0, &rng));
  Variable x = Variable::Parameter(Matrix::Gaussian(4, 3, 1.0, &rng));
  ExpectGradientsMatch(
      x, [&] { return WeightedSum(SpMMValues(pattern, vals, x), 8); });
}

TEST(SpMMValuesTest, GradientWrtBothSimultaneously) {
  auto pattern = SmallPattern();
  util::Rng rng(8);
  Variable vals = Variable::Parameter(Matrix::Gaussian(4, 1, 1.0, &rng));
  Variable x = Variable::Parameter(Matrix::Gaussian(4, 3, 1.0, &rng));
  auto loss = [&] { return WeightedSum(SpMMValues(pattern, vals, x), 9); };
  ExpectGradientsMatch(vals, loss);
  ExpectGradientsMatch(x, loss);
}

TEST(SpMMValuesTest, DuplicateCoordinatesAccumulate) {
  auto p = std::make_shared<SparsePattern>();
  p->rows = 2;
  p->cols = 2;
  p->row_indices = {0, 0};
  p->col_indices = {1, 1};  // two entries at the same position
  Variable vals =
      Variable::Constant(Matrix(2, 1, std::vector<double>{2.0, 3.0}));
  Variable x = Variable::Constant(Matrix::Identity(2));
  Variable y = SpMMValues(p, vals, x);
  EXPECT_DOUBLE_EQ(y.value()(0, 1), 5.0);
}

TEST(SparsePatternTest, WithValuesRoundTrip) {
  auto pattern = SmallPattern();
  SparseMatrix s = pattern->WithValues({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(s.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(s.At(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(s.At(1, 3), 3.0);
  EXPECT_DOUBLE_EQ(s.At(2, 2), 4.0);
}

TEST(SpMMTest, ChainedUnpoolingGradient) {
  // Two-level S chain, as in AdamGNN's unpooling: S1 (4x3), S2 (3x2).
  auto p1 = std::make_shared<SparsePattern>();
  p1->rows = 4;
  p1->cols = 3;
  p1->row_indices = {0, 1, 2, 3};
  p1->col_indices = {0, 0, 1, 2};
  auto p2 = std::make_shared<SparsePattern>();
  p2->rows = 3;
  p2->cols = 2;
  p2->row_indices = {0, 1, 2};
  p2->col_indices = {0, 1, 1};
  util::Rng rng(10);
  Variable v1 = Variable::Parameter(Matrix::Uniform(4, 1, 0.2, 1.0, &rng));
  Variable v2 = Variable::Parameter(Matrix::Uniform(3, 1, 0.2, 1.0, &rng));
  Variable h = Variable::Parameter(Matrix::Gaussian(2, 3, 1.0, &rng));
  auto loss = [&] {
    return WeightedSum(SpMMValues(p1, v1, SpMMValues(p2, v2, h)), 11);
  };
  ExpectGradientsMatch(v1, loss);
  ExpectGradientsMatch(v2, loss);
  ExpectGradientsMatch(h, loss);
}

// ---------------------------------------------------------------------------
// Threading determinism: the CSR SpMM forward/backward paths must produce
// bitwise-identical values and gradients at thread counts {1, 2, 7}. Sizes
// are chosen above the nnz * cols parallelization gate.
// ---------------------------------------------------------------------------

std::shared_ptr<const SparseMatrix> LargeSparse(size_t rows, size_t cols,
                                                size_t nnz, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Triplet> t;
  t.reserve(nnz);
  for (size_t k = 0; k < nnz; ++k) {
    t.push_back({rng.NextUint64(rows), rng.NextUint64(cols),
                 rng.NextUniform(0.1, 1.0)});
  }
  return std::make_shared<const SparseMatrix>(
      SparseMatrix::FromTriplets(rows, cols, std::move(t)));
}

std::shared_ptr<SparsePattern> LargePattern(size_t rows, size_t cols,
                                            size_t nnz, uint64_t seed) {
  util::Rng rng(seed);
  auto p = std::make_shared<SparsePattern>();
  p->rows = rows;
  p->cols = cols;
  for (size_t k = 0; k < nnz; ++k) {
    p->row_indices.push_back(rng.NextUint64(rows));
    p->col_indices.push_back(rng.NextUint64(cols));
  }
  return p;
}

template <typename Fn>
void ExpectBitwiseIdenticalAcrossThreadCounts(const Fn& fn) {
  util::SetNumThreads(1);
  const std::vector<Matrix> reference = fn();
  for (int t : {2, 7}) {
    util::SetNumThreads(t);
    const std::vector<Matrix> got = fn();
    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i] == reference[i])
          << "output " << i << " differs at threads=" << t;
    }
  }
  util::SetNumThreads(0);
}

TEST(SpMMThreadingTest, ForwardAndBackwardBitwiseAcrossThreadCounts) {
  auto s = LargeSparse(2000, 1500, 30000, 31);
  util::Rng rng(32);
  const Matrix x0 = Matrix::Gaussian(1500, 64, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] {
    Variable x = Variable::Parameter(x0);
    Variable y = SpMM(s, x);
    Backward(WeightedSum(y, 33));
    return std::vector<Matrix>{y.value(), x.grad()};
  });
}

TEST(SpMMThreadingTest, TransposeForwardAndBackwardBitwiseAcrossThreadCounts) {
  auto s = LargeSparse(2000, 1500, 30000, 34);
  util::Rng rng(35);
  const Matrix x0 = Matrix::Gaussian(2000, 64, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] {
    Variable x = Variable::Parameter(x0);
    Variable y = SpMMTranspose(s, x);
    Backward(WeightedSum(y, 36));
    return std::vector<Matrix>{y.value(), x.grad()};
  });
}

TEST(SpMMValuesThreadingTest, ForwardAndBackwardBitwiseAcrossThreadCounts) {
  auto p = LargePattern(2000, 1500, 30000, 37);
  util::Rng rng(38);
  const Matrix v0 = Matrix::Uniform(p->nnz(), 1, 0.2, 1.0, &rng);
  const Matrix x0 = Matrix::Gaussian(1500, 64, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] {
    Variable v = Variable::Parameter(v0);
    Variable x = Variable::Parameter(x0);
    Variable y = SpMMValues(p, v, x);
    Backward(WeightedSum(y, 39));
    return std::vector<Matrix>{y.value(), v.grad(), x.grad()};
  });
}

// ---------------------------------------------------------------------------
// Reference check: at every thread count the sparse ops, forward and
// backward, equal plain serial loops bitwise. Each kernel folds every output
// row's contributions in ascending source order from +0.0, so SpMM and SpMMᵀ
// must reproduce an ascending loop over the dense matrix (skipping its
// structural zeros, which add nothing), and SpMMValues an ascending loop
// over the pattern's entries. The shape is above the parallel-work gate, so
// threads > 1 take the row-parallel gather strategies.
// ---------------------------------------------------------------------------

// y = a * x over the dense a, ascending in the inner index.
Matrix DenseTimes(const Matrix& a, const Matrix& x) {
  Matrix y(a.rows(), x.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t k = 0; k < a.cols(); ++k) {
      if (a(r, k) == 0.0) continue;
      for (size_t j = 0; j < x.cols(); ++j) y(r, j) += a(r, k) * x(k, j);
    }
  }
  return y;
}

TEST(SparseOpsReferenceTest, AllThreadCountsMatchSerialLoopsBitwise) {
  auto s = LargeSparse(2000, 1500, 30000, 50);
  auto p = LargePattern(2000, 1500, 30000, 51);
  util::Rng rng(52);
  const Matrix xs0 = Matrix::Gaussian(1500, 64, 1.0, &rng);
  const Matrix xt0 = Matrix::Gaussian(2000, 64, 1.0, &rng);
  const Matrix v0 = Matrix::Uniform(p->nnz(), 1, 0.2, 1.0, &rng);

  // The upstream gradient of WeightedSum(y, seed) is WeightsOf(y, seed).
  const Matrix dense = s->ToDense();
  const Matrix dense_t = dense.Transposed();
  const Matrix w_spmm = WeightsOf(2000, 64, 53);
  const Matrix w_spmmt = WeightsOf(1500, 64, 54);
  const Matrix w_values = WeightsOf(2000, 64, 55);
  Matrix values_y(2000, 64), values_dv(p->nnz(), 1), values_dx(1500, 64);
  for (size_t k = 0; k < p->nnz(); ++k) {
    const size_t r = p->row_indices[k], c = p->col_indices[k];
    double dot = 0.0;
    for (size_t j = 0; j < 64; ++j) {
      values_y(r, j) += v0(k, 0) * xs0(c, j);
      values_dx(c, j) += v0(k, 0) * w_values(r, j);
      dot += w_values(r, j) * xs0(c, j);
    }
    values_dv(k, 0) = dot;
  }
  const std::vector<Matrix> reference = {
      DenseTimes(dense, xs0),   DenseTimes(dense_t, w_spmm),
      DenseTimes(dense_t, xt0), DenseTimes(dense, w_spmmt),
      values_y,                 values_dv,
      values_dx};

  for (int t : {1, 2, 7}) {
    util::SetNumThreads(t);
    std::vector<Matrix> got;
    {
      Variable x = Variable::Parameter(xs0);
      Variable y = SpMM(s, x);
      Backward(WeightedSum(y, 53));
      got.push_back(y.value());
      got.push_back(x.grad());
    }
    {
      Variable x = Variable::Parameter(xt0);
      Variable y = SpMMTranspose(s, x);
      Backward(WeightedSum(y, 54));
      got.push_back(y.value());
      got.push_back(x.grad());
    }
    {
      Variable v = Variable::Parameter(v0);
      Variable x = Variable::Parameter(xs0);
      Variable y = SpMMValues(p, v, x);
      Backward(WeightedSum(y, 55));
      got.push_back(y.value());
      got.push_back(v.grad());
      got.push_back(x.grad());
    }
    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i] == reference[i])
          << "output " << i << " differs from the serial loop at threads="
          << t;
    }
  }
  util::SetNumThreads(0);
}

// ---------------------------------------------------------------------------
// Edge cases: empty pattern / empty operand shapes.
// ---------------------------------------------------------------------------

TEST(SpMMValuesEdgeTest, EmptyPatternYieldsZeroOutputAndGradients) {
  auto p = std::make_shared<SparsePattern>();
  p->rows = 3;
  p->cols = 2;
  util::Rng rng(40);
  Variable v = Variable::Parameter(Matrix(0, 1));
  Variable x = Variable::Parameter(Matrix::Gaussian(2, 4, 1.0, &rng));
  Variable y = SpMMValues(p, v, x);
  EXPECT_TRUE(tensor::AllClose(y.value(), Matrix(3, 4), 0.0));
  Backward(WeightedSum(y, 41));
  EXPECT_TRUE(tensor::AllClose(x.grad(), Matrix(2, 4), 0.0));
}

TEST(SpMMEdgeTest, EmptySparseMatrixProducts) {
  auto s = std::make_shared<const SparseMatrix>(
      SparseMatrix::FromTriplets(0, 4, {}));
  util::Rng rng(42);
  Variable x = Variable::Constant(Matrix::Gaussian(4, 3, 1.0, &rng));
  Variable y = SpMM(s, x);
  EXPECT_EQ(y.rows(), 0u);
  EXPECT_EQ(y.cols(), 3u);
  // Transpose direction: (0x4)^T * (0x3) -> 4x3 zeros.
  Variable z = SpMMTranspose(s, Variable::Constant(Matrix(0, 3)));
  EXPECT_TRUE(tensor::AllClose(z.value(), Matrix(4, 3), 0.0));
}

}  // namespace
}  // namespace adamgnn::autograd
