#include "tensor/kernels.h"

#include <cmath>

#include "gtest/gtest.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace adamgnn::tensor {
namespace {

Matrix M(size_t r, size_t c, std::vector<double> v) {
  return Matrix(r, c, std::move(v));
}

TEST(KernelsTest, MatMulSmall) {
  Matrix a = M(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b = M(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(KernelsTest, MatMulIdentity) {
  util::Rng rng(1);
  Matrix a = Matrix::Gaussian(4, 4, 1.0, &rng);
  EXPECT_TRUE(AllClose(MatMul(a, Matrix::Identity(4)), a, 1e-12));
  EXPECT_TRUE(AllClose(MatMul(Matrix::Identity(4), a), a, 1e-12));
}

TEST(KernelsTest, MatMulTransAConsistent) {
  util::Rng rng(2);
  Matrix a = Matrix::Gaussian(5, 3, 1.0, &rng);
  Matrix b = Matrix::Gaussian(5, 4, 1.0, &rng);
  EXPECT_TRUE(AllClose(MatMulTransA(a, b), MatMul(a.Transposed(), b), 1e-10));
}

TEST(KernelsTest, MatMulTransBConsistent) {
  util::Rng rng(3);
  Matrix a = Matrix::Gaussian(5, 3, 1.0, &rng);
  Matrix b = Matrix::Gaussian(4, 3, 1.0, &rng);
  EXPECT_TRUE(AllClose(MatMulTransB(a, b), MatMul(a, b.Transposed()), 1e-10));
}

TEST(KernelsTest, AddSubCwiseScale) {
  Matrix a = M(1, 3, {1, 2, 3});
  Matrix b = M(1, 3, {4, 5, 6});
  EXPECT_TRUE(AllClose(Add(a, b), M(1, 3, {5, 7, 9})));
  EXPECT_TRUE(AllClose(Sub(b, a), M(1, 3, {3, 3, 3})));
  EXPECT_TRUE(AllClose(CwiseMul(a, b), M(1, 3, {4, 10, 18})));
  EXPECT_TRUE(AllClose(Scale(a, -2), M(1, 3, {-2, -4, -6})));
}

TEST(KernelsTest, Broadcasts) {
  Matrix a = M(2, 2, {1, 2, 3, 4});
  EXPECT_TRUE(
      AllClose(AddRowBroadcast(a, M(1, 2, {10, 20})),
               M(2, 2, {11, 22, 13, 24})));
  EXPECT_TRUE(AllClose(MulColBroadcast(a, M(2, 1, {2, 3})),
                       M(2, 2, {2, 4, 9, 12})));
}

TEST(KernelsTest, Concats) {
  Matrix a = M(2, 1, {1, 2});
  Matrix b = M(2, 2, {3, 4, 5, 6});
  Matrix cc = ConcatCols(a, b);
  EXPECT_EQ(cc.cols(), 3u);
  EXPECT_DOUBLE_EQ(cc(1, 2), 6);
  Matrix cr = ConcatRows(M(1, 2, {1, 2}), M(2, 2, {3, 4, 5, 6}));
  EXPECT_EQ(cr.rows(), 3u);
  EXPECT_DOUBLE_EQ(cr(2, 1), 6);
}

TEST(KernelsTest, Reductions) {
  Matrix a = M(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(AllClose(ColSum(a), M(1, 3, {5, 7, 9})));
  EXPECT_TRUE(AllClose(RowSum(a), M(2, 1, {6, 15})));
  EXPECT_TRUE(AllClose(RowMean(a), M(2, 1, {2, 5})));
  EXPECT_TRUE(AllClose(RowMax(a), M(2, 1, {3, 6})));
}

TEST(KernelsTest, SoftmaxRowsSumsToOneAndOrders) {
  Matrix s = SoftmaxRows(M(2, 3, {1, 2, 3, -1, -1, -1}));
  for (size_t r = 0; r < 2; ++r) {
    double sum = 0;
    for (size_t c = 0; c < 3; ++c) sum += s(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  EXPECT_GT(s(0, 2), s(0, 1));
  EXPECT_NEAR(s(1, 0), 1.0 / 3.0, 1e-12);
}

TEST(KernelsTest, SoftmaxRowsStableForLargeLogits) {
  Matrix s = SoftmaxRows(M(1, 2, {1000.0, 1000.0}));
  EXPECT_NEAR(s(0, 0), 0.5, 1e-12);
  EXPECT_TRUE(s.AllFinite());
}

TEST(KernelsTest, Activations) {
  Matrix x = M(1, 4, {-2, -0.5, 0.5, 2});
  Matrix r = Relu(x);
  EXPECT_DOUBLE_EQ(r(0, 0), 0);
  EXPECT_DOUBLE_EQ(r(0, 3), 2);
  Matrix lr = LeakyRelu(x, 0.1);
  EXPECT_DOUBLE_EQ(lr(0, 0), -0.2);
  EXPECT_DOUBLE_EQ(lr(0, 3), 2);
  Matrix sg = Sigmoid(M(1, 2, {0, 100}));
  EXPECT_NEAR(sg(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(sg(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(Tanh(M(1, 1, {0.0}))(0, 0), 0.0, 1e-12);
}

TEST(KernelsTest, SigmoidStableForLargeNegatives) {
  Matrix s = Sigmoid(M(1, 1, {-800.0}));
  EXPECT_TRUE(s.AllFinite());
  EXPECT_NEAR(s(0, 0), 0.0, 1e-12);
}

TEST(KernelsTest, ExpLog) {
  Matrix x = M(1, 2, {0.0, 1.0});
  EXPECT_NEAR(Exp(x)(0, 1), std::exp(1.0), 1e-12);
  EXPECT_NEAR(Log(Exp(x))(0, 1), 1.0, 1e-12);
}

TEST(KernelsTest, SegmentSumAndMean) {
  Matrix x = M(4, 2, {1, 1, 2, 2, 3, 3, 4, 4});
  std::vector<size_t> seg = {0, 0, 2, 2};
  Matrix s = SegmentSum(x, seg, 3);
  EXPECT_TRUE(AllClose(s, M(3, 2, {3, 3, 0, 0, 7, 7})));
  Matrix m = SegmentMean(x, seg, 3);
  EXPECT_TRUE(AllClose(m, M(3, 2, {1.5, 1.5, 0, 0, 3.5, 3.5})));
}

TEST(KernelsTest, MatMulAssociativityProperty) {
  util::Rng rng(8);
  Matrix a = Matrix::Gaussian(3, 4, 1.0, &rng);
  Matrix b = Matrix::Gaussian(4, 5, 1.0, &rng);
  Matrix c = Matrix::Gaussian(5, 2, 1.0, &rng);
  EXPECT_TRUE(
      AllClose(MatMul(MatMul(a, b), c), MatMul(a, MatMul(b, c)), 1e-9));
}

class KernelShapeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelShapeSweep, TransposeOfTransposeIsIdentityMap) {
  util::Rng rng(GetParam());
  Matrix a = Matrix::Gaussian(GetParam() + 1, 2 * GetParam() + 1, 1.0, &rng);
  EXPECT_TRUE(AllClose(a.Transposed().Transposed(), a, 0.0));
}

TEST_P(KernelShapeSweep, SoftmaxRowsAlwaysNormalized) {
  util::Rng rng(GetParam() * 17 + 1);
  Matrix a = Matrix::Gaussian(GetParam() + 1, GetParam() + 2, 3.0, &rng);
  Matrix s = SoftmaxRows(a);
  for (size_t r = 0; r < s.rows(); ++r) {
    double sum = 0;
    for (size_t c = 0; c < s.cols(); ++c) {
      sum += s(r, c);
      EXPECT_GE(s(r, c), 0.0);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelShapeSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---------------------------------------------------------------------------
// Threading determinism: every parallelized kernel must be bitwise-identical
// at thread counts {1, 2, 7}. Shapes are chosen above the parallelization
// gates so the pool actually engages, including odd sizes that exercise the
// blocked GEMM's scalar row/column tails.
// ---------------------------------------------------------------------------

template <typename Fn>
void ExpectBitwiseIdenticalAcrossThreadCounts(const Fn& fn) {
  util::SetNumThreads(1);
  const Matrix reference = fn();
  for (int t : {2, 7}) {
    util::SetNumThreads(t);
    EXPECT_TRUE(fn() == reference) << "result differs at threads=" << t;
  }
  util::SetNumThreads(0);
}

TEST(KernelsThreadingTest, MatMulBitwiseAcrossThreadCounts) {
  util::Rng rng(21);
  Matrix a = Matrix::Gaussian(256, 128, 1.0, &rng);
  Matrix b = Matrix::Gaussian(128, 64, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return MatMul(a, b); });
  // Odd sizes: every tail path of the register-blocked kernel.
  Matrix c = Matrix::Gaussian(211, 97, 1.0, &rng);
  Matrix d = Matrix::Gaussian(97, 53, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return MatMul(c, d); });
}

TEST(KernelsThreadingTest, MatMulTransABitwiseAcrossThreadCounts) {
  util::Rng rng(22);
  Matrix a = Matrix::Gaussian(128, 256, 1.0, &rng);
  Matrix b = Matrix::Gaussian(128, 64, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return MatMulTransA(a, b); });
  Matrix c = Matrix::Gaussian(97, 211, 1.0, &rng);
  Matrix d = Matrix::Gaussian(97, 53, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return MatMulTransA(c, d); });
}

TEST(KernelsThreadingTest, MatMulTransBBitwiseAcrossThreadCounts) {
  util::Rng rng(23);
  Matrix a = Matrix::Gaussian(256, 128, 1.0, &rng);
  Matrix b = Matrix::Gaussian(64, 128, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return MatMulTransB(a, b); });
  Matrix c = Matrix::Gaussian(211, 97, 1.0, &rng);
  Matrix d = Matrix::Gaussian(53, 97, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return MatMulTransB(c, d); });
}

TEST(KernelsThreadingTest, ElementwiseBitwiseAcrossThreadCounts) {
  util::Rng rng(24);
  Matrix a = Matrix::Gaussian(200, 200, 1.0, &rng);
  Matrix b = Matrix::Gaussian(200, 200, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return Add(a, b); });
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return Sub(a, b); });
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return CwiseMul(a, b); });
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return Scale(a, 1.7); });
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return Relu(a); });
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return LeakyRelu(a, 0.1); });
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return Sigmoid(a); });
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return Tanh(a); });
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return Exp(a); });
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return Log(a); });
}

TEST(KernelsThreadingTest, RowKernelsBitwiseAcrossThreadCounts) {
  util::Rng rng(25);
  Matrix a = Matrix::Gaussian(600, 60, 1.0, &rng);
  Matrix row = Matrix::Gaussian(1, 60, 1.0, &rng);
  Matrix col = Matrix::Gaussian(600, 1, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] { return SoftmaxRows(a); });
  ExpectBitwiseIdenticalAcrossThreadCounts(
      [&] { return AddRowBroadcast(a, row); });
  ExpectBitwiseIdenticalAcrossThreadCounts(
      [&] { return MulColBroadcast(a, col); });
}

TEST(KernelsThreadingTest, SegmentKernelsBitwiseAcrossThreadCounts) {
  util::Rng rng(26);
  Matrix a = Matrix::Gaussian(10000, 8, 1.0, &rng);
  const size_t num_segments = 100;
  std::vector<size_t> seg(a.rows());
  for (auto& s : seg) s = rng.NextUint64(num_segments);
  ExpectBitwiseIdenticalAcrossThreadCounts(
      [&] { return SegmentSum(a, seg, num_segments); });
  ExpectBitwiseIdenticalAcrossThreadCounts(
      [&] { return SegmentMean(a, seg, num_segments); });
  ExpectBitwiseIdenticalAcrossThreadCounts(
      [&] { return IndexAddRows(a, seg, num_segments); });
}

// ---------------------------------------------------------------------------
// Serial reference: every strategy of the segment kernels folds each output
// row in ascending source-row order, so at every thread count the result
// must equal a plain ascending loop bitwise — on shapes large enough for
// the row-parallel gather strategy too.
// ---------------------------------------------------------------------------

Matrix SerialIndexAdd(const Matrix& a, const std::vector<size_t>& index,
                      size_t num_rows) {
  Matrix out(num_rows, a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) out(index[i], j) += a(i, j);
  }
  return out;
}

TEST(KernelsEngineTest, SegmentSumThreadInvariantAndMatchesSerialBitwise) {
  util::Rng rng(28);
  Matrix a = Matrix::Gaussian(20000, 24, 1.0, &rng);  // above the gather gate
  const size_t num_segments = 700;
  std::vector<size_t> seg(a.rows());
  for (auto& s : seg) s = rng.NextUint64(num_segments);
  const Matrix serial = SerialIndexAdd(a, seg, num_segments);
  for (int t : {1, 2, 7}) {
    util::SetNumThreads(t);
    EXPECT_TRUE(SegmentSum(a, seg, num_segments) == serial)
        << "differs from the serial loop at threads=" << t;
  }
  util::SetNumThreads(0);
}

TEST(KernelsEngineTest, IndexAddRowsGatherMatchesSerialBitwise) {
  util::Rng rng(29);
  Matrix a = Matrix::Gaussian(20000, 16, 1.0, &rng);  // above the gather gate
  const size_t num_rows = 900;
  std::vector<size_t> idx(a.rows());
  for (auto& s : idx) s = rng.NextUint64(num_rows);
  const Matrix serial = SerialIndexAdd(a, idx, num_rows);
  for (int t : {1, 2, 7}) {
    util::SetNumThreads(t);
    EXPECT_TRUE(IndexAddRows(a, idx, num_rows) == serial)
        << "differs from the serial loop at threads=" << t;
  }
  util::SetNumThreads(0);
}

// ---------------------------------------------------------------------------
// Edge shapes: zero-row, zero-column, 1xN, Nx1, and empty-segment inputs.
// ---------------------------------------------------------------------------

TEST(KernelsEdgeShapeTest, MatMulDegenerateShapes) {
  util::Rng rng(27);
  // 0-row result.
  Matrix a0(0, 5);
  Matrix b = Matrix::Gaussian(5, 3, 1.0, &rng);
  Matrix c = MatMul(a0, b);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 3u);
  // Inner dimension 0: a well-defined all-zeros product.
  Matrix z = MatMul(Matrix(3, 0), Matrix(0, 4));
  EXPECT_TRUE(AllClose(z, Matrix(3, 4), 0.0));
  // 1xN times Nx1 and the transposed variants.
  Matrix u = Matrix::Gaussian(1, 64, 1.0, &rng);
  Matrix v = Matrix::Gaussian(64, 1, 1.0, &rng);
  EXPECT_TRUE(AllClose(MatMul(u, v), MatMulTransB(u, v.Transposed()), 1e-12));
  EXPECT_TRUE(AllClose(MatMul(u, v), MatMulTransA(u.Transposed(), v), 1e-12));
}

TEST(KernelsEdgeShapeTest, RowKernelsOnZeroRows) {
  Matrix empty(0, 5);
  EXPECT_EQ(SoftmaxRows(empty).rows(), 0u);
  EXPECT_EQ(RowMean(empty).rows(), 0u);
  EXPECT_EQ(AddRowBroadcast(empty, Matrix(1, 5)).rows(), 0u);
  EXPECT_EQ(Relu(empty).rows(), 0u);
}

TEST(KernelsEdgeShapeTest, SoftmaxRowsRejectsZeroColumns) {
  EXPECT_DEATH(SoftmaxRows(Matrix(3, 0)), "Check failed");
}

TEST(KernelsEdgeShapeTest, RowMeanRejectsZeroColumns) {
  EXPECT_DEATH(RowMean(Matrix(3, 0)), "Check failed");
}

TEST(KernelsEdgeShapeTest, SegmentSumEmptyInputs) {
  // No rows at all: every segment is empty.
  Matrix none(0, 4);
  Matrix s = SegmentSum(none, {}, 3);
  EXPECT_TRUE(AllClose(s, Matrix(3, 4), 0.0));
  Matrix m = SegmentMean(none, {}, 3);
  EXPECT_TRUE(AllClose(m, Matrix(3, 4), 0.0));
  // Some segments never referenced: their rows stay zero.
  Matrix x = M(2, 1, {5, 7});
  Matrix sum = SegmentSum(x, {2, 2}, 4);
  EXPECT_TRUE(AllClose(sum, M(4, 1, {0, 0, 12, 0}), 0.0));
}

}  // namespace
}  // namespace adamgnn::tensor
