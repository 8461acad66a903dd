#include "graph/sparse_matrix.h"

#include <atomic>
#include <cmath>
#include <thread>

#include "graph/builder.h"
#include "tensor/kernels.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace adamgnn::graph {
namespace {

using adamgnn::testing::ExpectSparseBitwiseEqual;
using adamgnn::testing::TripletPlusIdentity;
using tensor::AllClose;
using tensor::Matrix;

SparseMatrix Small() {
  // [[0,2,0],[1,0,0],[0,0,3]]
  return SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 2.0}, {1, 0, 1.0}, {2, 2, 3.0}});
}

TEST(SparseMatrixTest, FromTripletsCoalescesDuplicates) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.0}, {1, 1, -1.0}, {1, 1, 1.0}});
  EXPECT_EQ(m.nnz(), 1u);  // the (1,1) pair cancels to exact zero
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
}

TEST(SparseMatrixTest, AtReadsStructuralZeros) {
  SparseMatrix m = Small();
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.At(2, 2), 3.0);
}

TEST(SparseMatrixTest, ToDenseRoundTrip) {
  Matrix d = Small().ToDense();
  EXPECT_DOUBLE_EQ(d(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(d(2, 2), 3.0);
  EXPECT_DOUBLE_EQ(d(0, 0), 0.0);
}

TEST(SparseMatrixTest, MultiplyDenseMatchesDense) {
  util::Rng rng(5);
  Matrix x = Matrix::Gaussian(3, 4, 1.0, &rng);
  Matrix expect = tensor::MatMul(Small().ToDense(), x);
  EXPECT_TRUE(AllClose(Small().MultiplyDense(x), expect, 1e-12));
}

TEST(SparseMatrixTest, TransposeMultiplyDenseMatchesDense) {
  util::Rng rng(6);
  Matrix x = Matrix::Gaussian(3, 4, 1.0, &rng);
  Matrix expect = tensor::MatMul(Small().ToDense().Transposed(), x);
  EXPECT_TRUE(AllClose(Small().TransposeMultiplyDense(x), expect, 1e-12));
}

TEST(SparseMatrixTest, TransposedMatchesDense) {
  EXPECT_TRUE(AllClose(Small().Transposed().ToDense(),
                       Small().ToDense().Transposed(), 0.0));
}

TEST(SparseMatrixTest, SparseSparseMultiplyMatchesDense) {
  util::Rng rng(7);
  std::vector<Triplet> ta, tb;
  for (int i = 0; i < 20; ++i) {
    ta.push_back({rng.NextUint64(5), rng.NextUint64(6),
                  rng.NextGaussian()});
    tb.push_back({rng.NextUint64(6), rng.NextUint64(4),
                  rng.NextGaussian()});
  }
  SparseMatrix a = SparseMatrix::FromTriplets(5, 6, ta);
  SparseMatrix b = SparseMatrix::FromTriplets(6, 4, tb);
  Matrix expect = tensor::MatMul(a.ToDense(), b.ToDense());
  EXPECT_TRUE(AllClose(a.Multiply(b).ToDense(), expect, 1e-10));
}

TEST(SparseMatrixTest, IdentityBehaves) {
  SparseMatrix id = SparseMatrix::Identity(3);
  EXPECT_EQ(id.nnz(), 3u);
  EXPECT_TRUE(AllClose(id.Multiply(Small()).ToDense(), Small().ToDense(),
                       1e-12));
}

TEST(SparseMatrixTest, RowNormalizedRowsSumToOne) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 1.0}, {0, 2, 3.0}, {1, 1, 5.0}});
  SparseMatrix r = m.RowNormalized();
  EXPECT_DOUBLE_EQ(r.At(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(r.At(0, 2), 0.75);
  EXPECT_DOUBLE_EQ(r.At(1, 1), 1.0);
}

TEST(SparseMatrixTest, AdjacencyFromGraph) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 2.0).CheckOK();
  b.AddEdge(1, 2).CheckOK();
  Graph g = std::move(b).Build().ValueOrDie();
  SparseMatrix a = SparseMatrix::Adjacency(g);
  EXPECT_EQ(a.nnz(), 4u);
  EXPECT_DOUBLE_EQ(a.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(a.At(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.At(0, 2), 0.0);
}

TEST(SparseMatrixTest, NormalizedAdjacencyRowSumProperties) {
  // For a path of 3 nodes: Â = D^{-1/2}(A+I)D^{-1/2}; symmetric with ones
  // on the spectrum boundary. Spot-check symmetry and self-loop entries.
  GraphBuilder b(3);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(1, 2).CheckOK();
  Graph g = std::move(b).Build().ValueOrDie();
  SparseMatrix norm = SparseMatrix::NormalizedAdjacency(g);
  Matrix d = norm.ToDense();
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(d(i, j), d(j, i), 1e-12);
    }
  }
  // deg+1: node0 -> 2, node1 -> 3.
  EXPECT_NEAR(d(0, 0), 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(d(1, 1), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(d(0, 1), 1.0 / std::sqrt(6.0), 1e-12);
}

TEST(SparseMatrixTest, NormalizedMergesExistingDiagonal) {
  SparseMatrix m =
      SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {0, 1, 1.0},
                                        {1, 0, 1.0}});
  SparseMatrix norm = m.Normalized();
  // Row 0 of A+I: diag 2, off 1 -> degree 3; row 1: off 1, diag 1 -> 2.
  EXPECT_NEAR(norm.At(0, 0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(norm.At(1, 1), 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(norm.At(0, 1), 1.0 / std::sqrt(6.0), 1e-12);
}

TEST(SparseMatrixTest, EmptyMatrixOperations) {
  SparseMatrix m = SparseMatrix::FromTriplets(3, 3, {});
  EXPECT_EQ(m.nnz(), 0u);
  Matrix x = Matrix::Ones(3, 2);
  EXPECT_TRUE(AllClose(m.MultiplyDense(x), Matrix(3, 2), 0.0));
}

class SparseRandomSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparseRandomSweep, TransposeTwiceIsIdentity) {
  util::Rng rng(GetParam());
  std::vector<Triplet> t;
  for (int i = 0; i < 30; ++i) {
    t.push_back({rng.NextUint64(7), rng.NextUint64(9), rng.NextGaussian()});
  }
  SparseMatrix a = SparseMatrix::FromTriplets(7, 9, t);
  EXPECT_TRUE(
      AllClose(a.Transposed().Transposed().ToDense(), a.ToDense(), 0.0));
}

TEST_P(SparseRandomSweep, MultiplyAssociativity) {
  util::Rng rng(GetParam() * 31 + 7);
  auto random_sparse = [&rng](size_t r, size_t c) {
    std::vector<Triplet> t;
    for (int i = 0; i < 15; ++i) {
      t.push_back({rng.NextUint64(r), rng.NextUint64(c),
                   rng.NextGaussian()});
    }
    return SparseMatrix::FromTriplets(r, c, t);
  };
  SparseMatrix a = random_sparse(4, 5);
  SparseMatrix b = random_sparse(5, 6);
  SparseMatrix c = random_sparse(6, 3);
  EXPECT_TRUE(AllClose(a.Multiply(b).Multiply(c).ToDense(),
                       a.Multiply(b.Multiply(c)).ToDense(), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseRandomSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// CSR-native builders against the triplet formulations they replaced. Each
// reference computes every value with the same operations in the same order
// as the builder, collects the entries as triplets and lets FromTriplets sort
// and coalesce them; the builders must match bit for bit.
// ---------------------------------------------------------------------------

/// Gustavson rows dumped as triplets. A column counts as untouched while its
/// accumulator reads 0, so a cancelled column is listed again; FromTriplets
/// never sees the duplicate because the first listing resets the slot.
SparseMatrix TripletMultiply(const SparseMatrix& a, const SparseMatrix& b) {
  std::vector<Triplet> t;
  std::vector<double> acc(b.cols(), 0.0);
  std::vector<size_t> touched;
  for (size_t r = 0; r < a.rows(); ++r) {
    touched.clear();
    for (size_t k = a.row_offsets()[r]; k < a.row_offsets()[r + 1]; ++k) {
      const size_t mid = a.col_indices()[k];
      for (size_t k2 = b.row_offsets()[mid]; k2 < b.row_offsets()[mid + 1];
           ++k2) {
        const size_t c = b.col_indices()[k2];
        if (acc[c] == 0.0) touched.push_back(c);
        acc[c] += a.values()[k] * b.values()[k2];
      }
    }
    for (size_t c : touched) {
      if (acc[c] != 0.0) t.push_back({r, c, acc[c]});
      acc[c] = 0.0;
    }
  }
  return SparseMatrix::FromTriplets(a.rows(), b.cols(), std::move(t));
}

SparseMatrix TripletTransposed(const SparseMatrix& m) {
  std::vector<Triplet> t;
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t k = m.row_offsets()[r]; k < m.row_offsets()[r + 1]; ++k) {
      t.push_back({m.col_indices()[k], r, m.values()[k]});
    }
  }
  return SparseMatrix::FromTriplets(m.cols(), m.rows(), std::move(t));
}

SparseMatrix TripletNormalized(const SparseMatrix& m) {
  const size_t n = m.rows();
  std::vector<Triplet> hat;
  std::vector<double> degree(n, 0.0);
  for (size_t r = 0; r < n; ++r) {
    bool has_diag = false;
    for (size_t k = m.row_offsets()[r]; k < m.row_offsets()[r + 1]; ++k) {
      double v = m.values()[k];
      if (m.col_indices()[k] == r) {
        v += 1.0;
        has_diag = true;
      }
      hat.push_back({r, m.col_indices()[k], v});
      degree[r] += v;
    }
    if (!has_diag) {
      hat.push_back({r, r, 1.0});
      degree[r] += 1.0;
    }
  }
  for (Triplet& t : hat) {
    t.value /= std::sqrt(degree[t.row]) * std::sqrt(degree[t.col]);
  }
  return SparseMatrix::FromTriplets(n, n, std::move(hat));
}

SparseMatrix TripletAdjacency(const Graph& g) {
  std::vector<Triplet> t;
  for (NodeId u = 0; static_cast<size_t>(u) < g.num_nodes(); ++u) {
    auto nbrs = g.Neighbors(u);
    auto ws = g.NeighborWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      t.push_back({static_cast<size_t>(u), static_cast<size_t>(nbrs[i]),
                   ws[i]});
    }
  }
  return SparseMatrix::FromTriplets(g.num_nodes(), g.num_nodes(),
                                    std::move(t));
}

/// rows x cols with each cell filled with probability `density`. Values are
/// small signed integers, so SpGEMM partial sums cancel exactly and a
/// diagonal of -1 cancels the added identity, or Gaussians; `non_negative`
/// takes their magnitude (for Normalized). Low densities leave empty rows
/// and columns, and rows both with and without a stored diagonal.
SparseMatrix RandomCsr(size_t rows, size_t cols, double density,
                       bool integers, bool non_negative, util::Rng* rng) {
  std::vector<Triplet> t;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (rng->NextDouble() >= density) continue;
      double v = integers ? static_cast<double>(rng->NextUint64(5)) - 2.0
                          : rng->NextGaussian();
      if (non_negative) v = std::fabs(v);
      t.push_back({r, c, v});
    }
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(t));
}

class CsrNativeSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsrNativeSweep, MultiplyAndTransposedMatchTripletBuildBitwise) {
  util::Rng rng(GetParam());
  const size_t dims[] = {0, 1, 3, 7, 24};
  for (size_t r : dims) {
    for (size_t m : dims) {
      for (size_t c : dims) {
        for (const bool integers : {true, false}) {
          const double density = rng.NextUniform(0.05, 0.6);
          SCOPED_TRACE(::testing::Message()
                       << r << "x" << m << " * " << m << "x" << c
                       << (integers ? " integers" : " gaussian")
                       << " density " << density);
          const SparseMatrix a =
              RandomCsr(r, m, density, integers, false, &rng);
          const SparseMatrix b =
              RandomCsr(m, c, density, integers, false, &rng);
          ExpectSparseBitwiseEqual(a.Multiply(b), TripletMultiply(a, b));
          ExpectSparseBitwiseEqual(a.Transposed(), TripletTransposed(a));
        }
      }
    }
  }
  // Wide, sparse products: rows that touch only a few of many columns, as
  // well as the dense rows above.
  for (const double density : {0.005, 0.02, 0.05}) {
    SCOPED_TRACE(::testing::Message() << "wide, density " << density);
    const SparseMatrix a = RandomCsr(30, 200, density, false, false, &rng);
    const SparseMatrix b = RandomCsr(200, 300, density, true, false, &rng);
    ExpectSparseBitwiseEqual(a.Multiply(b), TripletMultiply(a, b));
  }
}

TEST_P(CsrNativeSweep, PlusIdentityAndNormalizedMatchTripletBuildBitwise) {
  util::Rng rng(GetParam() + 100);
  for (size_t n : {0, 1, 2, 9, 40}) {
    for (const double density : {0.05, 0.3, 0.9}) {
      for (const bool integers : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << n << "x" << n << " density " << density
                     << (integers ? " integers" : " gaussian"));
        const SparseMatrix signed_m =
            RandomCsr(n, n, density, integers, false, &rng);
        ExpectSparseBitwiseEqual(signed_m.PlusIdentity(),
                                 TripletPlusIdentity(signed_m));
        const SparseMatrix m = RandomCsr(n, n, density, integers, true, &rng);
        ExpectSparseBitwiseEqual(m.PlusIdentity(), TripletPlusIdentity(m));
        ExpectSparseBitwiseEqual(m.Normalized(), TripletNormalized(m));
      }
    }
  }
}

TEST_P(CsrNativeSweep, AdjacencyAndIdentityMatchTripletBuildBitwise) {
  util::Rng rng(GetParam() + 200);
  const size_t n = 30;
  GraphBuilder b(n);
  for (int e = 0; e < 60; ++e) {
    const auto u = static_cast<NodeId>(rng.NextUint64(n));
    const auto v = static_cast<NodeId>(rng.NextUint64(n));
    if (u != v) b.AddEdge(u, v, rng.NextUniform(0.1, 3.0)).CheckOK();
  }
  const Graph g = std::move(b).Build().ValueOrDie();
  ExpectSparseBitwiseEqual(SparseMatrix::Adjacency(g), TripletAdjacency(g));
  ExpectSparseBitwiseEqual(SparseMatrix::NormalizedAdjacency(g),
                           TripletNormalized(TripletAdjacency(g)));
  for (size_t k : {0, 1, 5}) {
    std::vector<Triplet> t;
    for (size_t i = 0; i < k; ++i) t.push_back({i, i, 1.0});
    ExpectSparseBitwiseEqual(SparseMatrix::Identity(k),
                             SparseMatrix::FromTriplets(k, k, std::move(t)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrNativeSweep, ::testing::Values(1, 2, 3));

TEST(CsrNativeTest, MultiplyListsARecancelledColumnOnce) {
  // Row 0 of a * b sums column 0 as +1, -1, +2: the partial sum reads
  // exactly 0 before the column is touched again. Column 1 cancels for good
  // (+1, -1) and column 2 only sees a product that underflows to -0.0, so
  // both are dropped.
  const SparseMatrix a =
      SparseMatrix::FromTriplets(1, 3, {{0, 0, 1.0}, {0, 1, 1.0},
                                        {0, 2, 1.0}});
  const SparseMatrix b = SparseMatrix::FromTriplets(
      3, 3,
      {{0, 0, 1.0}, {1, 0, -1.0}, {2, 0, 2.0}, {0, 1, 1.0}, {1, 1, -1.0}});
  const SparseMatrix tiny =
      SparseMatrix::FromTriplets(1, 1, {{0, 0, -1e-200}});
  const SparseMatrix tinier =
      SparseMatrix::FromTriplets(1, 3, {{0, 2, 1e-200}});
  const SparseMatrix p = a.Multiply(b);
  EXPECT_EQ(p.col_indices(), (std::vector<size_t>{0}));
  EXPECT_EQ(p.values(), (std::vector<double>{2.0}));
  ExpectSparseBitwiseEqual(p, TripletMultiply(a, b));
  const SparseMatrix zero = tiny.Multiply(tinier);
  EXPECT_EQ(zero.nnz(), 0u);
  ExpectSparseBitwiseEqual(zero, TripletMultiply(tiny, tinier));
}

TEST(CsrNativeTest, NormalizedDropsAnEntryThatUnderflows) {
  // Row 0's degree is ~1e300, so the (0, 1) entry 1e-320 scales to 0 and is
  // dropped; row 1 stores no diagonal, so its +1 is summed last.
  const SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1e300}, {0, 1, 1e-320}, {1, 0, 1e-320}});
  const SparseMatrix norm = m.Normalized();
  EXPECT_EQ(norm.At(0, 1), 0.0);
  ExpectSparseBitwiseEqual(norm, TripletNormalized(m));
}

// ---------------------------------------------------------------------------
// SpMMᵀ: the cached transposed view, the adaptive strategies, their bitwise
// thread-invariance, and their bitwise agreement with a plain serial loop
// that visits the source rows in ascending order.
// ---------------------------------------------------------------------------

/// xᵀ-side reference: out(c, :) += m(r, c) * x(r, :) over r ascending.
Matrix SerialTransposeMultiply(const SparseMatrix& m, const Matrix& x) {
  Matrix out(m.cols(), x.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t k = m.row_offsets()[r]; k < m.row_offsets()[r + 1]; ++k) {
      const size_t c = m.col_indices()[k];
      for (size_t j = 0; j < x.cols(); ++j) {
        out(c, j) += m.values()[k] * x(r, j);
      }
    }
  }
  return out;
}

SparseMatrix RandomSparse(size_t rows, size_t cols, size_t nnz,
                          uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Triplet> t;
  t.reserve(nnz);
  for (size_t k = 0; k < nnz; ++k) {
    t.push_back({rng.NextUint64(rows), rng.NextUint64(cols),
                 rng.NextUniform(0.1, 1.0)});
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(t));
}

TEST(SpmmTransposeTest, TransposeViewIsLazyAndPrewarmable) {
  SparseMatrix m = Small();
  EXPECT_FALSE(m.transpose_view_built());
  m.PrewarmTranspose();
  EXPECT_TRUE(m.transpose_view_built());
  m.PrewarmTranspose();  // idempotent
  util::Rng rng(20);
  Matrix x = Matrix::Gaussian(3, 4, 1.0, &rng);
  EXPECT_TRUE(AllClose(m.TransposeMultiplyDense(x),
                       tensor::MatMul(m.ToDense().Transposed(), x), 1e-12));
}

TEST(SpmmTransposeTest, MutableValuesInvalidatesCachedView) {
  // The staleness trap: mutate values after the view exists, then multiply.
  // A stale view would reproduce the pre-mutation product.
  SparseMatrix m = Small();
  util::Rng rng(21);
  Matrix x = Matrix::Gaussian(3, 2, 1.0, &rng);
  Matrix before = m.TransposeMultiplyDense(x);
  // Small multiplies adaptively skip the cached view; build it explicitly so
  // the staleness trap below is armed.
  m.PrewarmTranspose();
  ASSERT_TRUE(m.transpose_view_built());
  for (double& v : m.mutable_values()) v *= 2.0;
  EXPECT_FALSE(m.transpose_view_built());
  Matrix after = m.TransposeMultiplyDense(x);
  EXPECT_TRUE(AllClose(after, tensor::MatMul(m.ToDense().Transposed(), x),
                       1e-12));
  EXPECT_FALSE(after == before);
}

TEST(SpmmTransposeTest, CopiesShareTheViewUntilOneMutates) {
  SparseMatrix a = Small();
  a.PrewarmTranspose();
  SparseMatrix b = a;  // shares the cache box — and the built view
  EXPECT_TRUE(b.transpose_view_built());

  util::Rng rng(22);
  Matrix x = Matrix::Gaussian(3, 2, 1.0, &rng);
  // Mutating `a` detaches it onto a fresh box; `b`'s view stays valid for
  // b's (unchanged) values.
  for (double& v : a.mutable_values()) v += 1.0;
  EXPECT_FALSE(a.transpose_view_built());
  EXPECT_TRUE(b.transpose_view_built());
  EXPECT_TRUE(AllClose(b.TransposeMultiplyDense(x),
                       tensor::MatMul(b.ToDense().Transposed(), x), 1e-12));
  EXPECT_TRUE(AllClose(a.TransposeMultiplyDense(x),
                       tensor::MatMul(a.ToDense().Transposed(), x), 1e-12));
}

TEST(SpmmTransposeTest, RowNormalizedDoesNotInheritStaleView) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 1.0}, {0, 2, 3.0}, {1, 1, 5.0}});
  m.PrewarmTranspose();
  SparseMatrix r = m.RowNormalized();  // edits values on the copy
  EXPECT_FALSE(r.transpose_view_built());
  util::Rng rng(23);
  Matrix x = Matrix::Gaussian(2, 2, 1.0, &rng);
  EXPECT_TRUE(AllClose(r.TransposeMultiplyDense(x),
                       tensor::MatMul(r.ToDense().Transposed(), x), 1e-12));
}

TEST(SpmmTransposeTest, GatherMatchesScatterBitwiseOnEdgeShapes) {
  util::Rng rng(24);
  std::vector<SparseMatrix> cases;
  // Rows with no entries and columns no entry lands in (all-zero view rows).
  cases.push_back(SparseMatrix::FromTriplets(
      6, 5, {{0, 4, 1.5}, {5, 0, -2.0}, {5, 4, 0.25}}));
  // Degenerate vector shapes.
  cases.push_back(SparseMatrix::FromTriplets(1, 7, {{0, 2, 3.0},
                                                    {0, 6, -1.0}}));
  cases.push_back(SparseMatrix::FromTriplets(7, 1, {{1, 0, 2.0},
                                                    {6, 0, 0.5}}));
  // Duplicate triplets coalesced by summation (one pair cancels to zero).
  cases.push_back(SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0}, {0, 1, 2.0}, {2, 2, -4.0}, {2, 2, 4.0}}));
  // Fully empty.
  cases.push_back(SparseMatrix::FromTriplets(4, 3, {}));
  for (const SparseMatrix& m : cases) {
    // Wide enough that nnz * cols clears the parallel-work gate: on one
    // thread that selects the gather over the cached view; on four threads
    // (a multi-core host) these few output rows select the serial scatter.
    const size_t d = m.nnz() == 0 ? 3 : (size_t{1} << 20) / m.nnz() + 1;
    Matrix x = Matrix::Gaussian(m.rows(), d, 1.0, &rng);
    const Matrix serial = SerialTransposeMultiply(m, x);
    for (int t : {1, 4}) {
      util::SetNumThreads(t);
      EXPECT_TRUE(m.TransposeMultiplyDense(x) == serial)
          << "threads=" << t << "\n" << m.DebugString();
    }
    util::SetNumThreads(0);
    EXPECT_TRUE(AllClose(serial, tensor::MatMul(m.ToDense().Transposed(), x),
                         1e-12))
        << m.DebugString();
  }
}

TEST(SpmmTransposeTest, ThreadInvariantAndMatchesSerialBitwise) {
  // Above the parallel-work gate (nnz * cols = 40000 * 64 > 2^20), so
  // threads > 1 take the row-parallel gather over the cached view.
  SparseMatrix m = RandomSparse(3000, 2500, 40000, 25);
  util::Rng rng(26);
  const Matrix x = Matrix::Gaussian(3000, 64, 1.0, &rng);
  const Matrix serial = SerialTransposeMultiply(m, x);
  for (int t : {1, 2, 4, 7}) {
    util::SetNumThreads(t);
    EXPECT_TRUE(m.TransposeMultiplyDense(x) == serial)
        << "differs from the serial loop at threads=" << t;
  }
  util::SetNumThreads(0);
  EXPECT_TRUE(AllClose(serial, tensor::MatMul(m.ToDense().Transposed(), x),
                       1e-9));
}

TEST(SpmmTransposeTest, ConcurrentFirstUseBuildsTheViewOnce) {
  // Many threads race the lazy once-init; TSan (tools/check.sh) verifies the
  // locking, this verifies they all see one coherent view.
  SparseMatrix m = RandomSparse(500, 400, 3000, 27);
  util::Rng rng(28);
  const Matrix x = Matrix::Gaussian(500, 8, 1.0, &rng);
  const Matrix expect = tensor::MatMul(m.ToDense().Transposed(), x);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      m.PrewarmTranspose();
      if (!AllClose(m.TransposeMultiplyDense(x), expect, 1e-12)) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(m.transpose_view_built());
}

}  // namespace
}  // namespace adamgnn::graph
