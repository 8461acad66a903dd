#include <cmath>
#include <memory>
#include <vector>

#include "autograd/ops.h"
#include "graph/sparse_matrix.h"
#include "gtest/gtest.h"
#include "nn/dropout.h"
#include "nn/gat_conv.h"
#include "nn/gcn_conv.h"
#include "nn/gin_conv.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/pair_logits.h"
#include "nn/sage_conv.h"
#include "tensor/kernels.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace adamgnn::nn {
namespace {

using adamgnn::testing::CountNegative;
using adamgnn::testing::ExpectGradientsMatch;
using adamgnn::testing::LeakyReluSegmentSoftmax;
using adamgnn::testing::RingWithChords;
using adamgnn::testing::TwoTriangles;
using autograd::Variable;
using tensor::Matrix;

Variable WeightedSum(const Variable& x, uint64_t seed) {
  util::Rng rng(seed);
  Matrix w = Matrix::Gaussian(x.rows(), x.cols(), 1.0, &rng);
  return autograd::Sum(autograd::CwiseMul(x, Variable::Constant(w)));
}

TEST(InitTest, GlorotBoundsAndShape) {
  util::Rng rng(1);
  Matrix w = GlorotUniform(30, 20, &rng);
  EXPECT_EQ(w.rows(), 30u);
  EXPECT_EQ(w.cols(), 20u);
  const double bound = std::sqrt(6.0 / 50.0);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::fabs(w.data()[i]), bound);
  }
}

TEST(InitTest, HeNormalSpread) {
  util::Rng rng(2);
  Matrix w = HeNormal(200, 100, &rng);
  double sq = 0;
  for (size_t i = 0; i < w.size(); ++i) sq += w.data()[i] * w.data()[i];
  EXPECT_NEAR(sq / static_cast<double>(w.size()), 2.0 / 200.0, 0.002);
}

TEST(LinearTest, ShapesAndBias) {
  util::Rng rng(3);
  Linear layer(4, 3, /*use_bias=*/true, &rng);
  Variable x = Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng));
  Variable y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 3u);
  EXPECT_EQ(layer.Parameters().size(), 2u);
  EXPECT_EQ(layer.NumParameterScalars(), 4u * 3u + 3u);
}

TEST(LinearTest, NoBiasVariant) {
  util::Rng rng(4);
  Linear layer(4, 3, /*use_bias=*/false, &rng);
  EXPECT_EQ(layer.Parameters().size(), 1u);
}

TEST(LinearTest, GradientsFlowToParams) {
  util::Rng rng(5);
  Linear layer(3, 2, /*use_bias=*/true, &rng);
  Variable x = Variable::Constant(Matrix::Gaussian(4, 3, 1.0, &rng));
  for (auto& p : layer.Parameters()) {
    ExpectGradientsMatch(p, [&] { return WeightedSum(layer.Forward(x), 6); });
  }
}

TEST(GcnConvTest, ForwardMatchesManualComputation) {
  graph::Graph g = TwoTriangles();
  auto norm = std::make_shared<const graph::SparseMatrix>(
      graph::SparseMatrix::NormalizedAdjacency(g));
  util::Rng rng(7);
  GcnConv conv(4, 2, &rng);
  Variable x = Variable::Constant(g.features());
  Variable y = conv.Forward(norm, x);
  EXPECT_EQ(y.rows(), 6u);
  EXPECT_EQ(y.cols(), 2u);
  // Â X W + b computed by hand from the layer's own parameters.
  Matrix w = conv.Parameters()[0].value();
  Matrix b = conv.Parameters()[1].value();
  Matrix expect = tensor::AddRowBroadcast(
      norm->MultiplyDense(tensor::MatMul(g.features(), w)), b);
  EXPECT_TRUE(tensor::AllClose(y.value(), expect, 1e-10));
}

TEST(GcnConvTest, ParameterGradients) {
  graph::Graph g = TwoTriangles();
  auto norm = std::make_shared<const graph::SparseMatrix>(
      graph::SparseMatrix::NormalizedAdjacency(g));
  util::Rng rng(8);
  GcnConv conv(4, 3, &rng);
  Variable x = Variable::Constant(g.features());
  for (auto& p : conv.Parameters()) {
    ExpectGradientsMatch(
        p, [&] { return WeightedSum(conv.Forward(norm, x), 9); });
  }
}

TEST(SageConvTest, MeanOperatorRowsSumToOne) {
  graph::Graph g = TwoTriangles();
  auto mean = SageConv::MeanOperator(g);
  for (size_t r = 0; r < mean->rows(); ++r) {
    double sum = 0;
    for (size_t k = mean->row_offsets()[r]; k < mean->row_offsets()[r + 1];
         ++k) {
      sum += mean->values()[k];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(SageConvTest, ParameterGradients) {
  graph::Graph g = TwoTriangles();
  auto mean = SageConv::MeanOperator(g);
  util::Rng rng(10);
  SageConv conv(4, 3, &rng);
  Variable x = Variable::Constant(g.features());
  for (auto& p : conv.Parameters()) {
    ExpectGradientsMatch(
        p, [&] { return WeightedSum(conv.Forward(mean, x), 11); });
  }
}

TEST(GatConvTest, EdgeIndexIncludesSelfLoops) {
  graph::Graph g = TwoTriangles();
  auto idx = GatConv::BuildEdgeIndex(g);
  EXPECT_EQ(idx->num_edges(), 2 * g.num_edges() + g.num_nodes());
  size_t self_loops = 0;
  for (size_t e = 0; e < idx->num_edges(); ++e) {
    if (idx->src[e] == idx->dst[e]) ++self_loops;
  }
  EXPECT_EQ(self_loops, g.num_nodes());
}

TEST(GatConvTest, ParameterGradients) {
  graph::Graph g = TwoTriangles();
  auto idx = GatConv::BuildEdgeIndex(g);
  util::Rng rng(12);
  GatConv conv(4, 3, &rng);
  Variable x = Variable::Constant(g.features());
  for (auto& p : conv.Parameters()) {
    ExpectGradientsMatch(
        p, [&] { return WeightedSum(conv.Forward(idx, x), 13); },
        1e-5, 5e-6);
  }
}

TEST(GatConvTest, MatchesConcatFormula) {
  // h'_v = Σ_u α_uv z_u + b, α = softmax over v's in-edges of
  // LeakyReLU([a_src; a_dst]ᵀ (z_u ‖ z_v)), evaluated edge by edge.
  graph::Graph g = RingWithChords(20, 5, 12, 90);
  auto idx = GatConv::BuildEdgeIndex(g);
  util::Rng rng(91);
  GatConv conv(5, 4, &rng);
  std::vector<Variable> params = conv.Parameters();  // W, a_src, a_dst, b
  params[3].mutable_value() = Matrix::Gaussian(1, 4, 1.0, &rng);
  Matrix x = Matrix::Gaussian(20, 5, 1.0, &rng);
  Matrix out = conv.Forward(idx, Variable::Constant(x)).value();

  const Matrix& w = params[0].value();
  Matrix z(20, 4);
  for (size_t r = 0; r < 20; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      for (size_t k = 0; k < 5; ++k) z(r, c) += x(r, k) * w(k, c);
    }
  }
  const size_t m = idx->num_edges();
  std::vector<double> pre(m, 0.0);
  for (size_t e = 0; e < m; ++e) {
    for (size_t c = 0; c < 4; ++c) {
      pre[e] += params[1].value()(c, 0) * z(idx->src[e], c) +
                params[2].value()(c, 0) * z(idx->dst[e], c);
    }
  }
  const std::vector<double> alpha = LeakyReluSegmentSoftmax(pre, idx->dst, 20);
  Matrix want(20, 4);
  for (size_t v = 0; v < 20; ++v) {
    for (size_t c = 0; c < 4; ++c) want(v, c) = params[3].value()(0, c);
  }
  for (size_t e = 0; e < m; ++e) {
    for (size_t c = 0; c < 4; ++c) {
      want(idx->dst[e], c) += alpha[e] * z(idx->src[e], c);
    }
  }
  ASSERT_GT(CountNegative(pre), 0u);
  ASSERT_LT(CountNegative(pre), m);
  for (size_t v = 0; v < 20; ++v) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(out(v, c), want(v, c), 1e-12 * std::fabs(want(v, c)))
          << "node " << v << " col " << c;
    }
  }
}

// LeakyReLU(aᵀ (s·x_l ‖ x_r)) per pair, from the stacked a = [a_l; a_r].
std::vector<double> ConcatPairLogits(const Matrix& x, const Matrix& a,
                                     const std::vector<size_t>& left,
                                     const std::vector<size_t>& right,
                                     const Matrix& scale,
                                     std::vector<double>* pre) {
  const size_t d = x.cols();
  std::vector<double> out(left.size());
  pre->assign(left.size(), 0.0);
  for (size_t p = 0; p < left.size(); ++p) {
    for (size_t k = 0; k < d; ++k) {
      (*pre)[p] += a(k, 0) * scale(p, 0) * x(left[p], k) +
                   a(d + k, 0) * x(right[p], k);
    }
    out[p] = (*pre)[p] > 0 ? (*pre)[p] : 0.2 * (*pre)[p];
  }
  return out;
}

TEST(PairLogitsTest, MatchesConcatFormulaAndGradients) {
  util::Rng rng(95);
  const size_t n = 9, d = 4, m = 40;
  Variable x = Variable::Parameter(Matrix::Gaussian(n, d, 1.0, &rng));
  Variable a = Variable::Parameter(Matrix::Gaussian(2 * d, 1, 1.0, &rng));
  Variable scale = Variable::Parameter(Matrix::Gaussian(m, 1, 1.0, &rng));
  std::vector<size_t> left(m), right(m);
  for (size_t p = 0; p < m; ++p) {
    left[p] = static_cast<size_t>(rng.NextUint64(n));
    right[p] = static_cast<size_t>(rng.NextUint64(n));
  }
  Variable halves = AttentionHalves(a);
  ASSERT_EQ(halves.rows(), d);
  ASSERT_EQ(halves.cols(), 2u);
  for (size_t k = 0; k < d; ++k) {
    EXPECT_EQ(halves.value()(k, 0), a.value()(k, 0));
    EXPECT_EQ(halves.value()(k, 1), a.value()(d + k, 0));
  }

  std::vector<double> pre;
  std::vector<double> want =
      ConcatPairLogits(x.value(), a.value(), left, right, scale.value(), &pre);
  ASSERT_GT(CountNegative(pre), 0u);
  ASSERT_LT(CountNegative(pre), m);
  Matrix got = PairLogits(x, halves, left, right, scale).value();
  ASSERT_EQ(got.rows(), m);
  for (size_t p = 0; p < m; ++p) {
    EXPECT_NEAR(got(p, 0), want[p], 1e-12 * std::fabs(want[p]))
        << "pair " << p;
  }

  auto loss = [&] {
    return WeightedSum(PairLogits(x, AttentionHalves(a), left, right, scale),
                       96);
  };
  ExpectGradientsMatch(x, loss);
  ExpectGradientsMatch(a, loss);
  ExpectGradientsMatch(scale, loss);
}

TEST(GinConvTest, EpsilonAffectsOutput) {
  graph::Graph g = TwoTriangles();
  auto adj = GinConv::SumOperator(g);
  util::Rng rng(14);
  GinConv conv(4, 8, 3, &rng);
  Variable x = Variable::Constant(g.features());
  Matrix before = conv.Forward(adj, x).value();
  // Bump epsilon (last parameter) and expect the output to move.
  auto params = conv.Parameters();
  params.back().mutable_value()(0, 0) = 2.0;
  Matrix after = conv.Forward(adj, x).value();
  EXPECT_FALSE(tensor::AllClose(before, after, 1e-9));
}

TEST(GinConvTest, ParameterGradients) {
  graph::Graph g = TwoTriangles();
  auto adj = GinConv::SumOperator(g);
  util::Rng rng(15);
  GinConv conv(4, 5, 3, &rng);
  Variable x = Variable::Constant(g.features());
  for (auto& p : conv.Parameters()) {
    ExpectGradientsMatch(
        p, [&] { return WeightedSum(conv.Forward(adj, x), 16); },
        1e-5, 5e-6);
  }
}

TEST(DropoutTest, IdentityAtEval) {
  util::Rng rng(17);
  Dropout drop(0.5);
  Variable x = Variable::Constant(Matrix::Gaussian(4, 4, 1.0, &rng));
  Variable y = drop.Apply(x, &rng, /*training=*/false);
  EXPECT_TRUE(tensor::AllClose(y.value(), x.value(), 0.0));
}

TEST(DropoutTest, EvalIsExactIdentityWithNullRng) {
  // Serving contract: eval-mode Apply must not touch the RNG at all, so a
  // tape-free inference path may pass nullptr.
  util::Rng rng(21);
  Dropout drop(0.5);
  Variable x = Variable::Constant(Matrix::Gaussian(5, 3, 1.0, &rng));
  Variable y = drop.Apply(x, /*rng=*/nullptr, /*training=*/false);
  EXPECT_TRUE(y.value() == x.value());
}

TEST(DropoutTest, EvalLeavesRngStreamUntouched) {
  // Eval results must not depend on RNG stream position — and must not
  // advance it: the draw sequence after an eval Apply is identical to one
  // where Apply never happened.
  util::Rng rng(22);
  Dropout drop(0.5);
  Variable x = Variable::Constant(Matrix::Gaussian(6, 6, 1.0, &rng));
  const std::vector<uint64_t> before = rng.SaveState();
  (void)drop.Apply(x, &rng, /*training=*/false);
  EXPECT_EQ(rng.SaveState(), before);
  util::Rng replay(0);
  ASSERT_TRUE(replay.RestoreState(before));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rng.NextUint64(1u << 30), replay.NextUint64(1u << 30));
  }
}

TEST(DropoutTest, ZeroRateIsIdentityInTraining) {
  util::Rng rng(18);
  Dropout drop(0.0);
  Variable x = Variable::Constant(Matrix::Gaussian(4, 4, 1.0, &rng));
  Variable y = drop.Apply(x, &rng, /*training=*/true);
  EXPECT_TRUE(tensor::AllClose(y.value(), x.value(), 0.0));
}

TEST(DropoutTest, DropsRoughlyPFractionAndRescales) {
  util::Rng rng(19);
  Dropout drop(0.3);
  Variable x = Variable::Constant(Matrix::Ones(100, 100));
  Variable y = drop.Apply(x, &rng, /*training=*/true);
  size_t zeros = 0;
  for (size_t i = 0; i < y.value().size(); ++i) {
    const double v = y.value().data()[i];
    if (v == 0.0) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0 / 0.7, 1e-12);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.3, 0.03);
}

TEST(ModuleTest, CollectParameters) {
  util::Rng rng(20);
  Linear a(2, 3, true, &rng);
  Linear b(3, 4, false, &rng);
  auto all = CollectParameters({&a, &b});
  EXPECT_EQ(all.size(), 3u);
}

TEST(DropoutTest, MaskIndependentOfThreadCount) {
  // Large enough to take the parallel per-row-stream path; the mask (and
  // therefore any model output) must be bitwise-identical at every thread
  // count for a fixed seed.
  Dropout drop(0.4);
  auto mask_at = [&](int threads) {
    util::SetNumThreads(threads);
    util::Rng rng(17);
    autograd::Variable ones =
        autograd::Variable::Constant(tensor::Matrix::Ones(700, 50));
    return drop.Apply(ones, &rng, /*training=*/true).value();
  };
  const tensor::Matrix reference = mask_at(1);
  EXPECT_TRUE(mask_at(2) == reference);
  EXPECT_TRUE(mask_at(7) == reference);
  util::SetNumThreads(0);
}

}  // namespace
}  // namespace adamgnn::nn
