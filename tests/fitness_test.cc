#include "core/fitness.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "autograd/ops.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/random.h"

namespace adamgnn::core {
namespace {

using adamgnn::testing::CountNegative;
using adamgnn::testing::ExpectGradientsMatch;
using adamgnn::testing::LeakyReluSegmentSoftmax;
using adamgnn::testing::RingWithChords;
using adamgnn::testing::TwoTriangles;
using autograd::Variable;
using tensor::Matrix;

TEST(EgoPairsTest, OneHopMatchesAdjacency) {
  graph::Graph g = TwoTriangles();
  EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), 1);
  EXPECT_EQ(pairs.num_nodes, 6u);
  // Every directed adjacency entry is one pair.
  EXPECT_EQ(pairs.num_pairs(), 2 * g.num_edges());
  for (size_t p = 0; p < pairs.num_pairs(); ++p) {
    EXPECT_TRUE(g.HasEdge(static_cast<graph::NodeId>(pairs.ego[p]),
                          static_cast<graph::NodeId>(pairs.member[p])));
  }
}

TEST(EgoPairsTest, TwoHopGrowsNetworks) {
  graph::Graph g = TwoTriangles();
  EgoPairs one = EgoPairs::Build(AdjacencyLists(g), 1);
  EgoPairs two = EgoPairs::Build(AdjacencyLists(g), 2);
  EXPECT_GT(two.num_pairs(), one.num_pairs());
}

TEST(EgoPairsTest, NoSelfPairs) {
  graph::Graph g = TwoTriangles();
  EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), 2);
  for (size_t p = 0; p < pairs.num_pairs(); ++p) {
    EXPECT_NE(pairs.ego[p], pairs.member[p]);
  }
}

TEST(EgoPairsTest, EmptyGraphHasNoPairs) {
  std::vector<std::vector<size_t>> adj(4);
  EgoPairs pairs = EgoPairs::Build(adj, 1);
  EXPECT_EQ(pairs.num_pairs(), 0u);
}

TEST(FitnessScorerTest, ScoresInUnitIntervalAndShaped) {
  graph::Graph g = TwoTriangles();
  EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), 1);
  util::Rng rng(1);
  FitnessScorer scorer(4, &rng);
  Variable h = Variable::Constant(g.features());
  FitnessScorer::Scores s = scorer.Score(pairs, h);
  EXPECT_EQ(s.pair_phi.rows(), pairs.num_pairs());
  EXPECT_EQ(s.pair_phi.cols(), 1u);
  EXPECT_EQ(s.ego_phi.rows(), 6u);
  for (size_t p = 0; p < pairs.num_pairs(); ++p) {
    EXPECT_GT(s.pair_phi.value()(p, 0), 0.0);
    EXPECT_LT(s.pair_phi.value()(p, 0), 1.0);
  }
}

TEST(FitnessScorerTest, EgoPhiIsMeanOfPairPhi) {
  graph::Graph g = TwoTriangles();
  EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), 1);
  util::Rng rng(2);
  FitnessScorer scorer(4, &rng);
  FitnessScorer::Scores s =
      scorer.Score(pairs, Variable::Constant(g.features()));
  for (size_t v = 0; v < 6; ++v) {
    double sum = 0;
    size_t count = 0;
    for (size_t p = 0; p < pairs.num_pairs(); ++p) {
      if (pairs.ego[p] == v) {
        sum += s.pair_phi.value()(p, 0);
        ++count;
      }
    }
    ASSERT_GT(count, 0u);
    EXPECT_NEAR(s.ego_phi.value()(v, 0), sum / static_cast<double>(count),
                1e-10);
  }
}

TEST(FitnessScorerTest, AttentionComponentNormalizedPerEgo) {
  // The f^s factors alone sum to 1 within each ego-network; φ = f^s·f^c with
  // f^c in (0,1), so Σ_j φ_ij < 1 for each ego.
  graph::Graph g = TwoTriangles();
  EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), 1);
  util::Rng rng(3);
  FitnessScorer scorer(4, &rng);
  FitnessScorer::Scores s =
      scorer.Score(pairs, Variable::Constant(g.features()));
  std::vector<double> sums(6, 0.0);
  for (size_t p = 0; p < pairs.num_pairs(); ++p) {
    sums[pairs.ego[p]] += s.pair_phi.value()(p, 0);
  }
  for (double sum : sums) EXPECT_LT(sum, 1.0);
}

TEST(FitnessScorerTest, SimilarNodesScoreHigher) {
  // Ego 0 with two members: member 1 identical to the ego, member 2 very
  // different. The f^c (sigmoid dot) component should favor member 1.
  std::vector<std::vector<size_t>> adj = {{1, 2}, {0}, {0}};
  EgoPairs pairs = EgoPairs::Build(adj, 1);
  Matrix h(3, 4);
  for (size_t j = 0; j < 4; ++j) {
    h(0, j) = 1.0;
    h(1, j) = 1.0;   // aligned with ego
    h(2, j) = -1.0;  // anti-aligned
  }
  util::Rng rng(6);
  FitnessScorer scorer(4, &rng);
  FitnessScorer::Scores s = scorer.Score(pairs, Variable::Constant(h));
  double phi_same = 0, phi_diff = 0;
  for (size_t p = 0; p < pairs.num_pairs(); ++p) {
    if (pairs.ego[p] == 0 && pairs.member[p] == 1) {
      phi_same = s.pair_phi.value()(p, 0);
    }
    if (pairs.ego[p] == 0 && pairs.member[p] == 2) {
      phi_diff = s.pair_phi.value()(p, 0);
    }
  }
  EXPECT_GT(phi_same, phi_diff);
}

// Eq. 2 evaluated pair by pair from the parameters, with the concatenated
// attention vector as the paper writes it:
//   pre_p = aᵀ (W h_j ‖ W h_i),  f^s = softmax_{j in c(i)} LeakyReLU(pre_p),
//   f^c = σ(h_jᵀ h_i).
struct ConcatFitness {
  std::vector<double> pre;  // logits before the LeakyReLU
  std::vector<double> phi;  // φ_ij for the scorer's mode
};

ConcatFitness ConcatFormulaFitness(const EgoPairs& pairs, const Matrix& h,
                                   const Matrix& w, const Matrix& a,
                                   FitnessMode mode) {
  const size_t d = h.cols();
  Matrix wh(h.rows(), d);
  for (size_t r = 0; r < h.rows(); ++r) {
    for (size_t c = 0; c < d; ++c) {
      for (size_t k = 0; k < d; ++k) wh(r, c) += h(r, k) * w(k, c);
    }
  }
  const size_t m = pairs.num_pairs();
  ConcatFitness out;
  out.pre.assign(m, 0.0);
  for (size_t p = 0; p < m; ++p) {
    std::vector<double> cat(2 * d);
    for (size_t k = 0; k < d; ++k) {
      cat[k] = wh(pairs.member[p], k);
      cat[d + k] = wh(pairs.ego[p], k);
    }
    for (size_t k = 0; k < 2 * d; ++k) out.pre[p] += a(k, 0) * cat[k];
  }
  const std::vector<double> f_s =
      LeakyReluSegmentSoftmax(out.pre, pairs.ego, pairs.num_nodes);
  out.phi.resize(m);
  for (size_t p = 0; p < m; ++p) {
    double dot = 0.0;
    for (size_t k = 0; k < d; ++k) {
      dot += h(pairs.member[p], k) * h(pairs.ego[p], k);
    }
    const double f_c = 1.0 / (1.0 + std::exp(-dot));
    out.phi[p] = mode == FitnessMode::kAttentionOnly ? f_s[p]
                 : mode == FitnessMode::kSigmoidOnly ? f_c
                                                      : f_s[p] * f_c;
  }
  return out;
}

TEST(FitnessScorerTest, PairLinearLogitsMatchConcatFormula) {
  // Random features and parameters, both LeakyReLU branches taken: the
  // factorised logits must give the φ of the concatenated formula.
  for (FitnessMode mode :
       {FitnessMode::kBoth, FitnessMode::kAttentionOnly}) {
    for (int lambda : {1, 2}) {
      graph::Graph g = RingWithChords(24, 6, 10, 31 + lambda);
      EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), lambda);
      util::Rng rng(40 + lambda);
      FitnessScorer scorer(6, &rng, mode);
      Matrix h = Matrix::Gaussian(24, 6, 1.0, &rng);
      FitnessScorer::Scores s = scorer.Score(pairs, Variable::Constant(h));
      ConcatFitness want =
          ConcatFormulaFitness(pairs, h, scorer.weight().value(),
                               scorer.attention().value(), mode);
      ASSERT_GT(CountNegative(want.pre), 0u);
      ASSERT_LT(CountNegative(want.pre), pairs.num_pairs());
      for (size_t p = 0; p < pairs.num_pairs(); ++p) {
        EXPECT_NEAR(s.pair_phi.value()(p, 0), want.phi[p],
                    1e-12 * std::fabs(want.phi[p]))
            << "pair " << p << " lambda " << lambda;
      }
    }
  }
}

TEST(FitnessScorerTest, GradientsFlowToParametersAndInput) {
  // The fixed two-triangle graph, then random features over a random graph
  // with both LeakyReLU branches taken.
  struct Case {
    graph::Graph g;
    int lambda;
    bool random_h;
  };
  const Case cases[] = {{TwoTriangles(), 1, false},
                        {RingWithChords(14, 4, 6, 51), 2, true}};
  for (const Case& c : cases) {
    EgoPairs pairs = EgoPairs::Build(AdjacencyLists(c.g), c.lambda);
    util::Rng rng(4);
    FitnessScorer scorer(4, &rng);
    Variable h = Variable::Parameter(
        c.random_h ? Matrix::Gaussian(c.g.num_nodes(), 4, 1.0, &rng)
                   : c.g.features());
    if (c.random_h) {
      ConcatFitness ref = ConcatFormulaFitness(
          pairs, h.value(), scorer.weight().value(),
          scorer.attention().value(), FitnessMode::kBoth);
      ASSERT_GT(CountNegative(ref.pre), 0u);
      ASSERT_LT(CountNegative(ref.pre), pairs.num_pairs());
    }
    auto loss = [&] {
      FitnessScorer::Scores s = scorer.Score(pairs, h);
      util::Rng wrng(5);
      Matrix w = Matrix::Gaussian(s.pair_phi.rows(), 1, 1.0, &wrng);
      Matrix v = Matrix::Gaussian(s.ego_phi.rows(), 1, 1.0, &wrng);
      return autograd::Add(
          autograd::Sum(autograd::CwiseMul(s.pair_phi, Variable::Constant(w))),
          autograd::Sum(autograd::CwiseMul(s.ego_phi, Variable::Constant(v))));
    };
    for (auto& p : scorer.Parameters()) {
      ExpectGradientsMatch(p, loss, 1e-5, 5e-6);
    }
    ExpectGradientsMatch(h, loss, 1e-5, 5e-6);
  }
}

}  // namespace
}  // namespace adamgnn::core
