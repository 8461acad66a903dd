#include "core/assignment.h"

#include <cmath>
#include <vector>

#include "autograd/ops.h"
#include "core/hyper_features.h"
#include "core/unpooling.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/random.h"

namespace adamgnn::core {
namespace {

using adamgnn::testing::CountNegative;
using adamgnn::testing::ExpectGradientsMatch;
using adamgnn::testing::ExpectSparseBitwiseEqual;
using adamgnn::testing::TripletPlusIdentity;
using adamgnn::testing::LeakyReluSegmentSoftmax;
using adamgnn::testing::RingWithChords;
using adamgnn::testing::TwoTriangles;
using autograd::Variable;
using tensor::Matrix;

struct Fixture {
  graph::Graph g;
  std::vector<std::vector<size_t>> adj;
  EgoPairs pairs;
  FitnessScorer scorer;
  Variable h;
  FitnessScorer::Scores scores;
  Selection sel;

  explicit Fixture(uint64_t seed)
      : g(TwoTriangles()),
        adj(AdjacencyLists(g)),
        pairs(EgoPairs::Build(adj, 1)),
        scorer(4, [] {
          static util::Rng rng(3);
          return &rng;
        }()) {
    util::Rng frng(seed);
    h = Variable::Parameter(Matrix::Gaussian(6, 4, 1.0, &frng));
    scores = scorer.Score(pairs, h);
    sel = SelectEgoNetworks(scores.ego_phi.value(), adj, pairs);
  }
};

TEST(AssignmentTest, ShapeAndColumnLayout) {
  Fixture f(1);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  EXPECT_EQ(asg.pattern->rows, 6u);
  EXPECT_EQ(asg.pattern->cols, f.sel.num_hyper_nodes());
  EXPECT_EQ(asg.num_ego_columns, f.sel.selected_egos.size());
  EXPECT_EQ(asg.hyper_to_prev.size(), f.sel.num_hyper_nodes());
  EXPECT_EQ(asg.values.rows(), asg.pattern->nnz());
}

TEST(AssignmentTest, EgoRowsCarryOne) {
  Fixture f(2);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  graph::SparseMatrix s = asg.pattern->WithValues(std::vector<double>(
      asg.values.value().data(),
      asg.values.value().data() + asg.values.value().size()));
  for (size_t c = 0; c < f.sel.selected_egos.size(); ++c) {
    EXPECT_DOUBLE_EQ(s.At(f.sel.selected_egos[c], c), 1.0);
  }
}

TEST(AssignmentTest, RetainedRowsIdentity) {
  Fixture f(3);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  graph::SparseMatrix s = asg.pattern->WithValues(std::vector<double>(
      asg.values.value().data(),
      asg.values.value().data() + asg.values.value().size()));
  for (size_t r = 0; r < f.sel.retained_nodes.size(); ++r) {
    const size_t col = f.sel.selected_egos.size() + r;
    EXPECT_DOUBLE_EQ(s.At(f.sel.retained_nodes[r], col), 1.0);
  }
}

TEST(AssignmentTest, MemberEntriesMatchPhi) {
  Fixture f(4);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  // The leading kept_pair_indices values must equal the gathered φ.
  for (size_t i = 0; i < asg.kept_pair_indices.size(); ++i) {
    EXPECT_DOUBLE_EQ(asg.values.value()(i, 0),
                     f.scores.pair_phi.value()(asg.kept_pair_indices[i], 0));
  }
}

TEST(AssignmentTest, NextAdjacencySymmetricNonNegative) {
  Fixture f(5);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  graph::SparseMatrix prev = graph::SparseMatrix::Adjacency(f.g);
  graph::SparseMatrix next = NextAdjacency(prev, asg);
  EXPECT_EQ(next.rows(), f.sel.num_hyper_nodes());
  EXPECT_EQ(next.cols(), f.sel.num_hyper_nodes());
  Matrix d = next.ToDense();
  for (size_t i = 0; i < d.rows(); ++i) {
    for (size_t j = 0; j < d.cols(); ++j) {
      EXPECT_NEAR(d(i, j), d(j, i), 1e-10);
      EXPECT_GE(d(i, j), 0.0);
    }
  }
}

/// Pools one level over `adj` with a random assignment, checks NextAdjacency
/// bitwise against Sᵀ·Â·S with Â built from triplets, and returns A_k.
graph::SparseMatrix CheckNextAdjacencyLevel(
    const graph::SparseMatrix& prev, const FitnessScorer& scorer,
    util::Rng* rng) {
  const std::vector<std::vector<size_t>> lists =
      AdjacencyListsFromSparse(prev);
  const EgoPairs pairs = EgoPairs::Build(lists, 1);
  const Variable h =
      Variable::Constant(Matrix::Gaussian(prev.rows(), 4, 1.0, rng));
  const FitnessScorer::Scores scores = scorer.Score(pairs, h);
  const Selection sel = SelectEgoNetworks(scores.ego_phi.value(), lists, pairs);
  const Assignment asg = BuildAssignment(pairs, sel, scores);
  const Matrix& values = asg.values.value();
  const graph::SparseMatrix s = asg.pattern->WithValues(
      std::vector<double>(values.data(), values.data() + values.size()));
  const graph::SparseMatrix next = NextAdjacency(prev, asg);
  ExpectSparseBitwiseEqual(
      next, s.Transposed().Multiply(TripletPlusIdentity(prev)).Multiply(s));
  return next;
}

TEST(AssignmentTest, NextAdjacencyMatchesTripletProductBitwise) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    util::Rng rng(seed);
    FitnessScorer scorer(4, &rng);
    const graph::Graph g = RingWithChords(60, 4, 40, seed);
    const graph::SparseMatrix a1 =
        CheckNextAdjacencyLevel(graph::SparseMatrix::Adjacency(g), scorer,
                                &rng);
    // A_1 = Sᵀ Â S stores each hyper-node's self-weight on its diagonal, so
    // the next level merges the identity into existing entries.
    size_t stored_diagonals = 0;
    for (size_t r = 0; r < a1.rows(); ++r) {
      stored_diagonals += a1.At(r, r) != 0.0 ? 1 : 0;
    }
    ASSERT_GT(stored_diagonals, 0u);
    CheckNextAdjacencyLevel(a1, scorer, &rng);
  }
}

TEST(AssignmentTest, AdjacencyListsFromSparseDropSelfLoops) {
  graph::SparseMatrix m = graph::SparseMatrix::FromTriplets(
      3, 3,
      {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.0}, {2, 2, 5.0}});
  auto lists = AdjacencyListsFromSparse(m);
  EXPECT_EQ(lists[0], (std::vector<size_t>{1}));
  EXPECT_EQ(lists[1], (std::vector<size_t>{0}));
  EXPECT_TRUE(lists[2].empty());
}

TEST(HyperFeatureTest, OutputShapeMatchesHyperNodes) {
  Fixture f(6);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  util::Rng rng(7);
  HyperFeatureInit init(4, &rng);
  Variable x_k = init.Initialise(f.sel, asg, f.scores, f.h);
  EXPECT_EQ(x_k.rows(), f.sel.num_hyper_nodes());
  EXPECT_EQ(x_k.cols(), 4u);
  EXPECT_TRUE(x_k.value().AllFinite());
}

TEST(HyperFeatureTest, RetainedRowsKeepTheirRepresentation) {
  Fixture f(8);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  util::Rng rng(9);
  HyperFeatureInit init(4, &rng);
  Variable x_k = init.Initialise(f.sel, asg, f.scores, f.h);
  for (size_t r = 0; r < f.sel.retained_nodes.size(); ++r) {
    const size_t row = f.sel.selected_egos.size() + r;
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(x_k.value()(row, j),
                       f.h.value()(f.sel.retained_nodes[r], j));
    }
  }
}

TEST(HyperFeatureTest, GradientsReachInputRepresentations) {
  Fixture f(10);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  util::Rng rng(11);
  HyperFeatureInit init(4, &rng);
  ExpectGradientsMatch(
      f.h,
      [&] {
        // Rebuild the differentiable pipeline from the perturbed h.
        FitnessScorer::Scores scores = f.scorer.Score(f.pairs, f.h);
        Assignment a2 = BuildAssignment(f.pairs, f.sel, scores);
        Variable x_k = init.Initialise(f.sel, a2, scores, f.h);
        util::Rng wrng(12);
        Matrix w = Matrix::Gaussian(x_k.rows(), x_k.cols(), 1.0, &wrng);
        return autograd::Sum(
            autograd::CwiseMul(x_k, Variable::Constant(w)));
      },
      1e-5, 5e-6);
}

// Eq. 3 evaluated pair by pair from the parameters, with the concatenated
// attention vector: pre_i = aᵀ (W(φ_ij h_j) ‖ h_i), α = segment softmax of
// LeakyReLU(pre), X(ego) = h_ego + Σ α h_member, X(retained) = h_retained.
Matrix ConcatFormulaHyperInit(const Selection& sel, const Assignment& asg,
                              const Matrix& pair_phi, const Matrix& h,
                              const Matrix& w, const Matrix& a,
                              std::vector<double>* pre) {
  const size_t d = h.cols();
  const size_t num_egos = sel.selected_egos.size();
  const size_t m = asg.kept_pair_indices.size();
  pre->assign(m, 0.0);
  for (size_t i = 0; i < m; ++i) {
    const double phi = pair_phi(asg.kept_pair_indices[i], 0);
    std::vector<double> cat(2 * d, 0.0);
    for (size_t c = 0; c < d; ++c) {
      for (size_t k = 0; k < d; ++k) {
        cat[c] += phi * h(asg.member_rows[i], k) * w(k, c);
      }
      cat[d + c] = h(asg.ego_rows[i], c);
    }
    for (size_t k = 0; k < 2 * d; ++k) (*pre)[i] += a(k, 0) * cat[k];
  }
  const std::vector<double> alpha =
      LeakyReluSegmentSoftmax(*pre, asg.init_segments, num_egos);
  Matrix x(sel.num_hyper_nodes(), d);
  for (size_t e = 0; e < num_egos; ++e) {
    for (size_t c = 0; c < d; ++c) x(e, c) = h(sel.selected_egos[e], c);
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t c = 0; c < d; ++c) {
      x(asg.init_segments[i], c) += alpha[i] * h(asg.member_rows[i], c);
    }
  }
  for (size_t r = 0; r < sel.retained_nodes.size(); ++r) {
    for (size_t c = 0; c < d; ++c) {
      x(num_egos + r, c) = h(sel.retained_nodes[r], c);
    }
  }
  return x;
}

// A level over a random graph with several selected ego-networks and kept
// member pairs, scored from random representations.
struct RandomLevel {
  EgoPairs pairs;
  Variable h;
  FitnessScorer::Scores scores;
  Selection sel;
  Assignment asg;

  RandomLevel(size_t n, size_t dim, int lambda, uint64_t seed) {
    graph::Graph g = RingWithChords(n, dim, n / 2, seed);
    std::vector<std::vector<size_t>> adj = AdjacencyLists(g);
    pairs = EgoPairs::Build(adj, lambda);
    util::Rng rng(seed + 1);
    FitnessScorer scorer(dim, &rng);
    h = Variable::Parameter(Matrix::Gaussian(n, dim, 1.0, &rng));
    scores = scorer.Score(pairs, Variable::Constant(h.value()));
    sel = SelectEgoNetworks(scores.ego_phi.value(), adj, pairs);
    asg = BuildAssignment(pairs, sel, scores);
  }
};

TEST(HyperFeatureTest, PairLinearLogitsMatchConcatFormula) {
  for (int lambda : {1, 2}) {
    RandomLevel level(30, 6, lambda, 60 + static_cast<uint64_t>(lambda));
    ASSERT_GT(level.sel.selected_egos.size(), 1u);
    ASSERT_FALSE(level.asg.kept_pair_indices.empty());
    util::Rng rng(70);
    HyperFeatureInit init(6, &rng);
    Variable x_k =
        init.Initialise(level.sel, level.asg, level.scores, level.h);
    std::vector<double> pre;
    Matrix want = ConcatFormulaHyperInit(
        level.sel, level.asg, level.scores.pair_phi.value(), level.h.value(),
        init.weight().value(), init.attention().value(), &pre);
    ASSERT_GT(CountNegative(pre), 0u);
    ASSERT_LT(CountNegative(pre), pre.size());
    ASSERT_EQ(x_k.rows(), want.rows());
    for (size_t r = 0; r < want.rows(); ++r) {
      for (size_t c = 0; c < want.cols(); ++c) {
        EXPECT_NEAR(x_k.value()(r, c), want(r, c),
                    1e-12 * std::fabs(want(r, c)))
            << "row " << r << " col " << c << " lambda " << lambda;
      }
    }
  }
}

TEST(HyperFeatureTest, GradientsMatchFiniteDifferencesOnRandomInputs) {
  RandomLevel level(20, 5, 2, 80);
  ASSERT_FALSE(level.asg.kept_pair_indices.empty());
  util::Rng rng(81);
  HyperFeatureInit init(5, &rng);
  std::vector<double> pre;
  ConcatFormulaHyperInit(level.sel, level.asg, level.scores.pair_phi.value(),
                         level.h.value(), init.weight().value(),
                         init.attention().value(), &pre);
  ASSERT_GT(CountNegative(pre), 0u);
  ASSERT_LT(CountNegative(pre), pre.size());
  // φ is held fixed (a constant input here), so these are Eq. 3's own
  // gradients; the chain through Eq. 2 is GradientsReachInputRepresentations.
  auto loss = [&] {
    Variable x_k =
        init.Initialise(level.sel, level.asg, level.scores, level.h);
    util::Rng wrng(82);
    Matrix w = Matrix::Gaussian(x_k.rows(), x_k.cols(), 1.0, &wrng);
    return autograd::Sum(autograd::CwiseMul(x_k, Variable::Constant(w)));
  };
  ExpectGradientsMatch(init.weight(), loss, 1e-5, 5e-6);
  ExpectGradientsMatch(init.attention(), loss, 1e-5, 5e-6);
  ExpectGradientsMatch(level.h, loss, 1e-5, 5e-6);
}

TEST(UnpoolingTest, RestoresOriginalRowCount) {
  Fixture f(13);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  util::Rng rng(14);
  Variable h_k = Variable::Constant(
      Matrix::Gaussian(f.sel.num_hyper_nodes(), 4, 1.0, &rng));
  Variable restored = Unpool({asg}, 1, h_k);
  EXPECT_EQ(restored.rows(), 6u);
  EXPECT_EQ(restored.cols(), 4u);
}

TEST(UnpoolingTest, MatchesExplicitSparseProduct) {
  Fixture f(15);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  util::Rng rng(16);
  Matrix h_k = Matrix::Gaussian(f.sel.num_hyper_nodes(), 4, 1.0, &rng);
  Variable restored = Unpool({asg}, 1, Variable::Constant(h_k));
  graph::SparseMatrix s = asg.pattern->WithValues(std::vector<double>(
      asg.values.value().data(),
      asg.values.value().data() + asg.values.value().size()));
  EXPECT_TRUE(
      tensor::AllClose(restored.value(), s.MultiplyDense(h_k), 1e-10));
}

TEST(UnpoolingTest, GradientsFlowThroughChain) {
  Fixture f(17);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  util::Rng rng(18);
  Variable h_k = Variable::Parameter(
      Matrix::Gaussian(f.sel.num_hyper_nodes(), 4, 1.0, &rng));
  ExpectGradientsMatch(h_k, [&] {
    Variable restored = Unpool({asg}, 1, h_k);
    util::Rng wrng(19);
    Matrix w = Matrix::Gaussian(restored.rows(), restored.cols(), 1.0,
                                &wrng);
    return autograd::Sum(
        autograd::CwiseMul(restored, Variable::Constant(w)));
  });
}

}  // namespace
}  // namespace adamgnn::core
