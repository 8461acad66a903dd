#include "core/adamgnn_model.h"

#include "autograd/loss_ops.h"
#include "autograd/ops.h"
#include "core/adapters.h"
#include "core/flyback.h"
#include "core/losses.h"
#include "graph/batch.h"
#include "gtest/gtest.h"
#include "nn/optimizer.h"
#include "test_util.h"
#include "util/random.h"

namespace adamgnn::core {
namespace {

using adamgnn::testing::Ring;
using adamgnn::testing::TwoTriangles;
using autograd::Variable;
using tensor::Matrix;

AdamGnnConfig SmallConfig(size_t in_dim, size_t classes) {
  AdamGnnConfig c;
  c.in_dim = in_dim;
  c.hidden_dim = 8;
  c.num_classes = classes;
  c.num_levels = 2;
  c.dropout = 0.0;
  return c;
}

TEST(FlybackTest, NoMessagesReturnsPrimary) {
  util::Rng rng(1);
  FlybackAggregator fb(4, &rng);
  Variable h0 = Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng));
  FlybackAggregator::Output out = fb.Aggregate(h0, {});
  EXPECT_TRUE(tensor::AllClose(out.h.value(), h0.value(), 0.0));
  EXPECT_EQ(out.attention.cols(), 0u);
}

TEST(FlybackTest, AttentionRowsSumToOne) {
  util::Rng rng(2);
  FlybackAggregator fb(4, &rng);
  Variable h0 = Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng));
  std::vector<Variable> msgs = {
      Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng)),
      Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng)),
      Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng))};
  FlybackAggregator::Output out = fb.Aggregate(h0, msgs);
  EXPECT_EQ(out.attention.rows(), 5u);
  EXPECT_EQ(out.attention.cols(), 3u);
  for (size_t r = 0; r < 5; ++r) {
    double sum = 0;
    for (size_t c = 0; c < 3; ++c) sum += out.attention(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-10);
  }
}

TEST(FlybackTest, OutputDiffersFromPrimaryWhenMessagesNonZero) {
  util::Rng rng(3);
  FlybackAggregator fb(4, &rng);
  Variable h0 = Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng));
  std::vector<Variable> msgs = {
      Variable::Constant(Matrix::Gaussian(5, 4, 1.0, &rng))};
  FlybackAggregator::Output out = fb.Aggregate(h0, msgs);
  EXPECT_FALSE(tensor::AllClose(out.h.value(), h0.value(), 1e-9));
}

TEST(AdamGnnTest, ForwardShapesOnSmallGraph) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(4);
  AdamGnn model(SmallConfig(4, 2), &rng);
  util::Rng frng(5);
  AdamGnn::Output out = model.Forward(g, /*training=*/false, &frng);
  EXPECT_EQ(out.embeddings.rows(), 6u);
  EXPECT_EQ(out.embeddings.cols(), 8u);
  EXPECT_EQ(out.logits.rows(), 6u);
  EXPECT_EQ(out.logits.cols(), 2u);
  EXPECT_TRUE(out.embeddings.value().AllFinite());
  EXPECT_FALSE(out.levels.empty());
  EXPECT_FALSE(out.level1_egos.empty());
  EXPECT_FALSE(out.aux_loss.defined());  // only training builds aux losses
  util::Rng trng(5);
  EXPECT_TRUE(model.Forward(g, /*training=*/true, &trng).aux_loss.defined());
}

TEST(AdamGnnTest, EvalForwardLeavesCallerRngUntouched) {
  graph::Graph g = Ring(30, 4, 14);
  util::Rng rng(15);
  AdamGnnConfig c = SmallConfig(4, 2);
  c.dropout = 0.3;
  AdamGnn model(c, &rng);
  util::Rng frng(16);
  const std::vector<uint64_t> before = frng.SaveState();
  AdamGnn::Output out = model.Forward(g, /*training=*/false, &frng);
  EXPECT_EQ(frng.SaveState(), before);
  EXPECT_FALSE(out.aux_loss.defined());
  // Same outputs with no RNG at all.
  AdamGnn::Output bare = model.Forward(g, /*training=*/false, nullptr);
  EXPECT_TRUE(bare.logits.value() == out.logits.value());
}

TEST(AdamGnnTest, LevelsCompressMonotonically) {
  graph::Graph g = Ring(40, 6, 7);
  util::Rng rng(6);
  AdamGnnConfig c = SmallConfig(6, 2);
  c.num_levels = 4;
  AdamGnn model(c, &rng);
  util::Rng frng(7);
  AdamGnn::Output out = model.Forward(g, false, &frng);
  ASSERT_GE(out.levels.size(), 2u);
  for (const LevelInfo& info : out.levels) {
    EXPECT_LT(info.num_hyper_nodes, info.num_prev_nodes);
    EXPECT_EQ(info.num_hyper_nodes,
              info.num_selected_egos + info.num_retained);
    EXPECT_GT(info.num_pairs, 0u);
    // Every hyper-node keeps a positive self-weight on A_k's diagonal.
    EXPECT_GE(info.adjacency_nnz, info.num_hyper_nodes);
  }
  // Level 0 scores the plan's λ-hop pairs: 40 nodes on a ring, λ = 1.
  EXPECT_EQ(out.levels[0].num_pairs, 80u);
  for (size_t k = 1; k < out.levels.size(); ++k) {
    EXPECT_EQ(out.levels[k].num_prev_nodes,
              out.levels[k - 1].num_hyper_nodes);
  }
}

TEST(AdamGnnTest, FlybackAttentionShapeMatchesLevels) {
  graph::Graph g = Ring(30, 4, 8);
  util::Rng rng(8);
  AdamGnnConfig c = SmallConfig(4, 2);
  c.num_levels = 3;
  AdamGnn model(c, &rng);
  util::Rng frng(9);
  AdamGnn::Output out = model.Forward(g, false, &frng);
  EXPECT_EQ(out.flyback_attention.rows(), 30u);
  EXPECT_EQ(out.flyback_attention.cols(), out.levels.size());
}

TEST(AdamGnnTest, AblationTogglesChangeOutputs) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(10);
  AdamGnnConfig base = SmallConfig(4, 2);

  AdamGnnConfig no_fb = base;
  no_fb.use_flyback = false;
  util::Rng r1(11), r2(11), f1(12), f2(12);
  AdamGnn with_fb(base, &r1);
  AdamGnn without_fb(no_fb, &r2);
  Matrix h_with = with_fb.Forward(g, false, &f1).embeddings.value();
  Matrix h_without = without_fb.Forward(g, false, &f2).embeddings.value();
  EXPECT_FALSE(tensor::AllClose(h_with, h_without, 1e-9));

  AdamGnnConfig no_aux = base;
  no_aux.use_kl_loss = false;
  no_aux.use_recon_loss = false;
  util::Rng r3(11), f3(12);
  AdamGnn bare(no_aux, &r3);
  EXPECT_FALSE(bare.Forward(g, /*training=*/true, &f3).aux_loss.defined());
}

TEST(AdamGnnTest, GraphLogitsOverBatch) {
  util::Rng rng(13);
  graph::GraphBuilder b1(4), b2(5);
  for (int i = 0; i + 1 < 4; ++i) b1.AddEdge(i, i + 1).CheckOK();
  for (int i = 0; i + 1 < 5; ++i) b2.AddEdge(i, i + 1).CheckOK();
  b1.SetFeatures(Matrix::Gaussian(4, 3, 1.0, &rng)).CheckOK();
  b2.SetFeatures(Matrix::Gaussian(5, 3, 1.0, &rng)).CheckOK();
  b1.SetGraphLabel(0);
  b2.SetGraphLabel(1);
  graph::Graph g1 = std::move(b1).Build().ValueOrDie();
  graph::Graph g2 = std::move(b2).Build().ValueOrDie();
  graph::GraphBatch batch = graph::MakeBatch({&g1, &g2}).ValueOrDie();

  AdamGnnGraphModel model(SmallConfig(3, 0), 2, &rng);
  util::Rng frng(14);
  auto out = model.Forward(batch, false, &frng);
  EXPECT_EQ(out.logits.rows(), 2u);
  EXPECT_EQ(out.logits.cols(), 2u);
}

TEST(AdamGnnTest, TrainingStepReducesLoss) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(15);
  AdamGnnConfig c = SmallConfig(4, 2);
  AdamGnn model(c, &rng);
  nn::Adam opt(model.Parameters(), 0.02);
  std::vector<size_t> rows = {0, 1, 2, 3, 4, 5};
  util::Rng frng(16);
  double first = 0, last = 0;
  for (int step = 0; step < 30; ++step) {
    AdamGnn::Output out = model.Forward(g, true, &frng);
    Variable loss =
        autograd::SoftmaxCrossEntropy(out.logits, g.labels(), rows);
    if (out.aux_loss.defined()) loss = autograd::Add(loss, out.aux_loss);
    if (step == 0) first = loss.value()(0, 0);
    last = loss.value()(0, 0);
    autograd::Backward(loss);
    opt.Step();
  }
  EXPECT_LT(last, first);
}

TEST(AdamGnnTest, ReconstructionLossPositiveAndFinite) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(17);
  Variable h = Variable::Constant(Matrix::Gaussian(6, 4, 1.0, &rng));
  Variable loss = ReconstructionLoss(h, g, &rng);
  EXPECT_GT(loss.value()(0, 0), 0.0);
  EXPECT_TRUE(loss.value().AllFinite());
}

TEST(AdamGnnTest, LambdaTwoConfigRuns) {
  graph::Graph g = Ring(20, 4, 18);
  util::Rng rng(18);
  AdamGnnConfig c = SmallConfig(4, 2);
  c.lambda = 2;
  AdamGnn model(c, &rng);
  util::Rng frng(19);
  AdamGnn::Output out = model.Forward(g, false, &frng);
  EXPECT_TRUE(out.embeddings.value().AllFinite());
  // λ=2 ego-networks cover more nodes per ego, so pooling is at least as
  // aggressive as λ=1.
  EXPECT_FALSE(out.levels.empty());
}

class LevelSweep : public ::testing::TestWithParam<int> {};

TEST_P(LevelSweep, ModelRunsWithKLevels) {
  graph::Graph g = Ring(36, 5, 20);
  util::Rng rng(21);
  AdamGnnConfig c = SmallConfig(5, 3);
  c.num_levels = GetParam();
  AdamGnn model(c, &rng);
  util::Rng frng(22);
  AdamGnn::Output out = model.Forward(g, false, &frng);
  EXPECT_TRUE(out.embeddings.value().AllFinite());
  EXPECT_LE(out.levels.size(), static_cast<size_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Levels, LevelSweep, ::testing::Values(1, 2, 3, 4, 5));

// The adapters' Evaluate must reproduce Forward(training=false) bit for bit
// while leaving the caller's RNG untouched: eval-mode Forward draws
// reconstruction-loss negatives, Evaluate skips the auxiliary losses.
AdamGnnConfig EvalConfig(size_t in_dim, size_t classes) {
  AdamGnnConfig c = SmallConfig(in_dim, classes);
  c.num_levels = 3;
  c.dropout = 0.3;  // must be inert in both eval paths
  return c;
}

TEST(AdapterEvaluateTest, NodeModelMatchesEvalForwardWithoutRngDraws) {
  graph::Graph g = Ring(40, 6, 101);
  util::Rng rng(21);
  AdamGnnNodeModel model(EvalConfig(6, 3), &rng);
  util::Rng frng(22);
  train::NodeModel::Out ref = model.Forward(g, /*training=*/false, &frng);
  const Matrix ref_attention = model.last_attention();
  ASSERT_GT(model.last_levels().size(), 0u);

  util::Rng erng(23);
  const std::vector<uint64_t> before = erng.SaveState();
  train::NodeModel::Out got = model.Evaluate(g, &erng);
  EXPECT_EQ(erng.SaveState(), before);
  EXPECT_TRUE(got.logits.value() == ref.logits.value());
  EXPECT_FALSE(got.logits.requires_grad());
  EXPECT_FALSE(got.aux_loss.defined());
  EXPECT_TRUE(model.last_attention() == ref_attention);
}

TEST(AdapterEvaluateTest, EmbeddingModelMatchesEvalForwardWithoutRngDraws) {
  graph::Graph g = Ring(40, 6, 102);
  util::Rng rng(24);
  AdamGnnEmbeddingModel model(EvalConfig(6, 0), &rng);
  util::Rng frng(25);
  train::EmbeddingModel::Out ref = model.Forward(g, false, &frng);

  util::Rng erng(26);
  const std::vector<uint64_t> before = erng.SaveState();
  train::EmbeddingModel::Out got = model.Evaluate(g, &erng);
  EXPECT_EQ(erng.SaveState(), before);
  EXPECT_TRUE(got.embeddings.value() == ref.embeddings.value());
  EXPECT_FALSE(got.embeddings.requires_grad());
}

TEST(AdapterEvaluateTest, GraphModelMatchesEvalForwardWithoutRngDraws) {
  util::Rng rng(27);
  graph::GraphBuilder b1(7), b2(9);
  for (int i = 0; i + 1 < 7; ++i) b1.AddEdge(i, i + 1).CheckOK();
  for (int i = 0; i + 1 < 9; ++i) b2.AddEdge(i, i + 1).CheckOK();
  b1.AddEdge(0, 6).CheckOK();
  b2.AddEdge(0, 4).CheckOK();
  b1.SetFeatures(Matrix::Gaussian(7, 3, 1.0, &rng)).CheckOK();
  b2.SetFeatures(Matrix::Gaussian(9, 3, 1.0, &rng)).CheckOK();
  b1.SetGraphLabel(0);
  b2.SetGraphLabel(1);
  graph::Graph g1 = std::move(b1).Build().ValueOrDie();
  graph::Graph g2 = std::move(b2).Build().ValueOrDie();
  graph::GraphBatch batch = graph::MakeBatch({&g1, &g2}).ValueOrDie();

  AdamGnnGraphModel model(EvalConfig(3, 0), 2, &rng);
  util::Rng frng(28);
  train::GraphModel::Out ref = model.Forward(batch, false, &frng);

  util::Rng erng(29);
  const std::vector<uint64_t> before = erng.SaveState();
  train::GraphModel::Out got = model.Evaluate(batch, &erng);
  EXPECT_EQ(erng.SaveState(), before);
  EXPECT_TRUE(got.logits.value() == ref.logits.value());
  EXPECT_FALSE(got.logits.requires_grad());
}

}  // namespace
}  // namespace adamgnn::core
