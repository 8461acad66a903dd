// Parity suite for the tape-free serving path: core::InferenceSession must
// be bitwise identical to AdamGnn::Forward(training=false) at the same
// weights — across tasks (node / link / graph), thread counts, and the
// warm-vs-cold result cache — and that cache must be keyed by graph
// fingerprint with FIFO eviction. Comparisons use Matrix::operator== (exact
// doubles), not AllClose: the session runs the model's own forward under
// NoGradGuard, so any drift is a bug.

#include "core/inference_session.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "autograd/loss_ops.h"
#include "core/adamgnn_model.h"
#include "core/graph_plan.h"
#include "graph/batch.h"
#include "gtest/gtest.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "util/cancel.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace adamgnn::core {
namespace {

using adamgnn::testing::Ring;
using adamgnn::testing::RingWithChords;
using adamgnn::testing::TwoTriangles;
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

// Bitwise comparison of one eval-mode Forward against the session run.
void ExpectParity(const AdamGnn::Output& ref,
                  const InferenceSession::Result& got) {
  EXPECT_TRUE(ref.embeddings.value() == got.embeddings);
  if (ref.logits.defined()) {
    EXPECT_TRUE(ref.logits.value() == got.logits);
  } else {
    EXPECT_EQ(got.logits.size(), 0u);
  }
  EXPECT_TRUE(ref.flyback_attention == got.flyback_attention);
  ASSERT_EQ(ref.levels.size(), got.levels.size());
  for (size_t k = 0; k < ref.levels.size(); ++k) {
    EXPECT_EQ(ref.levels[k].num_prev_nodes, got.levels[k].num_prev_nodes);
    EXPECT_EQ(ref.levels[k].num_hyper_nodes, got.levels[k].num_hyper_nodes);
    EXPECT_EQ(ref.levels[k].num_selected_egos,
              got.levels[k].num_selected_egos);
    EXPECT_EQ(ref.levels[k].num_retained, got.levels[k].num_retained);
    EXPECT_EQ(ref.levels[k].num_covered, got.levels[k].num_covered);
    EXPECT_EQ(ref.levels[k].num_pairs, got.levels[k].num_pairs);
    EXPECT_EQ(ref.levels[k].adjacency_nnz, got.levels[k].adjacency_nnz);
  }
  EXPECT_EQ(ref.level1_egos, got.level1_egos);
  EXPECT_EQ(ref.level1_ego_of_node, got.level1_ego_of_node);
}

TEST(InferenceSessionTest, NodeTaskBitwiseParity) {
  graph::Graph g = Ring(40, 6, 101);
  util::Rng rng(1);
  AdamGnnConfig c = SmallConfig(6, 2);
  c.num_levels = 3;
  AdamGnn model(c, &rng);
  util::Rng frng(2);
  AdamGnn::Output ref = model.Forward(g, /*training=*/false, &frng);

  InferenceSession session(model);
  auto plan = GraphPlan::Build(g, c.lambda);
  ExpectParity(ref, session.Run(plan));
}

TEST(InferenceSessionTest, LinkTaskBitwiseParity) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(3);
  AdamGnnConfig c = SmallConfig(4, /*classes=*/0);  // no node head
  AdamGnn model(c, &rng);
  util::Rng frng(4);
  AdamGnn::Output ref = model.Forward(g, false, &frng);

  InferenceSession session(model);
  auto plan = GraphPlan::Build(g, c.lambda);
  const InferenceSession::Result& got = session.Run(plan);
  EXPECT_TRUE(ref.embeddings.value() == got.embeddings);
  EXPECT_EQ(got.logits.size(), 0u);
}

TEST(InferenceSessionTest, GraphTaskBitwiseParity) {
  util::Rng rng(5);
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

  AdamGnnConfig c = SmallConfig(3, 2);  // classes > 0 => graph head exists
  AdamGnn model(c, &rng);
  util::Rng frng(6);
  AdamGnn::Output ref = model.Forward(batch.merged, false, &frng);

  InferenceSession session(model);
  auto plan = GraphPlan::Build(batch.merged, c.lambda);
  ExpectParity(ref, session.Run(plan));
}

TEST(InferenceSessionTest, ThreadCountInvariance) {
  graph::Graph g = Ring(36, 5, 77);
  util::Rng rng(7);
  AdamGnnConfig c = SmallConfig(5, 3);
  AdamGnn model(c, &rng);

  util::SetNumThreads(1);
  InferenceSession s1(model);
  auto plan1 = GraphPlan::Build(g, c.lambda);
  InferenceSession::Result one = s1.Run(plan1);  // copy before switching

  util::SetNumThreads(4);
  InferenceSession s4(model);
  auto plan4 = GraphPlan::Build(g, c.lambda);
  const InferenceSession::Result& four = s4.Run(plan4);
  util::SetNumThreads(0);  // back to the environment default

  EXPECT_TRUE(one.embeddings == four.embeddings);
  EXPECT_TRUE(one.logits == four.logits);
  EXPECT_TRUE(one.flyback_attention == four.flyback_attention);
}

TEST(InferenceSessionTest, WarmCacheReturnsIdenticalCachedResult) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(8);
  AdamGnnConfig c = SmallConfig(4, 2);
  AdamGnn model(c, &rng);
  InferenceSession session(model);
  auto plan = GraphPlan::Build(g, c.lambda);

  const InferenceSession::Result& cold = session.Run(plan);
  const InferenceSession::Result& warm = session.Run(plan);
  // Warm hit: the very same cached entry, not a recomputation.
  EXPECT_EQ(&cold, &warm);

  // And a cold run in a fresh session is bitwise equal to the cached one.
  InferenceSession fresh(model);
  auto plan2 = GraphPlan::Build(g, c.lambda);
  const InferenceSession::Result& other = fresh.Run(plan2);
  EXPECT_TRUE(warm.embeddings == other.embeddings);
  EXPECT_TRUE(warm.logits == other.logits);
  EXPECT_TRUE(warm.flyback_attention == other.flyback_attention);
  EXPECT_EQ(plan->fingerprint(), plan2->fingerprint());
}

uint64_t PlanCacheHits() {
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().Collect().counters) {
    if (name == "infer.plan_cache.hits") return value;
  }
  return 0;
}

TEST(InferenceSessionTest, PlansOfOneGraphShareOneCacheEntry) {
  obs::SetEnabled(true);
  graph::Graph g = Ring(24, 4, 41);
  util::Rng rng(14);
  AdamGnnConfig c = SmallConfig(4, 2);
  AdamGnn model(c, &rng);
  InferenceSession session(model);

  auto plan_a = GraphPlan::Build(g, c.lambda);
  auto plan_b = GraphPlan::Build(g, c.lambda);
  ASSERT_NE(plan_a.get(), plan_b.get());
  const InferenceSession::Result& cold = session.Run(plan_a);
  const uint64_t hits = PlanCacheHits();
  const InferenceSession::Result& warm = session.Run(plan_b);
  EXPECT_EQ(&cold, &warm);
  EXPECT_EQ(PlanCacheHits(), hits + 1);

  // The graph overload finds the same entry without building a plan.
  const InferenceSession::Result* by_graph = nullptr;
  ASSERT_TRUE(session.TryRun(g, GraphPlan::Fingerprint(g), &by_graph).ok());
  EXPECT_EQ(by_graph, &cold);
  EXPECT_EQ(PlanCacheHits(), hits + 2);
  EXPECT_EQ(session.Cached(plan_a->fingerprint(), plan_a->shape()), &cold);

  // A plan at another λ shares the fingerprint but not the result.
  auto wide = GraphPlan::Build(g, c.lambda + 1);
  const InferenceSession::Result* out = nullptr;
  EXPECT_EQ(session.TryRun(wide, &out).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(out, nullptr);
}

TEST(InferenceSessionTest, GraphOverloadMissMatchesPlanRun) {
  graph::Graph g = Ring(30, 4, 43);
  util::Rng rng(15);
  AdamGnnConfig c = SmallConfig(4, 2);
  AdamGnn model(c, &rng);
  InferenceSession by_plan(model);
  const InferenceSession::Result& want =
      by_plan.Run(GraphPlan::Build(g, c.lambda));

  InferenceSession by_graph(model);
  const InferenceSession::Result* got = nullptr;
  ASSERT_TRUE(by_graph.TryRun(g, GraphPlan::Fingerprint(g), &got).ok());
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(got->embeddings == want.embeddings);
  EXPECT_TRUE(got->logits == want.logits);
  EXPECT_TRUE(got->flyback_attention == want.flyback_attention);
}

TEST(InferenceSessionTest, CacheEvictsTheOldestGraphFirst) {
  util::Rng rng(16);
  AdamGnnConfig c = SmallConfig(4, 2);
  AdamGnn model(c, &rng);
  InferenceSession session(model);

  constexpr size_t kGraphs = InferenceSession::kMaxCachedPlans + 1;
  std::vector<uint64_t> fps;
  std::vector<GraphShape> shapes;
  for (size_t i = 0; i < kGraphs; ++i) {
    graph::Graph g = Ring(6 + i, 4, 300 + i);
    fps.push_back(GraphPlan::Fingerprint(g));
    shapes.push_back(GraphShape::Of(g));
    session.Run(GraphPlan::Build(g, c.lambda));
  }
  EXPECT_EQ(session.Cached(fps[0], shapes[0]), nullptr);
  for (size_t i = 1; i < kGraphs; ++i) {
    EXPECT_NE(session.Cached(fps[i], shapes[i]), nullptr) << "graph " << i;
  }
}

TEST(InferenceSessionTest, RefreshAndCancelledRunsLeaveNoEntry) {
  graph::Graph g = TwoTriangles();
  const uint64_t fp = GraphPlan::Fingerprint(g);
  const GraphShape shape = GraphShape::Of(g);
  util::Rng rng(17);
  AdamGnnConfig c = SmallConfig(4, 2);
  AdamGnn model(c, &rng);
  InferenceSession session(model);
  auto plan = GraphPlan::Build(g, c.lambda);

  session.Run(plan);
  ASSERT_NE(session.Cached(fp, shape), nullptr);
  session.RefreshWeights(model);
  EXPECT_EQ(session.Cached(fp, shape), nullptr);

  util::CancelToken token = util::CancelToken::Cancellable();
  token.Cancel();
  util::ScopedCancel bind(token);
  const InferenceSession::Result* out = nullptr;
  EXPECT_EQ(session.TryRun(plan, &out).code(), util::StatusCode::kCancelled);
  EXPECT_EQ(session.TryRun(g, fp, &out).code(), util::StatusCode::kCancelled);
  EXPECT_EQ(out, nullptr);
  EXPECT_EQ(session.Cached(fp, shape), nullptr);
}

// A graph on `n` nodes with exactly these weighted edges and features, so a
// test can vary one fingerprint input of an existing graph at a time.
graph::Graph FromParts(size_t n, const std::vector<graph::Edge>& edges,
                       Matrix features) {
  graph::GraphBuilder b(n);
  for (const graph::Edge& e : edges) {
    b.AddEdge(e.src, e.dst, e.weight).CheckOK();
  }
  b.SetFeatures(std::move(features)).CheckOK();
  return std::move(b).Build().ValueOrDie();
}

TEST(InferenceSessionTest, ReweightedEdgeIsAMissThatMatchesAFreshSession) {
  obs::SetEnabled(true);
  graph::Graph g = Ring(24, 4, 45);
  std::vector<graph::Edge> edges = g.UndirectedEdges();
  edges[3].weight = 3.5;
  graph::Graph reweighted = FromParts(g.num_nodes(), edges, g.features());
  util::Rng rng(18);
  AdamGnnConfig c = SmallConfig(4, 2);
  AdamGnn model(c, &rng);
  InferenceSession session(model);

  const InferenceSession::Result* first = nullptr;
  ASSERT_TRUE(session.TryRun(g, GraphPlan::Fingerprint(g), &first).ok());
  const uint64_t hits = PlanCacheHits();
  const InferenceSession::Result* second = nullptr;
  ASSERT_TRUE(session
                  .TryRun(reweighted, GraphPlan::Fingerprint(reweighted),
                          &second)
                  .ok());
  EXPECT_EQ(PlanCacheHits(), hits);
  EXPECT_NE(second, first);

  InferenceSession fresh(model);
  const InferenceSession::Result& want =
      fresh.Run(GraphPlan::Build(reweighted, c.lambda));
  EXPECT_TRUE(second->embeddings == want.embeddings);
  EXPECT_TRUE(second->logits == want.logits);
  EXPECT_TRUE(second->flyback_attention == want.flyback_attention);
  // The weight reaches Â, so serving g's result here would have been wrong.
  EXPECT_FALSE(first->embeddings == want.embeddings);
}

TEST(InferenceSessionTest, KeyCollisionWithAnotherShapeIsAMiss) {
  obs::SetEnabled(true);
  graph::Graph g1 = Ring(20, 4, 46);
  graph::Graph g2 = Ring(26, 4, 47);
  const uint64_t fp1 = GraphPlan::Fingerprint(g1);
  util::Rng rng(19);
  AdamGnnConfig c = SmallConfig(4, 2);
  AdamGnn model(c, &rng);
  InferenceSession session(model);

  const InferenceSession::Result* first = nullptr;
  ASSERT_TRUE(session.TryRun(g1, fp1, &first).ok());
  const uint64_t hits = PlanCacheHits();
  // g2 arrives under g1's key, as an accidental or forged collision would.
  const InferenceSession::Result* second = nullptr;
  ASSERT_TRUE(session.TryRun(g2, fp1, &second).ok());
  EXPECT_EQ(PlanCacheHits(), hits);
  ASSERT_EQ(second->embeddings.rows(), g2.num_nodes());

  InferenceSession fresh(model);
  const InferenceSession::Result& want =
      fresh.Run(GraphPlan::Build(g2, c.lambda));
  EXPECT_TRUE(second->embeddings == want.embeddings);
  EXPECT_TRUE(second->logits == want.logits);
  // g2's result replaced g1's under the shared key.
  EXPECT_EQ(session.Cached(fp1, GraphShape::Of(g1)), nullptr);
  EXPECT_EQ(session.Cached(fp1, GraphShape::Of(g2)), second);
}

uint64_t Fp(const graph::Graph& g) { return GraphPlan::Fingerprint(g); }

TEST(GraphFingerprintTest, IndependentBuildsAgree) {
  const graph::Graph a = RingWithChords(40, 5, 8, 48);
  const graph::Graph b = RingWithChords(40, 5, 8, 48);
  EXPECT_EQ(Fp(a), Fp(b));
  EXPECT_EQ(GraphPlan::Build(a, 1)->fingerprint(), Fp(b));
  EXPECT_EQ(GraphPlan::Build(b, 2)->fingerprint(), Fp(a));
  EXPECT_NE(Fp(a), Fp(RingWithChords(40, 5, 8, 49)));
}

TEST(GraphFingerprintTest, SeesEveryPlanInput) {
  const graph::Graph g = Ring(30, 5, 50);
  const size_t n = g.num_nodes();
  const std::vector<graph::Edge> edges = g.UndirectedEdges();
  const Matrix& x = g.features();
  const uint64_t base = Fp(g);
  ASSERT_EQ(Fp(FromParts(n, edges, x)), base);

  // One feature bit: the lowest mantissa bit of one entry, and the sign of
  // a zero.
  Matrix flipped = x;
  uint64_t bits;
  std::memcpy(&bits, &flipped(4, 2), sizeof(bits));
  bits ^= 1;
  std::memcpy(&flipped(4, 2), &bits, sizeof(bits));
  EXPECT_NE(Fp(FromParts(n, edges, flipped)), base);
  Matrix zero = x, negative_zero = x;
  zero(7, 1) = 0.0;
  negative_zero(7, 1) = -0.0;
  EXPECT_NE(Fp(FromParts(n, edges, zero)),
            Fp(FromParts(n, edges, negative_zero)));

  // One edge moved to another row: (0, 1) becomes (15, 1).
  std::vector<graph::Edge> moved = edges;
  ASSERT_EQ(moved[0].src, 0);
  ASSERT_EQ(moved[0].dst, 1);
  moved[0].src = 15;
  EXPECT_NE(Fp(FromParts(n, moved, x)), base);

  // One edge weight.
  std::vector<graph::Edge> reweighted = edges;
  reweighted[5].weight = 2.0;
  EXPECT_NE(Fp(FromParts(n, reweighted, x)), base);

  // Two nodes' feature rows swapped.
  Matrix swapped = x;
  for (size_t j = 0; j < x.cols(); ++j) std::swap(swapped(3, j), swapped(9, j));
  EXPECT_NE(Fp(FromParts(n, edges, swapped)), base);

  // The same doubles laid out as n x d and as d x n features.
  std::vector<double> values(6 * 4);
  for (size_t i = 0; i < values.size(); ++i) values[i] = 0.25 * i;
  EXPECT_NE(Fp(FromParts(6, {}, Matrix(6, 4, values))),
            Fp(FromParts(4, {}, Matrix(4, 6, values))));
}

TEST(GraphFingerprintTest, FiredTokenFailsTryBuild) {
  const graph::Graph g = Ring(30, 5, 51);
  util::CancelToken token = util::CancelToken::WithTimeout(0.0);
  util::ScopedCancel bind(token);
  EXPECT_EQ(GraphPlan::TryBuild(g, 1).status().code(),
            util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(GraphPlan::TryBuild(g, 1, 42).status().code(),
            util::StatusCode::kDeadlineExceeded);
}

TEST(InferenceSessionTest, RefreshWeightsTracksTrainingSteps) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(9);
  AdamGnnConfig c = SmallConfig(4, 2);
  AdamGnn model(c, &rng);
  InferenceSession session(model);
  auto plan = GraphPlan::Build(g, c.lambda);
  Matrix before = session.Run(plan).embeddings;  // copy: Refresh invalidates

  // One training step changes the weights; the stale session must differ
  // from the new model until RefreshWeights, then match it bitwise.
  nn::Adam opt(model.Parameters(), 0.05);
  util::Rng frng(10);
  std::vector<size_t> rows = {0, 1, 2, 3, 4, 5};
  AdamGnn::Output out = model.Forward(g, true, &frng);
  autograd::Variable loss =
      autograd::SoftmaxCrossEntropy(out.logits, g.labels(), rows);
  autograd::Backward(loss);
  opt.Step();

  util::Rng erng(11);
  AdamGnn::Output ref = model.Forward(g, false, &erng);
  EXPECT_FALSE(ref.embeddings.value() == before);

  session.RefreshWeights(model);
  ExpectParity(ref, session.Run(plan));
}

TEST(InferenceSessionTest, PlanBasedForwardMatchesThrowawayPlan) {
  // The training path's plan-based overload must be exactly the monolithic
  // forward: same graph, same weights, same RNG seed → bitwise equal.
  graph::Graph g = Ring(30, 4, 55);
  util::Rng rng(12);
  AdamGnnConfig c = SmallConfig(4, 2);
  AdamGnn model(c, &rng);
  auto plan = GraphPlan::Build(g, c.lambda);
  util::Rng f1(13), f2(13);
  AdamGnn::Output a = model.Forward(g, false, &f1);
  AdamGnn::Output b = model.Forward(g, *plan, false, &f2);
  EXPECT_TRUE(a.embeddings.value() == b.embeddings.value());
  EXPECT_TRUE(a.logits.value() == b.logits.value());
  EXPECT_TRUE(a.flyback_attention == b.flyback_attention);
}

TEST(InferenceSessionTest, WeightsFingerprintSeesOneUlpInAnyParameter) {
  util::Rng rng(30);
  AdamGnnConfig c = SmallConfig(4, 2);  // node and graph heads both exist
  AdamGnn model(c, &rng);
  std::vector<autograd::Variable> params = model.Parameters();
  ASSERT_NE(model.graph_head(), nullptr);
  EXPECT_EQ(params.back().node(), model.graph_head()->bias().node());

  const uint64_t base = InferenceSession(model).WeightsFingerprint();
  for (size_t i = 0; i < params.size(); ++i) {
    Matrix& m = params[i].mutable_value();
    for (size_t e : {size_t{0}, m.size() - 1}) {
      const double saved = m.data()[e];
      m.data()[e] = std::nextafter(saved, 1e300);
      EXPECT_NE(InferenceSession(model).WeightsFingerprint(), base)
          << "parameter " << i << " element " << e;
      m.data()[e] = saved;
    }
  }
  EXPECT_EQ(InferenceSession(model).WeightsFingerprint(), base);
}

TEST(InferenceSessionTest, WeightsFingerprintAgreesOverEqualWeights) {
  AdamGnnConfig c = SmallConfig(4, 2);
  util::Rng r1(31), r2(31), r3(32);
  AdamGnn a(c, &r1), twin(c, &r2), other(c, &r3);
  const uint64_t fp = InferenceSession(a).WeightsFingerprint();
  EXPECT_EQ(InferenceSession(twin).WeightsFingerprint(), fp);
  // A degraded session freezes the same weights.
  EXPECT_EQ(InferenceSession(a, /*lambda_override=*/1, /*max_levels=*/1)
                .WeightsFingerprint(),
            fp);

  InferenceSession session(other);
  EXPECT_NE(session.WeightsFingerprint(), fp);
  session.RefreshWeights(twin);
  EXPECT_EQ(session.WeightsFingerprint(), fp);
}

}  // namespace
}  // namespace adamgnn::core
