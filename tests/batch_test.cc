#include "graph/batch.h"

#include "graph/builder.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace adamgnn::graph {
namespace {

Graph SmallLabeled(size_t n, int label, uint64_t seed) {
  GraphBuilder b(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    b.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1)).CheckOK();
  }
  util::Rng rng(seed);
  b.SetFeatures(tensor::Matrix::Gaussian(n, 3, 1.0, &rng)).CheckOK();
  b.SetGraphLabel(label);
  return std::move(b).Build().ValueOrDie();
}

TEST(BatchTest, MergesNodeAndEdgeCounts) {
  Graph g1 = SmallLabeled(3, 0, 1);
  Graph g2 = SmallLabeled(4, 1, 2);
  GraphBatch batch = MakeBatch({&g1, &g2}).ValueOrDie();
  EXPECT_EQ(batch.num_graphs(), 2u);
  EXPECT_EQ(batch.merged.num_nodes(), 7u);
  EXPECT_EQ(batch.merged.num_edges(), 5u);
  EXPECT_EQ(batch.offsets, (std::vector<size_t>{0, 3, 7}));
  EXPECT_EQ(batch.graph_labels, (std::vector<int>{0, 1}));
}

TEST(BatchTest, NodeToGraphSegments) {
  Graph g1 = SmallLabeled(2, 0, 3);
  Graph g2 = SmallLabeled(3, 1, 4);
  GraphBatch batch = MakeBatch({&g1, &g2}).ValueOrDie();
  EXPECT_EQ(batch.node_to_graph, (std::vector<size_t>{0, 0, 1, 1, 1}));
}

TEST(BatchTest, NoCrossMemberEdges) {
  Graph g1 = SmallLabeled(3, 0, 5);
  Graph g2 = SmallLabeled(3, 1, 6);
  GraphBatch batch = MakeBatch({&g1, &g2}).ValueOrDie();
  for (NodeId v = 0; v < 3; ++v) {
    for (NodeId u : batch.merged.Neighbors(v)) EXPECT_LT(u, 3);
  }
  for (NodeId v = 3; v < 6; ++v) {
    for (NodeId u : batch.merged.Neighbors(v)) EXPECT_GE(u, 3);
  }
}

TEST(BatchTest, FeaturesCopiedBlockwise) {
  Graph g1 = SmallLabeled(2, 0, 7);
  Graph g2 = SmallLabeled(2, 1, 8);
  GraphBatch batch = MakeBatch({&g1, &g2}).ValueOrDie();
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(batch.merged.features()(0, j), g1.features()(0, j));
    EXPECT_DOUBLE_EQ(batch.merged.features()(2, j), g2.features()(0, j));
  }
}

TEST(BatchTest, RejectsEmptyBatch) {
  EXPECT_FALSE(MakeBatch({}).ok());
}

TEST(BatchTest, RejectsNullMember) {
  Graph g1 = SmallLabeled(2, 0, 9);
  EXPECT_FALSE(MakeBatch({&g1, nullptr}).ok());
}

TEST(BatchTest, RejectsMissingLabel) {
  GraphBuilder b(2);
  b.AddEdge(0, 1).CheckOK();
  util::Rng rng(10);
  b.SetFeatures(tensor::Matrix::Gaussian(2, 3, 1.0, &rng)).CheckOK();
  Graph unlabeled = std::move(b).Build().ValueOrDie();
  EXPECT_FALSE(MakeBatch({&unlabeled}).ok());
}

TEST(BatchTest, RejectsFeatureDimMismatch) {
  Graph g1 = SmallLabeled(2, 0, 11);
  GraphBuilder b(2);
  b.AddEdge(0, 1).CheckOK();
  util::Rng rng(12);
  b.SetFeatures(tensor::Matrix::Gaussian(2, 5, 1.0, &rng)).CheckOK();
  b.SetGraphLabel(0);
  Graph g2 = std::move(b).Build().ValueOrDie();
  EXPECT_FALSE(MakeBatch({&g1, &g2}).ok());
}

TEST(BatchTest, SingletonBatch) {
  Graph g1 = SmallLabeled(4, 1, 13);
  GraphBatch batch = MakeBatch({&g1}).ValueOrDie();
  EXPECT_EQ(batch.num_graphs(), 1u);
  EXPECT_EQ(batch.merged.num_nodes(), 4u);
  EXPECT_EQ(batch.node_to_graph.size(), 4u);
}

TEST(BatchTest, RejectsZeroNodeMember) {
  Graph g1 = SmallLabeled(3, 0, 14);
  GraphBuilder b(0);
  Graph empty = std::move(b).Build().ValueOrDie();
  util::Result<GraphBatch> batch = MakeBatch({&g1, &empty});
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(batch.status().message().find("member 1"), std::string::npos);
}

TEST(BatchTest, RejectionsNameTheOffendingMember) {
  Graph g1 = SmallLabeled(2, 0, 15);
  Graph g2 = SmallLabeled(2, 1, 16);
  util::Result<GraphBatch> null_batch = MakeBatch({&g1, &g2, nullptr});
  ASSERT_FALSE(null_batch.ok());
  EXPECT_NE(null_batch.status().message().find("member 2"), std::string::npos);

  GraphBuilder b(2);
  b.AddEdge(0, 1).CheckOK();
  util::Rng rng(17);
  b.SetFeatures(tensor::Matrix::Gaussian(2, 7, 1.0, &rng)).CheckOK();
  b.SetGraphLabel(1);
  Graph wide = std::move(b).Build().ValueOrDie();
  util::Result<GraphBatch> dim_batch = MakeBatch({&g1, &wide});
  ASSERT_FALSE(dim_batch.ok());
  EXPECT_NE(dim_batch.status().message().find("member 1"), std::string::npos);
  EXPECT_NE(dim_batch.status().message().find("feature dim 7"),
            std::string::npos);
}

TEST(BatchTest, OffsetsPartitionNodeToGraph) {
  Graph g1 = SmallLabeled(2, 0, 20);
  Graph g2 = SmallLabeled(5, 1, 21);
  Graph g3 = SmallLabeled(3, 0, 22);
  GraphBatch batch = MakeBatch({&g1, &g2, &g3}).ValueOrDie();
  ASSERT_EQ(batch.offsets.size(), 4u);
  EXPECT_EQ(batch.offsets.front(), 0u);
  EXPECT_EQ(batch.offsets.back(), batch.merged.num_nodes());
  for (size_t m = 0; m + 1 < batch.offsets.size(); ++m) {
    for (size_t v = batch.offsets[m]; v < batch.offsets[m + 1]; ++v) {
      EXPECT_EQ(batch.node_to_graph[v], m);
    }
  }
}

}  // namespace
}  // namespace adamgnn::graph
