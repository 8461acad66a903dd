// Behavioral tests of the training loop itself: early stopping, best-epoch
// bookkeeping, timing fields and thread-count determinism — independent of
// model quality.

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/adapters.h"
#include "data/graph_datasets.h"
#include "data/node_datasets.h"
#include "data/splits.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "pool/flat_models.h"
#include "test_util.h"
#include "train/graph_trainer.h"
#include "train/link_trainer.h"
#include "train/node_trainer.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace adamgnn::train {
namespace {

struct Fixture {
  data::NodeDataset dataset;
  data::IndexSplit split;
  data::LinkSplit link_split;

  Fixture()
      : dataset(data::MakeNodeDataset(data::NodeDatasetId::kCora, 5, 0.06)
                    .ValueOrDie()) {
    util::Rng rng(1);
    split = data::SplitIndices(dataset.graph.num_nodes(), 0.8, 0.1, &rng)
                .ValueOrDie();
    link_split =
        data::MakeLinkSplit(dataset.graph, 0.1, 0.1, &rng).ValueOrDie();
  }

  pool::FlatGnnConfig ModelConfig() const {
    pool::FlatGnnConfig c;
    c.in_dim = dataset.graph.feature_dim();
    c.hidden_dim = 8;
    c.num_classes = static_cast<size_t>(dataset.graph.num_classes());
    return c;
  }
};

TEST(NodeTrainerTest, RunsExactlyMaxEpochsWithoutEarlyStop) {
  Fixture f;
  util::Rng rng(2);
  pool::FlatNodeModel model(f.ModelConfig(), &rng);
  TrainConfig tc;
  tc.max_epochs = 7;
  tc.patience = 1000;  // never triggers
  tc.seed = 2;
  NodeTaskResult r =
      TrainNodeClassifier(&model, f.dataset.graph, f.split, tc).ValueOrDie();
  EXPECT_EQ(r.epochs_run, 7);
  EXPECT_GE(r.best_epoch, 0);
  EXPECT_LT(r.best_epoch, 7);
  EXPECT_GT(r.avg_epoch_seconds, 0.0);
}

TEST(NodeTrainerTest, PatienceStopsEarly) {
  Fixture f;
  util::Rng rng(3);
  pool::FlatNodeModel model(f.ModelConfig(), &rng);
  TrainConfig tc;
  tc.max_epochs = 500;
  tc.patience = 3;
  tc.learning_rate = 0.0;  // frozen model: val never improves after epoch 0
  tc.seed = 3;
  NodeTaskResult r =
      TrainNodeClassifier(&model, f.dataset.graph, f.split, tc).ValueOrDie();
  EXPECT_EQ(r.best_epoch, 0);
  EXPECT_EQ(r.epochs_run, 4);  // epoch 0 improves, then 3 stale epochs
}

TEST(NodeTrainerTest, MetricsAreValidProbabilities) {
  Fixture f;
  util::Rng rng(4);
  pool::FlatNodeModel model(f.ModelConfig(), &rng);
  TrainConfig tc;
  tc.max_epochs = 10;
  tc.seed = 4;
  NodeTaskResult r =
      TrainNodeClassifier(&model, f.dataset.graph, f.split, tc).ValueOrDie();
  for (double v : {r.train_accuracy, r.val_accuracy, r.test_accuracy}) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(NodeTrainerTest, RejectsGraphWithoutLabels) {
  util::Rng rng(5);
  graph::GraphBuilder b(4);
  b.AddEdge(0, 1).CheckOK();
  b.SetFeatures(tensor::Matrix::Gaussian(4, 3, 1.0, &rng)).CheckOK();
  graph::Graph unlabeled = std::move(b).Build().ValueOrDie();
  pool::FlatGnnConfig c;
  c.in_dim = 3;
  c.num_classes = 2;
  pool::FlatNodeModel model(c, &rng);
  data::IndexSplit split;
  split.train = {0, 1};
  split.val = {2};
  split.test = {3};
  EXPECT_FALSE(
      TrainNodeClassifier(&model, unlabeled, split, TrainConfig()).ok());
}

TEST(LinkTrainerTest, EpochAccountingAndBounds) {
  Fixture f;
  util::Rng rng(6);
  pool::FlatGnnConfig c = f.ModelConfig();
  c.num_classes = 0;
  pool::FlatEmbeddingModel model(c, &rng);
  TrainConfig tc;
  tc.max_epochs = 6;
  tc.patience = 1000;
  tc.seed = 6;
  LinkTaskResult r =
      TrainLinkPredictor(&model, f.link_split, tc).ValueOrDie();
  EXPECT_EQ(r.epochs_run, 6);
  EXPECT_GE(r.val_auc, 0.0);
  EXPECT_LE(r.val_auc, 1.0);
  EXPECT_GE(r.test_auc, 0.0);
  EXPECT_LE(r.test_auc, 1.0);
}

TEST(LinkTrainerTest, RejectsNullModelAndEmptySplit) {
  Fixture f;
  EXPECT_FALSE(TrainLinkPredictor(nullptr, f.link_split, TrainConfig()).ok());
  util::Rng rng(7);
  pool::FlatGnnConfig c = f.ModelConfig();
  c.num_classes = 0;
  pool::FlatEmbeddingModel model(c, &rng);
  data::LinkSplit empty;
  EXPECT_FALSE(TrainLinkPredictor(&model, empty, TrainConfig()).ok());
}

TEST(NodeTrainerTest, TrainingImprovesOverFrozenBaseline) {
  Fixture f;
  util::Rng r1(8), r2(8);
  pool::FlatNodeModel trained(f.ModelConfig(), &r1);
  pool::FlatNodeModel frozen(f.ModelConfig(), &r2);
  TrainConfig tc;
  tc.max_epochs = 40;
  tc.patience = 40;
  tc.seed = 8;
  TrainConfig frozen_tc = tc;
  frozen_tc.learning_rate = 0.0;
  NodeTaskResult trained_r =
      TrainNodeClassifier(&trained, f.dataset.graph, f.split, tc)
          .ValueOrDie();
  NodeTaskResult frozen_r =
      TrainNodeClassifier(&frozen, f.dataset.graph, f.split, frozen_tc)
          .ValueOrDie();
  EXPECT_GT(trained_r.test_accuracy, frozen_r.test_accuracy);
}

std::vector<uint64_t> Bits(const std::vector<double>& xs) {
  std::vector<uint64_t> out;
  for (double x : xs) out.push_back(std::bit_cast<uint64_t>(x));
  return out;
}

uint64_t PoolJobs() {
  for (const auto& [name, value] : obs::MetricsRegistry::Global().Collect()
                                       .counters) {
    if (name == "pool.jobs") return value;
  }
  return 0;
}

// The link and graph tasks run AdamGNN through the same loop as the node
// task, so their loss trajectories and best metrics must not depend on the
// kernel thread count either. The inputs are just large enough for the
// 4-thread runs to fan kernels out to the pool.
TEST(TrainingLoopTest, LinkAndGraphTrajectoriesAreBitwiseAcrossThreadCounts) {
  const data::NodeDataset nodes =
      data::MakeNodeDataset(data::NodeDatasetId::kCora, 5, 0.3).ValueOrDie();
  util::Rng link_rng(1);
  const data::LinkSplit link_split =
      data::MakeLinkSplit(nodes.graph, 0.1, 0.1, &link_rng).ValueOrDie();
  const data::GraphDataset graphs =
      data::MakeGraphDataset(data::GraphDatasetId::kMutag, 3, 0.3)
          .ValueOrDie();
  util::Rng split_rng(1);
  const data::IndexSplit graph_split =
      data::SplitIndices(graphs.graphs.size(), 0.8, 0.1, &split_rng)
          .ValueOrDie();
  TrainConfig tc;
  tc.max_epochs = 4;
  tc.patience = 1000;
  tc.seed = 9;

  auto train_link = [&] {
    core::AdamGnnConfig c;
    c.in_dim = nodes.graph.feature_dim();
    c.hidden_dim = 32;
    c.num_levels = 2;
    util::Rng rng(9);
    core::AdamGnnEmbeddingModel model(c, &rng);
    return TrainLinkPredictor(&model, link_split, tc).ValueOrDie();
  };
  auto train_graph = [&] {
    core::AdamGnnConfig c;
    c.in_dim = graphs.feature_dim;
    c.hidden_dim = 32;
    c.num_levels = 2;
    util::Rng rng(9);
    core::AdamGnnGraphModel model(c, graphs.num_classes, &rng);
    return TrainGraphClassifier(&model, graphs, graph_split, tc,
                                /*batch_size=*/64)
        .ValueOrDie();
  };

  util::SetNumThreads(1);
  const LinkTaskResult link1 = train_link();
  const GraphTaskResult graph1 = train_graph();
  util::SetNumThreads(4);
  const uint64_t jobs_before = PoolJobs();
  const LinkTaskResult link4 = train_link();
  const GraphTaskResult graph4 = train_graph();
  const uint64_t jobs_after = PoolJobs();
  util::SetNumThreads(0);
  if (obs::Enabled() && util::EffectiveParallelism() > 1) {
    EXPECT_GT(jobs_after, jobs_before) << "the 4-thread runs never fanned out";
  }

  ASSERT_EQ(link1.epochs_run, 4);
  ASSERT_EQ(graph1.epochs_run, 4);
  EXPECT_EQ(Bits(link1.epoch_losses), Bits(link4.epoch_losses));
  EXPECT_EQ(Bits({link1.val_auc, link1.test_auc}),
            Bits({link4.val_auc, link4.test_auc}));
  EXPECT_EQ(link1.best_epoch, link4.best_epoch);
  EXPECT_EQ(Bits(graph1.epoch_losses), Bits(graph4.epoch_losses));
  EXPECT_EQ(Bits({graph1.train_accuracy, graph1.val_accuracy,
                  graph1.test_accuracy}),
            Bits({graph4.train_accuracy, graph4.val_accuracy,
                  graph4.test_accuracy}));
  EXPECT_EQ(graph1.best_epoch, graph4.best_epoch);

  // On a cold start every executed epoch records one loss and one time.
  Fixture f;
  util::Rng rng(9);
  pool::FlatNodeModel node_model(f.ModelConfig(), &rng);
  TrainConfig stopping = tc;
  stopping.patience = 1;
  const NodeTaskResult node =
      TrainNodeClassifier(&node_model, f.dataset.graph, f.split, stopping)
          .ValueOrDie();
  for (const TaskResult* r :
       std::vector<const TaskResult*>{&node, &link1, &graph1}) {
    EXPECT_EQ(r->resumed_from_epoch, -1);
    EXPECT_EQ(r->epoch_losses.size(), static_cast<size_t>(r->epochs_run));
    EXPECT_EQ(r->epoch_seconds.size(), static_cast<size_t>(r->epochs_run));
  }
}

}  // namespace
}  // namespace adamgnn::train
