#include "graph/batch.h"

#include <algorithm>
#include <string>

#include "graph/builder.h"

namespace adamgnn::graph {

util::Result<GraphBatch> MakeBatch(const std::vector<const Graph*>& graphs) {
  if (graphs.empty()) {
    return util::Status::InvalidArgument("empty batch");
  }
  size_t total_nodes = 0;
  size_t feature_dim = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Graph* g = graphs[i];
    if (g == nullptr) {
      return util::Status::InvalidArgument("batch member " + std::to_string(i) +
                                           " is null");
    }
    if (g->num_nodes() == 0) {
      return util::Status::InvalidArgument("batch member " + std::to_string(i) +
                                           " has zero nodes");
    }
    if (!g->has_features()) {
      return util::Status::InvalidArgument("batch member " + std::to_string(i) +
                                           " lacks features");
    }
    if (g->graph_label() < 0) {
      return util::Status::InvalidArgument("batch member " + std::to_string(i) +
                                           " lacks a graph label");
    }
    if (i == 0) {
      feature_dim = g->feature_dim();
    } else if (g->feature_dim() != feature_dim) {
      return util::Status::InvalidArgument(
          "batch member " + std::to_string(i) + " feature dim " +
          std::to_string(g->feature_dim()) + " != member 0 feature dim " +
          std::to_string(feature_dim));
    }
    total_nodes += g->num_nodes();
  }

  GraphBatch batch;
  batch.offsets.push_back(0);
  GraphBuilder builder(total_nodes);
  tensor::Matrix features(total_nodes, feature_dim);
  size_t base = 0;
  for (const Graph* g : graphs) {
    for (const Edge& e : g->UndirectedEdges()) {
      ADAMGNN_RETURN_NOT_OK(builder.AddEdge(
          e.src + static_cast<NodeId>(base), e.dst + static_cast<NodeId>(base),
          e.weight));
    }
    for (size_t r = 0; r < g->num_nodes(); ++r) {
      std::copy(g->features().row(r), g->features().row(r) + feature_dim,
                features.row(base + r));
      batch.node_to_graph.push_back(batch.graph_labels.size());
    }
    batch.graph_labels.push_back(g->graph_label());
    base += g->num_nodes();
    batch.offsets.push_back(base);
  }
  ADAMGNN_RETURN_NOT_OK(builder.SetFeatures(std::move(features)));
  ADAMGNN_ASSIGN_OR_RETURN(batch.merged, std::move(builder).Build());
  return batch;
}

}  // namespace adamgnn::graph
