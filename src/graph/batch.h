// Batching for graph-level tasks: stacks a set of graphs into one
// block-diagonal graph plus a node -> graph segment map (the layout used by
// the graph-classification trainers and the readout ops).

#ifndef ADAMGNN_GRAPH_BATCH_H_
#define ADAMGNN_GRAPH_BATCH_H_

#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace adamgnn::graph {

/// A block-diagonal union of member graphs.
struct GraphBatch {
  /// The merged graph (features stacked, no cross-member edges).
  Graph merged;
  /// For each merged node, the index of its source graph in the batch.
  std::vector<size_t> node_to_graph;
  /// graph_label() of each member, aligned with batch indices.
  std::vector<int> graph_labels;
  /// Node-offset of each member within `merged` (size num_graphs + 1).
  std::vector<size_t> offsets;

  size_t num_graphs() const { return graph_labels.size(); }
};

/// Merges `graphs` (all must share feature dimensionality, have at least one
/// node, and carry a graph_label). Pointers must be non-null and the list
/// non-empty. Every rejection is an InvalidArgument naming the offending
/// member index; nothing aborts.
util::Result<GraphBatch> MakeBatch(const std::vector<const Graph*>& graphs);

}  // namespace adamgnn::graph

#endif  // ADAMGNN_GRAPH_BATCH_H_
