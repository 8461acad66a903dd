// Frozen-weight serving path for a trained AdamGNN. An InferenceSession
// holds a deep copy of a model's parameters (decoupled from the optimizer)
// and runs the model's own forward, AdamGnn::Cascade, under
// autograd::NoGradGuard: the same code and kernels as
// Forward(training=false), minus the tape, so session outputs are
// bitwise-identical to it at the same weights.
//
// Caching: results are memoized per graph fingerprint
// (GraphPlan::Fingerprint), so repeated queries against the same graph skip
// the pooling cascade entirely (the dominant serving cost), whichever plan
// object carries them. Each entry also stores its graph's GraphShape; a hit
// whose shape differs from the request's is a key collision and runs as a
// miss that replaces the entry. The cache is a FIFO of the kMaxCachedPlans
// most recently inserted graphs. Invalidation follows the two-axis rule
// documented in DESIGN.md:
//   weights change  => RefreshWeights(model)  — drops the result cache,
//   topology change => a new fingerprint      — a new cache key.

#ifndef ADAMGNN_CORE_INFERENCE_SESSION_H_
#define ADAMGNN_CORE_INFERENCE_SESSION_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/adamgnn_model.h"
#include "core/graph_plan.h"
#include "graph/graph.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace adamgnn::core {

class InferenceSession {
 public:
  /// Snapshots the model's current parameters. Later optimizer steps on the
  /// model do not affect the session until RefreshWeights.
  explicit InferenceSession(const AdamGnn& model);

  /// Degraded-mode session: same frozen weights, but the forward runs at
  /// `lambda_override` (> 0; the ego-network radius) and at most
  /// `max_levels` pooling levels (> 0, clamped to the model's level count).
  /// ADMP-GNN-style depth adaptation: accuracy degrades smoothly with
  /// shallower λ / fewer levels, which makes this the serving layer's
  /// principled load-shedding fallback. Plans for this session must be
  /// built at `lambda_override`.
  InferenceSession(const AdamGnn& model, int lambda_override, int max_levels);

  /// One graph's frozen-weight forward, all raw matrices.
  struct Result {
    tensor::Matrix embeddings;         // (n x hidden)
    tensor::Matrix logits;             // (n x classes); empty without a head
    tensor::Matrix flyback_attention;  // (n x K_effective)
    std::vector<LevelInfo> levels;
    std::vector<size_t> level1_egos;
    std::vector<int64_t> level1_ego_of_node;
  };

  /// Runs (or returns the cached) forward for `plan`, keyed by
  /// plan->fingerprint() and checked against plan->shape(). The reference
  /// stays valid until RefreshWeights or eviction of that entry (the cache
  /// holds the kMaxCachedPlans most recently inserted graphs). Aborts on a
  /// malformed plan or a fired cancellation token — serving layers use
  /// TryRun instead.
  const Result& Run(const std::shared_ptr<const GraphPlan>& plan);

  /// Status-returning Run for the serving path. Polls the ambient
  /// util::CancelToken at every pooling-level boundary and around each
  /// major kernel (the kernels themselves poll at ParallelFor chunk
  /// boundaries), so an expired request deadline aborts the forward in
  /// bounded time with DeadlineExceeded; partial results are discarded and
  /// never cached. Malformed requests (plan/session λ mismatch, missing
  /// features, feature-dim mismatch) return InvalidArgument or
  /// FailedPrecondition instead of aborting the process. When the token
  /// never fires, `*out` is bitwise-identical to Run's result. A cache hit
  /// is returned even for an already-expired request (it costs nothing).
  util::Status TryRun(const std::shared_ptr<const GraphPlan>& plan,
                      const Result** out);

  /// TryRun for a graph whose `fingerprint` (GraphPlan::Fingerprint(g)) the
  /// caller already computed. Only a miss builds a plan, with
  /// GraphPlan::TryBuild at the session's λ and that same fingerprint (the
  /// graph is not hashed again), under the same cancellation rules; the
  /// plan is dropped once its result is cached.
  util::Status TryRun(const graph::Graph& g, uint64_t fingerprint,
                      const Result** out);

  /// The cached result for `fingerprint` when its stored shape is `shape`,
  /// or nullptr. Runs nothing and counts nothing; the pointer has the
  /// lifetime of Run's reference.
  const Result* Cached(uint64_t fingerprint, const GraphShape& shape) const;

  /// Re-snapshots the model's parameters and drops every cached result
  /// (weights change => selection cascade is stale).
  void RefreshWeights(const AdamGnn& model);

  const AdamGnnConfig& config() const { return config_; }

  /// util::WordHash digest of every frozen parameter matrix, in
  /// Parameters() order (shapes + raw bytes), computed at snapshot time.
  /// Two sessions with bitwise-identical weights have equal fingerprints;
  /// the model registry uses this as the version identity for canary
  /// bookkeeping and rollback verification.
  uint64_t WeightsFingerprint() const { return weights_fingerprint_; }

  /// Result-cache capacity, in graphs.
  static constexpr size_t kMaxCachedPlans = 16;

 private:
  struct Entry {
    GraphShape shape;
    Result result;
  };

  /// Counts one request and serves (`fingerprint`, `shape`) from the cache;
  /// on a miss runs `plan` (non-null whenever Cached returns nullptr) and
  /// caches the result, replacing a colliding entry of another shape.
  util::Status Lookup(uint64_t fingerprint, const GraphShape& shape,
                      const GraphPlan* plan, const Result** out);
  util::Status RunUncached(const GraphPlan& plan, Result* out) const;
  void Snapshot(const AdamGnn& model);

  AdamGnnConfig config_;
  uint64_t weights_fingerprint_ = 0;
  std::unique_ptr<const AdamGnn> model_;  // frozen deep copy

  // Result cache keyed by graph fingerprint; `order_` holds the keys in
  // insertion order, oldest first, for FIFO eviction.
  std::unordered_map<uint64_t, Entry> cache_;
  std::vector<uint64_t> order_;
};

}  // namespace adamgnn::core

#endif  // ADAMGNN_CORE_INFERENCE_SESSION_H_
