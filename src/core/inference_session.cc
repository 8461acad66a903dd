#include "core/inference_session.h"

#include <string>

#include "autograd/variable.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace adamgnn::core {

namespace {

// Request telemetry: every Run() is one request; cache hits return the
// memoized Result, misses pay for RunUncached. Evictions count graphs pushed
// out of the FIFO by kMaxCachedPlans.
obs::Counter& InferRequests() {
  static obs::Counter* c = new obs::Counter("infer.requests");
  return *c;
}
obs::Counter& PlanCacheHits() {
  static obs::Counter* c = new obs::Counter("infer.plan_cache.hits");
  return *c;
}
obs::Counter& PlanCacheMisses() {
  static obs::Counter* c = new obs::Counter("infer.plan_cache.misses");
  return *c;
}
obs::Counter& PlanCacheEvictions() {
  static obs::Counter* c = new obs::Counter("infer.plan_cache.evictions");
  return *c;
}
obs::Histogram& RequestSeconds() {
  static obs::Histogram* h =
      new obs::Histogram("infer.request_seconds", obs::LatencyBucketBounds());
  return *h;
}
}  // namespace

InferenceSession::InferenceSession(const AdamGnn& model) { Snapshot(model); }

InferenceSession::InferenceSession(const AdamGnn& model, int lambda_override,
                                   int max_levels) {
  ADAMGNN_CHECK_GE(lambda_override, 1);
  ADAMGNN_CHECK_GE(max_levels, 1);
  Snapshot(model);
  // Shallow-depth serving: run fewer pooling levels at a smaller ego radius.
  // Both are arguments of AdamGnn::Cascade, so the overrides live only in
  // the session's config.
  config_.lambda = lambda_override;
  if (max_levels < config_.num_levels) config_.num_levels = max_levels;
}

void InferenceSession::Snapshot(const AdamGnn& model) {
  config_ = model.config();
  // The copy's initial weights are overwritten below, so the seed is moot.
  util::Rng unused(0);
  auto frozen = std::make_unique<AdamGnn>(config_, &unused);
  const std::vector<autograd::Variable> from = model.Parameters();
  std::vector<autograd::Variable> to = frozen->Parameters();
  ADAMGNN_CHECK_EQ(from.size(), to.size());

  // Version identity: one word stream over every frozen matrix, shapes
  // included so structurally different checkpoints can never collide
  // through zero-sized payloads.
  util::WordHash h;
  for (size_t i = 0; i < from.size(); ++i) {
    const tensor::Matrix& m = from[i].value();
    ADAMGNN_CHECK(m.SameShape(to[i].value()));
    to[i].mutable_value() = m;
    h.Add(m.rows());
    h.Add(m.cols());
    h.AddWords(m.data(), m.rows() * m.cols());
  }
  weights_fingerprint_ = h.Digest();
  model_ = std::move(frozen);
}

void InferenceSession::RefreshWeights(const AdamGnn& model) {
  // Snapshot resets config_ from the model; a degraded-mode session must
  // keep its λ / level-count overrides across weight refreshes.
  const int lambda = config_.lambda;
  const int num_levels = config_.num_levels;
  Snapshot(model);
  config_.lambda = lambda;
  if (num_levels < config_.num_levels) config_.num_levels = num_levels;
  cache_.clear();
  order_.clear();
}

const InferenceSession::Result& InferenceSession::Run(
    const std::shared_ptr<const GraphPlan>& plan) {
  const Result* out = nullptr;
  // Without an ambient cancellation token and with a well-formed plan,
  // TryRun cannot fail, so the training/eval path keeps its infallible
  // reference-returning contract.
  TryRun(plan, &out).CheckOK();
  return *out;
}

util::Status InferenceSession::TryRun(
    const std::shared_ptr<const GraphPlan>& plan, const Result** out) {
  ADAMGNN_CHECK(plan != nullptr);
  ADAMGNN_CHECK(out != nullptr);
  *out = nullptr;
  // Checked before the lookup: a plan built at another λ shares the
  // graph's fingerprint, so it would otherwise hit this λ's result.
  if (plan->lambda() != config_.lambda) {
    return util::Status::InvalidArgument(
        "plan lambda " + std::to_string(plan->lambda()) +
        " != session lambda " + std::to_string(config_.lambda));
  }
  return Lookup(plan->fingerprint(), plan->shape(), plan.get(), out);
}

util::Status InferenceSession::TryRun(const graph::Graph& g,
                                      uint64_t fingerprint,
                                      const Result** out) {
  ADAMGNN_CHECK(out != nullptr);
  *out = nullptr;
  const GraphShape shape = GraphShape::Of(g);
  std::shared_ptr<const GraphPlan> plan;
  if (Cached(fingerprint, shape) == nullptr) {
    ADAMGNN_ASSIGN_OR_RETURN(
        plan, GraphPlan::TryBuild(g, config_.lambda, fingerprint));
  }
  return Lookup(fingerprint, shape, plan.get(), out);
}

const InferenceSession::Result* InferenceSession::Cached(
    uint64_t fingerprint, const GraphShape& shape) const {
  auto it = cache_.find(fingerprint);
  if (it == cache_.end() || it->second.shape != shape) return nullptr;
  return &it->second.result;
}

util::Status InferenceSession::Lookup(uint64_t fingerprint,
                                      const GraphShape& shape,
                                      const GraphPlan* plan,
                                      const Result** out) {
  InferRequests().Add();
  obs::TraceSpan span("infer.request");
  util::Stopwatch sw;
  auto it = cache_.find(fingerprint);
  if (it != cache_.end() && it->second.shape == shape) {
    PlanCacheHits().Add();
    span.Note("cache_hit", 1.0);
    RequestSeconds().Observe(sw.ElapsedSeconds());
    *out = &it->second.result;
    return util::Status::OK();
  }
  PlanCacheMisses().Add();
  span.Note("cache_hit", 0.0);
  ADAMGNN_CHECK(plan != nullptr);
  Result result;
  ADAMGNN_RETURN_NOT_OK(RunUncached(*plan, &result));
  // Partial results from a cancelled forward never reach the cache: the
  // eviction + insert below only happen after RunUncached ran to the end.
  if (it != cache_.end()) {
    // A key collision with a graph of another shape: the new result takes
    // over the entry and its FIFO slot.
    it->second = {shape, std::move(result)};
  } else {
    if (order_.size() >= kMaxCachedPlans) {
      PlanCacheEvictions().Add();
      cache_.erase(order_.front());
      order_.erase(order_.begin());
    }
    order_.push_back(fingerprint);
    it = cache_.emplace(fingerprint, Entry{shape, std::move(result)}).first;
  }
  RequestSeconds().Observe(sw.ElapsedSeconds());
  *out = &it->second.result;
  return util::Status::OK();
}

util::Status InferenceSession::RunUncached(const GraphPlan& plan,
                                           Result* out) const {
  if (!plan.feature_constant().defined()) {
    return util::Status::FailedPrecondition(
        "plan has no feature constant (graph without node features)");
  }
  const tensor::Matrix& x = plan.feature_constant().value();
  if (x.cols() != config_.in_dim) {
    return util::Status::InvalidArgument(
        "feature dim " + std::to_string(x.cols()) + " != model in_dim " +
        std::to_string(config_.in_dim));
  }
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());

  autograd::NoGradGuard no_grad;
  const autograd::Variable h0 = model_->PrimaryRepresentations(
      plan.norm_adj(), plan.feature_constant(), /*training=*/false, nullptr);
  AdamGnn::Output fwd;
  ADAMGNN_RETURN_NOT_OK(model_->Cascade(
      plan.adjacency(), plan.level0(), h0, config_.lambda, config_.num_levels,
      /*training=*/false, /*rng=*/nullptr, /*loss_graph=*/nullptr, &fwd));
  out->embeddings = fwd.embeddings.value();
  out->logits =
      fwd.logits.defined() ? fwd.logits.value() : tensor::Matrix();
  out->flyback_attention = std::move(fwd.flyback_attention);
  out->levels = std::move(fwd.levels);
  out->level1_egos = std::move(fwd.level1_egos);
  out->level1_ego_of_node = std::move(fwd.level1_ego_of_node);
  return util::Status::OK();
}

}  // namespace adamgnn::core
