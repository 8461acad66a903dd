#include "core/inference_session.h"

#include <string>

#include "autograd/variable.h"
#include "graph/batch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace adamgnn::core {

namespace {

// Request telemetry: every Run() is one request; cache hits return the
// memoized Result, misses pay for RunUncached. Evictions count plans pushed
// out of the LRU-ish FIFO by kMaxCachedPlans.
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
obs::Counter& BatchRuns() {
  static obs::Counter* c = new obs::Counter("infer.batch.runs");
  return *c;
}
obs::Counter& BatchMembers() {
  static obs::Counter* c = new obs::Counter("infer.batch.members");
  return *c;
}
obs::Counter& BatchCacheHits() {
  static obs::Counter* c = new obs::Counter("infer.batch.cache.hits");
  return *c;
}
obs::Counter& BatchCacheMisses() {
  static obs::Counter* c = new obs::Counter("infer.batch.cache.misses");
  return *c;
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

  // Version identity: FNV-1a over every frozen matrix, shapes included so
  // structurally different checkpoints can never collide through zero-sized
  // payloads. Same constants/mix as GraphPlan::Fingerprint.
  constexpr uint64_t kOffset = 14695981039346656037ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h = kOffset;
  auto mix_u64 = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffu;
      h *= kPrime;
    }
  };
  for (size_t i = 0; i < from.size(); ++i) {
    const tensor::Matrix& m = from[i].value();
    ADAMGNN_CHECK(m.SameShape(to[i].value()));
    to[i].mutable_value() = m;
    mix_u64(static_cast<uint64_t>(m.rows()));
    mix_u64(static_cast<uint64_t>(m.cols()));
    const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
    const size_t n = m.rows() * m.cols() * sizeof(double);
    for (size_t b = 0; b < n; ++b) {
      h ^= bytes[b];
      h *= kPrime;
    }
  }
  weights_fingerprint_ = h;
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
  batch_cache_.clear();
  batch_order_.clear();
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
  InferRequests().Add();
  obs::TraceSpan span("infer.request");
  util::Stopwatch sw;
  auto it = cache_.find(plan.get());
  if (it != cache_.end()) {
    PlanCacheHits().Add();
    span.Note("cache_hit", 1.0);
    RequestSeconds().Observe(sw.ElapsedSeconds());
    *out = &it->second;
    return util::Status::OK();
  }
  PlanCacheMisses().Add();
  span.Note("cache_hit", 0.0);
  Result result;
  ADAMGNN_RETURN_NOT_OK(RunUncached(*plan, &result));
  // Partial results from a cancelled forward never reach the cache: the
  // eviction + insert below only happen after RunUncached ran to the end.
  if (order_.size() >= kMaxCachedPlans) {
    PlanCacheEvictions().Add();
    cache_.erase(order_.front().get());
    order_.erase(order_.begin());
  }
  order_.push_back(plan);
  const Result& cached =
      cache_.emplace(plan.get(), std::move(result)).first->second;
  RequestSeconds().Observe(sw.ElapsedSeconds());
  *out = &cached;
  return util::Status::OK();
}

util::Status InferenceSession::RunUncached(const GraphPlan& plan,
                                           Result* out_result) const {
  if (!plan.feature_constant().defined()) {
    return util::Status::FailedPrecondition(
        "plan has no feature constant (graph without node features)");
  }
  if (plan.lambda() != config_.lambda) {
    return util::Status::InvalidArgument(
        "plan lambda " + std::to_string(plan.lambda()) +
        " != session lambda " + std::to_string(config_.lambda));
  }
  const tensor::Matrix& x = plan.feature_constant().value();
  if (x.cols() != config_.in_dim) {
    return util::Status::InvalidArgument(
        "feature dim " + std::to_string(x.cols()) + " != model in_dim " +
        std::to_string(config_.in_dim));
  }
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());

  autograd::NoGradGuard no_grad;
  return RunFrom(plan.adjacency(), plan.level0(),
                 model_->PrimaryRepresentations(plan.norm_adj(),
                                                plan.feature_constant(),
                                                /*training=*/false, nullptr),
                 out_result);
}

util::Status InferenceSession::RunFrom(const graph::SparseMatrix& adjacency,
                                       const LevelTopology& level0,
                                       const autograd::Variable& h0,
                                       Result* out) const {
  AdamGnn::Output fwd;
  ADAMGNN_RETURN_NOT_OK(model_->Cascade(
      adjacency, level0, h0, config_.lambda, config_.num_levels,
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

util::Status InferenceSession::TryRunBatch(
    const std::shared_ptr<const BatchPlan>& plan,
    const std::vector<util::CancelToken>& member_tokens,
    std::vector<BatchItem>* out) {
  ADAMGNN_CHECK(plan != nullptr);
  ADAMGNN_CHECK(out != nullptr);
  out->clear();
  const size_t m_count = plan->num_members();
  if (!member_tokens.empty() && member_tokens.size() != m_count) {
    return util::Status::InvalidArgument(
        "member token count " + std::to_string(member_tokens.size()) +
        " != batch member count " + std::to_string(m_count));
  }
  const GraphPlan& merged = *plan->merged();
  if (!merged.feature_constant().defined()) {
    return util::Status::FailedPrecondition(
        "batch plan has no feature constant (graphs without node features)");
  }
  if (merged.lambda() != config_.lambda) {
    return util::Status::InvalidArgument(
        "batch plan lambda " + std::to_string(merged.lambda()) +
        " != session lambda " + std::to_string(config_.lambda));
  }
  const tensor::Matrix& x = merged.feature_constant().value();
  if (x.cols() != config_.in_dim) {
    return util::Status::InvalidArgument(
        "feature dim " + std::to_string(x.cols()) + " != model in_dim " +
        std::to_string(config_.in_dim));
  }
  BatchRuns().Add();
  BatchMembers().Add(m_count);
  obs::TraceSpan span("infer.batch");
  span.Note("members", static_cast<double>(m_count));

  // Recurring batch composition: the whole window is a cache hit. Like the
  // single-graph path, a hit is served even to members whose token already
  // fired — copying cached bits costs (nearly) nothing.
  auto cached_it = batch_cache_.find(plan.get());
  if (cached_it != batch_cache_.end()) {
    BatchCacheHits().Add();
    span.Note("cache_hit", 1.0);
    out->resize(m_count);
    for (size_t m = 0; m < m_count; ++m) {
      (*out)[m].status = util::Status::OK();
      (*out)[m].result = cached_it->second[m];
    }
    return util::Status::OK();
  }
  BatchCacheMisses().Add();
  span.Note("cache_hit", 0.0);

  // Fused phase: ONE input GCN layer over the block-diagonal union. Safe to
  // fuse bitwise (see batch_plan.h): Â's row-gather SpMM sums each row's
  // CSR entries in order and the GEMM accumulates each output element over
  // its own row alone, so member rows of the merged h0 are identical to the
  // members' single-graph h0 rows. Runs under the AMBIENT token (a
  // batch-level failure here fails the whole batch; the serving scheduler
  // then retries members individually).
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
  autograd::NoGradGuard no_grad;
  autograd::Variable h0 = model_->PrimaryRepresentations(
      merged.norm_adj(), merged.feature_constant(), /*training=*/false,
      nullptr);
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
  ADAMGNN_ASSIGN_OR_RETURN(std::vector<tensor::Matrix> h0_parts,
                           graph::SplitRows(h0.value(), plan->offsets()));

  // Member phase: the weight-dependent cascade, one member at a time, each
  // under its own cancellation token. A fired token costs only its own
  // member; cancellation is polled at the member's cooperative checkpoints,
  // so other members never observe it.
  out->resize(m_count);
  for (size_t m = 0; m < m_count; ++m) {
    BatchItem& item = (*out)[m];
    const util::CancelToken* token =
        member_tokens.empty() || !member_tokens[m].valid() ? nullptr
                                                           : &member_tokens[m];
    if (token != nullptr) {
      const util::Status pre = token->Check();
      if (!pre.ok()) {
        item.status = pre;  // dropped before any of its work ran
        continue;
      }
    }
    std::unique_ptr<util::ScopedCancel> bind;
    if (token != nullptr) bind = std::make_unique<util::ScopedCancel>(*token);
    const BatchPlan::MemberView& view = plan->member(m);
    item.status = RunFrom(view.adjacency, view.level0,
                          autograd::Variable::Constant(std::move(h0_parts[m])),
                          &item.result);
  }

  // Memoize only fully-successful batches: a cancelled or failed member
  // would bake a partial window into the cache (same never-cache-partials
  // rule as TryRun).
  bool all_ok = true;
  for (const BatchItem& item : *out) all_ok = all_ok && item.status.ok();
  if (all_ok) {
    if (batch_order_.size() >= kMaxCachedPlans) {
      batch_cache_.erase(batch_order_.front().get());
      batch_order_.erase(batch_order_.begin());
    }
    std::vector<Result> memo;
    memo.reserve(m_count);
    for (const BatchItem& item : *out) memo.push_back(item.result);
    batch_order_.push_back(plan);
    batch_cache_.emplace(plan.get(), std::move(memo));
  }
  return util::Status::OK();
}

std::vector<InferenceSession::Result> InferenceSession::RunBatch(
    const std::shared_ptr<const BatchPlan>& plan) {
  std::vector<BatchItem> items;
  TryRunBatch(plan, {}, &items).CheckOK();
  std::vector<Result> results;
  results.reserve(items.size());
  for (BatchItem& item : items) {
    item.status.CheckOK();
    results.push_back(std::move(item.result));
  }
  return results;
}

std::vector<int> InferenceSession::PredictNodes(
    const std::shared_ptr<const GraphPlan>& plan) {
  const Result& r = Run(plan);
  ADAMGNN_CHECK_GT(r.logits.size(), 0u);
  std::vector<int> pred(r.logits.rows());
  for (size_t i = 0; i < r.logits.rows(); ++i) {
    const double* row = r.logits.row(i);
    size_t best = 0;
    for (size_t j = 1; j < r.logits.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    pred[i] = static_cast<int>(best);
  }
  return pred;
}

std::vector<double> InferenceSession::ScoreLinks(
    const std::shared_ptr<const GraphPlan>& plan,
    const std::vector<std::pair<size_t, size_t>>& pairs) {
  const Result& r = Run(plan);
  std::vector<double> scores(pairs.size());
  for (size_t e = 0; e < pairs.size(); ++e) {
    ADAMGNN_CHECK_LT(pairs[e].first, r.embeddings.rows());
    ADAMGNN_CHECK_LT(pairs[e].second, r.embeddings.rows());
    const double* a = r.embeddings.row(pairs[e].first);
    const double* b = r.embeddings.row(pairs[e].second);
    double s = 0.0;
    for (size_t j = 0; j < r.embeddings.cols(); ++j) s += a[j] * b[j];
    scores[e] = s;
  }
  return scores;
}

tensor::Matrix InferenceSession::GraphLogits(
    const std::shared_ptr<const GraphPlan>& plan,
    const std::vector<size_t>& node_to_graph, size_t num_graphs) {
  ADAMGNN_CHECK(model_->graph_head() != nullptr);
  const Result& r = Run(plan);
  autograd::NoGradGuard no_grad;
  AdamGnn::Output out;
  out.embeddings = autograd::Variable::Constant(r.embeddings);
  return model_->GraphLogits(out, node_to_graph, num_graphs).value();
}

}  // namespace adamgnn::core
