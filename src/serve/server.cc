#include "serve/server.h"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "core/graph_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace adamgnn::serve {

namespace {

// The shallow rung of the degradation ladder: λ = 1 and one pooling level.
constexpr int kDegradedLambda = 1;
constexpr int kDegradedMaxLevels = 1;

obs::Counter& ServeRequests() {
  static obs::Counter* c = new obs::Counter("serve.requests");
  return *c;
}
obs::Counter& ServeOk() {
  static obs::Counter* c = new obs::Counter("serve.ok");
  return *c;
}
obs::Counter& ServeDegraded() {
  static obs::Counter* c = new obs::Counter("serve.degraded");
  return *c;
}
obs::Counter& ServeDeadlineExceeded() {
  static obs::Counter* c = new obs::Counter("serve.deadline_exceeded");
  return *c;
}
obs::Counter& ServeRetries() {
  static obs::Counter* c = new obs::Counter("serve.retries");
  return *c;
}
obs::Histogram& ServeSeconds() {
  static obs::Histogram* h =
      new obs::Histogram("serve.request_seconds", obs::LatencyBucketBounds());
  return *h;
}
/// Client errors: the request itself is wrong, so retrying is pointless and
/// the failure says nothing about the plan's health.
bool IsClientError(const util::Status& s) {
  return s.code() == util::StatusCode::kInvalidArgument ||
         s.code() == util::StatusCode::kFailedPrecondition ||
         s.code() == util::StatusCode::kNotFound;
}

/// Failures a retry cannot fix within this request: the deadline has
/// already passed, or the caller explicitly cancelled.
bool IsTerminal(const util::Status& s) {
  return s.code() == util::StatusCode::kDeadlineExceeded ||
         s.code() == util::StatusCode::kCancelled;
}

/// Copies `session`'s cached result into a response tagged `mode`.
void CopyResult(const core::InferenceSession& session,
                const core::InferenceSession::Result& r, ServeMode mode,
                ServeResult* out) {
  out->embeddings = r.embeddings;
  out->logits = r.logits;
  out->mode = mode;
  out->lambda_used = session.config().lambda;
  out->levels_used = session.config().num_levels;
}

}  // namespace

const char* ServeModeToString(ServeMode mode) {
  switch (mode) {
    case ServeMode::kFull:
      return "full";
    case ServeMode::kDegradedShallow:
      return "degraded-shallow";
    case ServeMode::kDegradedStale:
      return "degraded-stale";
  }
  return "unknown";
}

ResilientServer::ResilientServer(const core::AdamGnn& model,
                                 const ServerOptions& options)
    : options_(options),
      admission_(options.max_inflight),
      breaker_(options.breaker),
      session_(model),
      degraded_session_(model, kDegradedLambda, kDegradedMaxLevels) {
  ADAMGNN_CHECK_GE(options.max_retries, 0);
}

util::Result<ServeResult> ResilientServer::Serve(
    const graph::Graph& g, const RequestOptions& request) {
  ServeRequests().Add();
  obs::TraceSpan span("serve.request");
  util::Stopwatch watch;

  // Lifecycle gate FIRST: a draining/stopped process sheds with Unavailable
  // before spending any compute, and before admission counts the request —
  // a drain must only wait for requests that were actually accepted.
  if (options_.lifecycle != nullptr) {
    util::Status admit = options_.lifecycle->Admit();
    if (!admit.ok()) {
      span.Note("lifecycle_rejected", 1.0);
      return admit;
    }
  }

  // Fingerprint BEFORE binding any cancellation token: the digest loop
  // early-exits under a fired token, and a truncated digest must never
  // become a cache/breaker key.
  const uint64_t fingerprint = core::GraphPlan::Fingerprint(g);

  util::Result<AdmissionController::Permit> permit = admission_.TryAdmit();
  if (!permit.ok()) {
    // Over budget. Running MORE work now would defeat admission control, so
    // the only acceptable fallback is a stale cached result (free).
    if (options_.allow_degraded) {
      ServeResult stale;
      if (LookupStale(g, fingerprint, &stale)) {
        ServeDegraded().Add();
        span.Note("degraded_stale", 1.0);
        ServeSeconds().Observe(watch.ElapsedSeconds());
        return stale;
      }
    }
    return permit.status();
  }

  // Resolve the request deadline once, as an absolute time point, so every
  // retry attempt gets a fresh token honoring the SAME deadline (a reused
  // token would stay fired after the first expiry and starve retries of
  // their fair share of the budget).
  const double timeout_s =
      request.timeout_s >= 0 ? request.timeout_s : options_.default_timeout_s;
  const bool has_deadline = request.timeout_s >= 0
                                ? true
                                : options_.default_timeout_s > 0;
  const auto deadline_at =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  // Lifecycle tracking: the admitted request registers for drain
  // accounting and the watchdog's hard bound. Each attempt re-binds its
  // fresh token (inside make_token) so the watchdog and drain-cancel paths
  // always fire the token of the attempt that is actually executing.
  InflightGuard inflight_guard;
  if (options_.lifecycle != nullptr) {
    inflight_guard = options_.lifecycle->Track(has_deadline ? timeout_s : 0.0);
  }
  const auto make_token = [&]() -> util::CancelToken {
    util::CancelToken token;
    if (request.token.valid()) {
      token = request.token;
    } else if (has_deadline) {
      token = util::CancelToken::WithDeadlineAt(deadline_at);
    } else {
      // Even without a deadline the attempt gets a live token, so
      // allocation pressure (AllocCheckpoint) can abort a serving request —
      // only paths with no token at all (training) are immune by design —
      // and so drain/watchdog cancellation has something to fire.
      token = util::CancelToken::Cancellable();
    }
    inflight_guard.BindToken(token);
    return token;
  };

  if (!breaker_.Allow(fingerprint)) {
    span.Note("breaker_shed", 1.0);
    return Degrade(g, fingerprint, make_token(),
                   util::Status::Unavailable(
                       "circuit breaker open for plan fingerprint " +
                       std::to_string(fingerprint)),
                   /*attempts=*/0, watch);
  }

  util::Status last = util::Status::OK();
  int attempts = 0;
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      ServeRetries().Add();
      if (options_.retry_backoff_s > 0) {
        // Deterministic schedule: base * 2^(attempt-1). No jitter — the
        // failures we retry (injected pressure, internal errors) are not
        // time-correlated, and determinism is worth more here.
        const double sleep_s =
            options_.retry_backoff_s * static_cast<double>(1 << (attempt - 1));
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      }
    }
    ++attempts;
    util::CancelToken token = make_token();
    ServeResult result;
    util::Status st;
    {
      util::ScopedCancel bind(token);
      st = Run(&session_, ServeMode::kFull, g, fingerprint, &result);
    }
    if (st.ok()) {
      breaker_.RecordSuccess(fingerprint);
      result.attempts = attempts;
      ServeOk().Add();
      ServeSeconds().Observe(watch.ElapsedSeconds());
      return result;
    }
    last = st;
    if (IsClientError(st)) return st;  // not the plan's fault; no breaker
    breaker_.RecordFailure(fingerprint);
    if (IsTerminal(st)) break;  // the clock will not rewind
  }

  if (last.code() == util::StatusCode::kDeadlineExceeded) {
    ServeDeadlineExceeded().Add();
    span.Note("deadline_exceeded", 1.0);
  }
  return Degrade(g, fingerprint, make_token(), last, attempts, watch);
}

util::Result<ServeResult> ResilientServer::Degrade(
    const graph::Graph& g, uint64_t fingerprint,
    const util::CancelToken& token, util::Status cause, int attempts,
    const util::Stopwatch& watch) {
  if (!options_.allow_degraded) return cause;

  // Rung 1: a fresh forward at shallow λ / fewer levels. Still runs under
  // the request deadline — if that has already fired, this fails fast and
  // the ladder falls through to rung 2.
  {
    util::ScopedCancel bind(token);
    ServeResult result;
    util::Status st = Run(&degraded_session_, ServeMode::kDegradedShallow, g,
                          fingerprint, &result);
    if (st.ok()) {
      result.attempts = attempts + 1;
      ServeDegraded().Add();
      ServeSeconds().Observe(watch.ElapsedSeconds());
      return result;
    }
  }

  // Rung 2: the full session's cached result for the same graph, if it
  // still holds one.
  ServeResult stale;
  if (LookupStale(g, fingerprint, &stale)) {
    stale.attempts = attempts + 1;
    ServeDegraded().Add();
    ServeSeconds().Observe(watch.ElapsedSeconds());
    return stale;
  }

  return cause;
}

util::Status ResilientServer::Run(core::InferenceSession* session,
                                  ServeMode mode, const graph::Graph& g,
                                  uint64_t fingerprint, ServeResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const core::InferenceSession::Result* r = nullptr;
  ADAMGNN_RETURN_NOT_OK(session->TryRun(g, fingerprint, &r));
  CopyResult(*session, *r, mode, out);
  return util::Status::OK();
}

bool ResilientServer::LookupStale(const graph::Graph& g, uint64_t fingerprint,
                                  ServeResult* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const core::InferenceSession::Result* r =
      session_.Cached(fingerprint, core::GraphShape::Of(g));
  if (r == nullptr) return false;
  CopyResult(session_, *r, ServeMode::kDegradedStale, out);
  return true;
}

uint64_t ResilientServer::weights_fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return session_.WeightsFingerprint();
}

void ResilientServer::RefreshWeights(const core::AdamGnn& model) {
  std::lock_guard<std::mutex> lock(mu_);
  session_.RefreshWeights(model);
  degraded_session_.RefreshWeights(model);
}

}  // namespace adamgnn::serve
