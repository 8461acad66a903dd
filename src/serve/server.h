// Serving-path resilience: ResilientServer wraps core::InferenceSession
// with the four protections the bare session lacks —
//
//   1. request deadlines + cooperative cancellation: every attempt runs
//      under a util::CancelToken; an expired deadline aborts plan
//      construction or the forward in bounded time with DeadlineExceeded
//      instead of running to completion;
//   2. admission control: a bounded in-flight budget sheds excess load
//      with ResourceExhausted at the high-water mark (deterministic — no
//      wall-clock randomness in the decision);
//   3. bounded retries + a per-plan circuit breaker: transient failures
//      (injected allocation pressure, internal errors) are retried up to
//      max_retries times with a deterministic exponential backoff schedule;
//      consecutive failures trip the plan's breaker, which sheds requests
//      for a request-counted cooldown before probing;
//   4. graceful degradation: when over budget, after a breaker trip, or
//      once retries are exhausted, the server walks the degradation ladder
//      full plan → shallow plan (λ = 1, one pooling level; ADMP-GNN-style
//      depth adaptation, accuracy degrades smoothly) → stale cached
//      result — and tags the response with the rung that produced it.
//
// Every request runs the same sequential path: forwards are serialized
// per server under one lock. The server keeps no cache of its own: each
// session's fingerprint-keyed result cache decides hits, and a miss builds
// its plan inside the session. The "stale" result is the full session's
// cached entry for the graph, so it lives exactly as long as that entry. A
// response that ran the full plan with no token firing is
// bitwise-identical to InferenceSession::Run on the same graph.
//
// Metrics: serve.requests / serve.ok / serve.degraded /
// serve.deadline_exceeded / serve.retries counters and the
// serve.request_seconds histogram, plus the admission
// (serve.admitted/rejected, serve.queue_depth) and breaker
// (serve.breaker.*) families.

#ifndef ADAMGNN_SERVE_SERVER_H_
#define ADAMGNN_SERVE_SERVER_H_

#include <cstdint>
#include <memory>
#include <mutex>

#include "core/adamgnn_model.h"
#include "core/inference_session.h"
#include "graph/graph.h"
#include "serve/admission.h"
#include "serve/breaker.h"
#include "serve/lifecycle.h"
#include "tensor/matrix.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace adamgnn::serve {

struct ServerOptions {
  /// Hard in-flight budget; requests past it are shed (or served stale).
  size_t max_inflight = 64;
  /// Extra attempts after the first for TRANSIENT failures (allocation
  /// pressure, internal errors). Deadline expiry and explicit cancellation
  /// are never retried — the clock will not rewind.
  int max_retries = 1;
  /// Deterministic backoff schedule: attempt i (1-based retry) sleeps
  /// retry_backoff_s * 2^(i-1). 0 disables sleeping (tests, and the
  /// default: the fault classes we retry are not time-correlated).
  double retry_backoff_s = 0.0;
  /// Default per-request deadline in seconds; <= 0 means none. A request's
  /// own timeout_s overrides this.
  double default_timeout_s = 0.0;
  CircuitBreakerOptions breaker;
  /// Degradation ladder switches.
  bool allow_degraded = true;
  /// Optional, non-owning process lifecycle. When set, Serve consults
  /// lifecycle->Admit() before any work (Unavailable unless Ready) and
  /// registers every admitted request via Track/BindToken so drains wait
  /// for it and the watchdog can cancel it. The lifecycle MUST outlive the
  /// server — the model registry shares one lifecycle across every version
  /// it publishes.
  ServerLifecycle* lifecycle = nullptr;
};

/// Which rung of the degradation ladder produced a response.
enum class ServeMode {
  kFull = 0,            // full-λ plan, fresh forward
  kDegradedShallow = 1, // shallow-λ / fewer-levels fresh forward
  kDegradedStale = 2,   // the full session's cached result for the graph
};
const char* ServeModeToString(ServeMode mode);

struct RequestOptions {
  /// Deadline: < 0 uses the server default, 0 is an already-expired
  /// deadline (the first cooperative check fires), > 0 seconds from now.
  double timeout_s = -1.0;
  /// Optional external cancellation handle; when valid it replaces the
  /// server-made deadline token for every attempt (so a caller-side Cancel
  /// aborts the request wherever it is).
  util::CancelToken token;
};

struct ServeResult {
  tensor::Matrix embeddings;  // (n x hidden)
  tensor::Matrix logits;      // (n x classes); empty without a node head
  ServeMode mode = ServeMode::kFull;
  int lambda_used = 0;
  int levels_used = 0;
  int attempts = 1;  // forward attempts consumed (1 = no retries)
};

class ResilientServer {
 public:
  ResilientServer(const core::AdamGnn& model, const ServerOptions& options);

  ResilientServer(const ResilientServer&) = delete;
  ResilientServer& operator=(const ResilientServer&) = delete;

  /// Serves one request end to end: admission → breaker → deadline-scoped
  /// attempts with bounded retries → degradation ladder. Error statuses:
  ///   DeadlineExceeded  — the request deadline fired and no degraded
  ///                       fallback was available;
  ///   ResourceExhausted — shed at admission, or transient pressure
  ///                       outlasted the retry budget, with no fallback;
  ///   Unavailable       — the plan's circuit breaker is open, no fallback;
  ///   InvalidArgument / FailedPrecondition — malformed request (wrong
  ///                       feature dim, missing features); never retried,
  ///                       never counted against the breaker.
  util::Result<ServeResult> Serve(const graph::Graph& g,
                                  const RequestOptions& request = {});

  /// Re-snapshots weights into both sessions and drops their cached
  /// results, the stale rung's included (weights change ⇒ everything
  /// downstream is stale). Breaker state survives: it describes the plan,
  /// not the weights.
  void RefreshWeights(const core::AdamGnn& model);

  const ServerOptions& options() const { return options_; }
  size_t inflight() const { return admission_.inflight(); }
  CircuitBreaker& breaker() { return breaker_; }
  /// The frozen full-mode session's weight digest (see
  /// InferenceSession::WeightsFingerprint) — the registry's version
  /// identity.
  uint64_t weights_fingerprint() const;

 private:
  // Both run under mu_: the InferenceSession caches are single-writer
  // structures, so forwards are serialized per server. The cooperative
  // checkpoints keep each critical section bounded by one (cancellable)
  // plan build + forward.
  /// Serves `g` through `session` (full or degraded) and tags it `mode`.
  util::Status Run(core::InferenceSession* session, ServeMode mode,
                   const graph::Graph& g, uint64_t fingerprint,
                   ServeResult* out);
  /// The full session's cached result for `g` (keyed by `fingerprint`),
  /// tagged kDegradedStale; false when the graph is not cached.
  bool LookupStale(const graph::Graph& g, uint64_t fingerprint,
                   ServeResult* out);

  util::Result<ServeResult> Degrade(const graph::Graph& g,
                                    uint64_t fingerprint,
                                    const util::CancelToken& token,
                                    util::Status cause, int attempts,
                                    const util::Stopwatch& watch);

  ServerOptions options_;
  AdmissionController admission_;
  CircuitBreaker breaker_;

  mutable std::mutex mu_;
  core::InferenceSession session_;
  core::InferenceSession degraded_session_;
};

}  // namespace adamgnn::serve

#endif  // ADAMGNN_SERVE_SERVER_H_
