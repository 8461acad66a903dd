// Resilience suite for the serving path (serve::ResilientServer +
// util::CancelToken + the cooperative checkpoints threaded through
// GraphPlan::TryBuild and InferenceSession::TryRun).
//
// The two load-bearing properties:
//   1. Zero numeric drift: a request whose token never fires is bitwise
//      identical to the pre-resilience InferenceSession::Run — even with
//      the fault injector armed (checkpoints touch no data).
//   2. Bounded-time abort everywhere: the deadline sweep uses the injected
//      deadline clock (FaultPlan::expire_deadline_at_check) to fire the
//      request's clock at EVERY cooperative checkpoint a cold request
//      passes — during plan construction and during the forward — and each
//      firing must produce a clean DeadlineExceeded, never a crash, never a
//      poisoned cache.
// Deadline-sweep tests pin the pool to one thread so the checkpoint count
// is deterministic; see the ParallelFor chunking contract in thread_pool.h.

#include "serve/server.h"

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/adamgnn_model.h"
#include "core/graph_plan.h"
#include "core/inference_session.h"
#include "gtest/gtest.h"
#include "serve/admission.h"
#include "serve/breaker.h"
#include "test_util.h"
#include "util/cancel.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace adamgnn::serve {
namespace {

using adamgnn::testing::Ring;
using adamgnn::testing::TwoTriangles;
using core::AdamGnn;
using core::AdamGnnConfig;
using core::GraphPlan;
using core::InferenceSession;
using tensor::Matrix;
using util::FaultInjector;
using util::FaultOp;
using util::FaultPlan;
using util::ScopedFaultPlan;

AdamGnnConfig SmallConfig(size_t in_dim, size_t classes) {
  AdamGnnConfig c;
  c.in_dim = in_dim;
  c.hidden_dim = 8;
  c.num_classes = classes;
  c.num_levels = 2;
  c.dropout = 0.0;
  return c;
}

/// The pre-resilience serving path: plan + session, no server in front.
InferenceSession::Result Reference(const AdamGnn& model,
                                   const graph::Graph& g) {
  InferenceSession session(model);
  auto plan = GraphPlan::Build(g, model.config().lambda);
  return session.Run(plan);
}

// ---------------------------------------------------------------------------
// CancelToken basics.

TEST(CancelTokenTest, InertTokenNeverFires) {
  util::CancelToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.cancelled());
  EXPECT_TRUE(t.Check().ok());
  t.Cancel();  // no-op on an inert token
  EXPECT_TRUE(t.Check().ok());
}

TEST(CancelTokenTest, CancellableFiresOnceFirstCauseWins) {
  util::CancelToken t = util::CancelToken::Cancellable();
  EXPECT_TRUE(t.valid());
  EXPECT_TRUE(t.Check().ok());
  t.CancelWith(util::Status::ResourceExhausted("pressure"));
  t.Cancel();  // later cause must not overwrite the first
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.Check().code(), util::StatusCode::kResourceExhausted);
}

TEST(CancelTokenTest, NonPositiveTimeoutIsAlreadyExpired) {
  util::CancelToken t = util::CancelToken::WithTimeout(0.0);
  EXPECT_EQ(t.Check().code(), util::StatusCode::kDeadlineExceeded);
  util::CancelToken u = util::CancelToken::WithTimeout(-1.0);
  EXPECT_TRUE(u.Poll());
}

TEST(CancelTokenTest, ScopedBindingIsAmbientAndNests) {
  EXPECT_EQ(util::CurrentCancel(), nullptr);
  EXPECT_TRUE(util::CheckCancel().ok());
  util::CancelToken outer = util::CancelToken::Cancellable();
  {
    util::ScopedCancel bind_outer(outer);
    ASSERT_NE(util::CurrentCancel(), nullptr);
    util::CancelToken inner = util::CancelToken::WithTimeout(0.0);
    {
      util::ScopedCancel bind_inner(inner);
      EXPECT_EQ(util::CheckCancel().code(),
                util::StatusCode::kDeadlineExceeded);
    }
    EXPECT_TRUE(util::CheckCancel().ok());  // outer restored, not fired
    outer.Cancel();
    EXPECT_EQ(util::CheckCancel().code(), util::StatusCode::kCancelled);
  }
  EXPECT_EQ(util::CurrentCancel(), nullptr);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(AdmissionTest, BudgetIsEnforcedAndSlotsAreReleased) {
  AdmissionController admission(2);
  auto p1 = admission.TryAdmit();
  auto p2 = admission.TryAdmit();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(admission.inflight(), 2u);

  auto p3 = admission.TryAdmit();
  ASSERT_FALSE(p3.ok());
  EXPECT_EQ(p3.status().code(), util::StatusCode::kResourceExhausted);

  {
    AdmissionController::Permit moved = std::move(p1).ValueOrDie();
    EXPECT_TRUE(moved.held());
  }  // permit destroyed => slot released
  EXPECT_EQ(admission.inflight(), 1u);
  EXPECT_TRUE(admission.TryAdmit().ok());
}

// ---------------------------------------------------------------------------
// Circuit breaker.

TEST(BreakerTest, TripsAfterConsecutiveFailuresAndProbesAfterCooldown) {
  CircuitBreaker breaker(CircuitBreakerOptions{/*failure_threshold=*/2,
                                               /*open_cooldown=*/2});
  const uint64_t key = 42;
  EXPECT_TRUE(breaker.Allow(key));
  breaker.RecordFailure(key);
  EXPECT_TRUE(breaker.Allow(key));
  breaker.RecordFailure(key);
  EXPECT_EQ(breaker.state(key), CircuitBreaker::State::kOpen);

  EXPECT_FALSE(breaker.Allow(key));  // cooldown shed 1
  EXPECT_FALSE(breaker.Allow(key));  // cooldown shed 2
  EXPECT_TRUE(breaker.Allow(key));   // half-open probe
  EXPECT_EQ(breaker.state(key), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow(key));  // only one probe at a time

  breaker.RecordSuccess(key);
  EXPECT_EQ(breaker.state(key), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(key), 0);
  EXPECT_TRUE(breaker.Allow(key));
}

TEST(BreakerTest, FailedProbeReopensWithFreshCooldown) {
  CircuitBreaker breaker(CircuitBreakerOptions{1, 1});
  const uint64_t key = 7;
  breaker.RecordFailure(key);  // threshold 1: straight to open
  EXPECT_FALSE(breaker.Allow(key));
  EXPECT_TRUE(breaker.Allow(key));  // probe
  breaker.RecordFailure(key);       // probe fails
  EXPECT_EQ(breaker.state(key), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow(key));  // fresh cooldown
}

TEST(BreakerTest, SuccessResetsTheFailureStreak) {
  CircuitBreaker breaker(CircuitBreakerOptions{3, 1});
  const uint64_t key = 9;
  breaker.RecordFailure(key);
  breaker.RecordFailure(key);
  breaker.RecordSuccess(key);
  breaker.RecordFailure(key);
  breaker.RecordFailure(key);
  EXPECT_EQ(breaker.state(key), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(key), 2);
}

// ---------------------------------------------------------------------------
// Full-path parity: the resilience layer must not move a single bit.

TEST(ResilientServerTest, FullModeIsBitwiseIdenticalToBareSession) {
  graph::Graph g = Ring(40, 6, 101);
  util::Rng rng(1);
  AdamGnn model(SmallConfig(6, 2), &rng);
  const InferenceSession::Result ref = Reference(model, g);

  ResilientServer server(model, ServerOptions{});
  auto cold = server.Serve(g);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold.ValueOrDie().mode, ServeMode::kFull);
  EXPECT_EQ(cold.ValueOrDie().attempts, 1);
  EXPECT_TRUE(cold.ValueOrDie().embeddings == ref.embeddings);
  EXPECT_TRUE(cold.ValueOrDie().logits == ref.logits);

  // Warm repeats hit the session's result cache and stay identical.
  for (int i = 0; i < 3; ++i) {
    auto warm = server.Serve(g);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm.ValueOrDie().embeddings == ref.embeddings);
    EXPECT_EQ(warm.ValueOrDie().mode, ServeMode::kFull);
  }
}

TEST(ResilientServerTest, ArmedButNeverFiringInjectorKeepsParity) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(2);
  AdamGnn model(SmallConfig(4, 2), &rng);
  const InferenceSession::Result ref = Reference(model, g);

  // Checks are counted but the clock "expires" far beyond any real count,
  // so every checkpoint runs its no-fire path — which must touch nothing.
  ScopedFaultPlan fault(FaultPlan{.expire_deadline_at_check = 1000000000});
  ResilientServer server(model, ServerOptions{});
  RequestOptions request;
  request.timeout_s = 3600.0;
  auto got = server.Serve(g, request);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.ValueOrDie().embeddings == ref.embeddings);
  EXPECT_TRUE(got.ValueOrDie().logits == ref.logits);
  EXPECT_GT(FaultInjector::Instance().OpCount(FaultOp::kDeadlineCheck), 0);
}

// ---------------------------------------------------------------------------
// Deadlines.

TEST(ResilientServerTest, AlreadyExpiredDeadlineFailsFastWithoutPoisoning) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(3);
  AdamGnn model(SmallConfig(4, 2), &rng);
  const InferenceSession::Result ref = Reference(model, g);

  ServerOptions options;
  options.allow_degraded = false;
  ResilientServer server(model, options);
  RequestOptions request;
  request.timeout_s = 0.0;  // expired before the first checkpoint
  auto got = server.Serve(g, request);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded);

  // The aborted request must leave no partial plan/result behind: the same
  // server immediately serves a clean full-mode response.
  auto retry = server.Serve(g);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry.ValueOrDie().mode, ServeMode::kFull);
  EXPECT_TRUE(retry.ValueOrDie().embeddings == ref.embeddings);
}

TEST(ResilientServerTest, DeadlineDuringPlanConstructionAborts) {
  graph::Graph g = Ring(40, 6, 101);
  util::Rng rng(4);
  AdamGnn model(SmallConfig(6, 2), &rng);
  const InferenceSession::Result ref = Reference(model, g);

  ServerOptions options;
  options.allow_degraded = false;
  options.max_retries = 0;
  ResilientServer server(model, options);
  RequestOptions request;
  request.timeout_s = 3600.0;  // real clock never fires; injected clock does
  {
    // Serve hashes the graph before it binds a token and hands that
    // fingerprint to GraphPlan::TryBuild, which does not hash again, so the
    // very first cooperative check is TryBuild's poll before it builds Â.
    ScopedFaultPlan fault(FaultPlan{.expire_deadline_at_check = 1});
    auto got = server.Serve(g, request);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded);
  }
  auto clean = server.Serve(g);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean.ValueOrDie().embeddings == ref.embeddings);
}

TEST(ResilientServerTest, DeadlineSweepAbortsCleanlyAtEveryCheckpoint) {
  util::SetNumThreads(1);  // deterministic checkpoint count
  graph::Graph g = Ring(36, 5, 77);
  util::Rng rng(5);
  AdamGnn model(SmallConfig(5, 3), &rng);
  const InferenceSession::Result ref = Reference(model, g);

  RequestOptions request;
  request.timeout_s = 3600.0;

  // Dry pass: count how many cooperative deadline checks one cold request
  // performs (the injector counts while armed, even with an all-zero plan).
  int total_checks = 0;
  {
    ScopedFaultPlan dry(FaultPlan{});
    ServerOptions options;
    options.allow_degraded = false;
    options.max_retries = 0;
    ResilientServer server(model, options);
    auto got = server.Serve(g, request);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got.ValueOrDie().embeddings == ref.embeddings);
    total_checks = FaultInjector::Instance().OpCount(FaultOp::kDeadlineCheck);
  }
  ASSERT_GT(total_checks, 4) << "expected checkpoints in both plan "
                                "construction and the forward";

  // Fire the injected clock at every single checkpoint in turn. Each run
  // must abort with DeadlineExceeded — plan construction for small n, the
  // forward for larger n — and never crash or wedge.
  for (int n = 1; n <= total_checks; ++n) {
    ServerOptions options;
    options.allow_degraded = false;
    options.max_retries = 0;
    ResilientServer server(model, options);
    ScopedFaultPlan fault(FaultPlan{.expire_deadline_at_check = n});
    auto got = server.Serve(g, request);
    ASSERT_FALSE(got.ok()) << "checkpoint " << n << " of " << total_checks;
    EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded)
        << got.status().ToString();
  }
  util::SetNumThreads(0);
}

// ---------------------------------------------------------------------------
// Retries and allocation pressure.

TEST(ResilientServerTest, RetryRecoversFromTransientAllocationFault) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(6);
  AdamGnn model(SmallConfig(4, 2), &rng);
  const InferenceSession::Result ref = Reference(model, g);

  ServerOptions options;
  options.allow_degraded = false;
  options.max_retries = 1;
  ResilientServer server(model, options);
  // First allocation checkpoint fails; the retry runs past the window and
  // must produce the full-fidelity answer.
  ScopedFaultPlan fault(FaultPlan{.fail_alloc_at = 1, .fail_alloc_count = 1});
  auto got = server.Serve(g);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.ValueOrDie().mode, ServeMode::kFull);
  EXPECT_EQ(got.ValueOrDie().attempts, 2);
  EXPECT_TRUE(got.ValueOrDie().embeddings == ref.embeddings);
  EXPECT_TRUE(got.ValueOrDie().logits == ref.logits);
}

TEST(ResilientServerTest, AllocationStormExhaustsRetryBudget) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(7);
  AdamGnn model(SmallConfig(4, 2), &rng);

  ServerOptions options;
  options.allow_degraded = false;
  options.max_retries = 2;
  ResilientServer server(model, options);
  ScopedFaultPlan fault(
      FaultPlan{.fail_alloc_at = 1, .fail_alloc_count = 1000000000});
  auto got = server.Serve(g);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Breaker integration and the degradation ladder.

TEST(ResilientServerTest, BreakerTripsShedsAndRecovers) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(8);
  AdamGnn model(SmallConfig(4, 2), &rng);
  const InferenceSession::Result ref = Reference(model, g);
  const uint64_t fp = GraphPlan::Fingerprint(g);

  ServerOptions options;
  options.allow_degraded = false;
  options.max_retries = 0;
  options.breaker.failure_threshold = 2;
  options.breaker.open_cooldown = 1;
  ResilientServer server(model, options);

  {
    ScopedFaultPlan fault(
        FaultPlan{.fail_alloc_at = 1, .fail_alloc_count = 1000000000});
    EXPECT_FALSE(server.Serve(g).ok());
    EXPECT_FALSE(server.Serve(g).ok());
  }
  EXPECT_EQ(server.breaker().state(fp), CircuitBreaker::State::kOpen);

  // Injector is gone, but the open breaker sheds the next request anyway.
  auto shed = server.Serve(g);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), util::StatusCode::kUnavailable);

  // Cooldown spent: the next request is the half-open probe; it succeeds
  // and closes the breaker with a full-fidelity response.
  auto probe = server.Serve(g);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe.ValueOrDie().mode, ServeMode::kFull);
  EXPECT_TRUE(probe.ValueOrDie().embeddings == ref.embeddings);
  EXPECT_EQ(server.breaker().state(fp), CircuitBreaker::State::kClosed);
}

TEST(ResilientServerTest, BreakerShedDegradesToShallowPlan) {
  graph::Graph g = Ring(40, 6, 101);
  util::Rng rng(9);
  AdamGnn model(SmallConfig(6, 2), &rng);

  ServerOptions options;
  options.max_retries = 0;
  options.breaker.failure_threshold = 1;
  options.breaker.open_cooldown = 1000000;  // stay open for the whole test
  ResilientServer server(model, options);

  {
    ScopedFaultPlan fault(
        FaultPlan{.fail_alloc_at = 1, .fail_alloc_count = 1000000000});
    EXPECT_FALSE(server.Serve(g).ok());  // trips the breaker (threshold 1)
  }
  // Breaker is open; the shed request must still get an answer — the
  // explicitly-tagged shallow degraded forward.
  auto got = server.Serve(g);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.ValueOrDie().mode, ServeMode::kDegradedShallow);
  EXPECT_EQ(got.ValueOrDie().lambda_used, 1);
  EXPECT_EQ(got.ValueOrDie().levels_used, 1);
  EXPECT_EQ(got.ValueOrDie().embeddings.rows(), g.num_nodes());
}

TEST(ResilientServerTest, StaleResultIsLastDitchFallback) {
  graph::Graph g = TwoTriangles();
  graph::Graph big = Ring(20000, 4, /*seed=*/10);
  const uint64_t fp = GraphPlan::Fingerprint(g);
  util::Rng rng(10);
  AdamGnn model(SmallConfig(4, 2), &rng);

  ServerOptions options;
  options.max_inflight = 1;
  ResilientServer server(model, options);
  auto first = server.Serve(g);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.ValueOrDie().mode, ServeMode::kFull);

  // Over budget: a second client's cold forward of a large graph holds the
  // only permit, so admission rejects g and the free fallback — g's entry
  // in the full session's result cache — answers, tagged as stale.
  std::atomic<bool> big_done{false}, big_ok{false};
  std::thread client([&] {
    big_ok = server.Serve(big).ok();
    big_done = true;
  });
  while (server.inflight() == 0 && !big_done) std::this_thread::yield();
  auto rejected = server.Serve(g);
  client.join();
  EXPECT_TRUE(big_ok.load());
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected.ValueOrDie().mode, ServeMode::kDegradedStale);
  EXPECT_TRUE(rejected.ValueOrDie().embeddings ==
              first.ValueOrDie().embeddings);
  EXPECT_TRUE(rejected.ValueOrDie().logits == first.ValueOrDie().logits);

  // Last rung of the ladder: the breaker sheds g and a storm fails the
  // shallow forward, so only the cached result is left.
  for (int i = 0; i < options.breaker.failure_threshold; ++i) {
    server.breaker().RecordFailure(fp);
  }
  ScopedFaultPlan fault(
      FaultPlan{.fail_alloc_at = 1, .fail_alloc_count = 1000000000});
  auto got = server.Serve(g);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.ValueOrDie().mode, ServeMode::kDegradedStale);
  EXPECT_EQ(got.ValueOrDie().attempts, 1);
  EXPECT_TRUE(got.ValueOrDie().embeddings == first.ValueOrDie().embeddings);
}

TEST(ResilientServerTest, ExternalTokenCancelsTheRequest) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(11);
  AdamGnn model(SmallConfig(4, 2), &rng);

  ServerOptions options;
  options.allow_degraded = false;
  ResilientServer server(model, options);
  RequestOptions request;
  request.token = util::CancelToken::Cancellable();
  request.token.Cancel();  // caller gave up before the request started
  auto got = server.Serve(g, request);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Concurrency: cancellation racing live forwards must be clean under TSan.

TEST(ResilientServerTest, ConcurrentServesWithCancellationAreSafe) {
  graph::Graph g = Ring(32, 5, 13);
  util::Rng rng(12);
  AdamGnn model(SmallConfig(5, 2), &rng);
  const InferenceSession::Result ref = Reference(model, g);

  ServerOptions options;
  options.max_inflight = 4;
  options.allow_degraded = false;
  options.max_retries = 0;
  ResilientServer server(model, options);

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 4;
  std::vector<util::CancelToken> tokens;
  for (int i = 0; i < kThreads; ++i) {
    tokens.push_back(util::CancelToken::Cancellable());
  }
  std::atomic<int> clean_ok{0}, resilience_errors{0}, other_errors{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        RequestOptions request;
        // Odd workers race an external token against the forward; even
        // workers serve untokened and may be shed by admission instead.
        if (i % 2 == 1) request.token = tokens[static_cast<size_t>(i)];
        auto got = server.Serve(g, request);
        if (got.ok()) {
          // Whatever won the race, a success is a complete answer.
          if (got.ValueOrDie().embeddings == ref.embeddings) {
            clean_ok.fetch_add(1);
          } else {
            other_errors.fetch_add(1);
          }
        } else {
          switch (got.status().code()) {
            case util::StatusCode::kCancelled:
            case util::StatusCode::kResourceExhausted:
            case util::StatusCode::kDeadlineExceeded:
            case util::StatusCode::kUnavailable:
              resilience_errors.fetch_add(1);
              break;
            default:
              other_errors.fetch_add(1);
          }
        }
      }
    });
  }
  workers.emplace_back([&] {
    // Fire half the tokens while forwards are (probably) in flight. Any
    // interleaving is valid; TSan checks it is also race-free.
    for (int i = 1; i < kThreads; i += 2) {
      tokens[static_cast<size_t>(i)].Cancel();
    }
  });
  for (auto& w : workers) w.join();

  EXPECT_EQ(other_errors.load(), 0);
  EXPECT_GT(clean_ok.load(), 0);  // someone finished cleanly
  EXPECT_EQ(clean_ok.load() + resilience_errors.load(),
            kThreads * kRoundsPerThread);
}

// ---------------------------------------------------------------------------
// Concurrent clients on the default options: every forward is serialized
// under the server lock, so interleaving must not move a bit. TSan watches
// the sessions' shared result caches.

TEST(ResilientServerTest, ConcurrentServesAreBitwiseIdenticalPerRequest) {
  constexpr size_t kClients = 4;
  constexpr int kRounds = 3;
  util::Rng rng(21);
  AdamGnn model(SmallConfig(5, 2), &rng);
  std::vector<graph::Graph> graphs;
  std::vector<InferenceSession::Result> refs;
  for (size_t i = 0; i < kClients; ++i) {
    graphs.push_back(Ring(10 + 3 * i, 5, /*seed=*/50 + i));
    refs.push_back(Reference(model, graphs.back()));
  }

  ResilientServer server(model, ServerOptions{});

  // Each client repeatedly serves its own graph, cold on its first round
  // and warm after. Every response must be kFull and bitwise equal to the
  // bare-session reference.
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      for (int round = 0; round < kRounds; ++round) {
        auto got = server.Serve(graphs[i]);
        if (!got.ok() || got.ValueOrDie().mode != ServeMode::kFull ||
            !(got.ValueOrDie().embeddings == refs[i].embeddings) ||
            !(got.ValueOrDie().logits == refs[i].logits)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Client errors.

TEST(ResilientServerTest, ClientErrorIsNeitherRetriedNorCountedByBreaker) {
  util::Rng rng(24);
  AdamGnn model(SmallConfig(4, 2), &rng);
  graph::Graph g_good = TwoTriangles();          // feature dim 4 == model
  graph::Graph g_bad = Ring(8, 6, /*seed=*/25);  // feature dim 6: malformed
  const InferenceSession::Result ref = Reference(model, g_good);
  const uint64_t fp_bad = GraphPlan::Fingerprint(g_bad);

  ServerOptions options;
  options.breaker.failure_threshold = 2;
  ResilientServer server(model, options);

  // A malformed request is the caller's fault: it returns its own
  // InvalidArgument every time (no degraded answer stands in for it) and
  // never moves the plan's breaker, however often it repeats.
  for (int i = 0; i < options.breaker.failure_threshold + 1; ++i) {
    auto bad = server.Serve(g_bad);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(server.breaker().state(fp_bad), CircuitBreaker::State::kClosed);
  EXPECT_EQ(server.breaker().consecutive_failures(fp_bad), 0);

  auto good = server.Serve(g_good);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good.ValueOrDie().mode, ServeMode::kFull);
  EXPECT_EQ(good.ValueOrDie().attempts, 1);
  EXPECT_TRUE(good.ValueOrDie().embeddings == ref.embeddings);
  EXPECT_TRUE(good.ValueOrDie().logits == ref.logits);
}

// ---------------------------------------------------------------------------
// Weight refresh.

TEST(ResilientServerTest, RefreshWeightsDropsEveryCache) {
  graph::Graph g = TwoTriangles();
  util::Rng rng(13);
  AdamGnn model(SmallConfig(4, 2), &rng);
  ResilientServer server(model, ServerOptions{});
  auto before = server.Serve(g);
  ASSERT_TRUE(before.ok());

  // New weights => the server must re-snapshot and recompute, matching a
  // bare session over the new model, and must not serve the old stale copy.
  util::Rng rng2(99);
  AdamGnn model2(SmallConfig(4, 2), &rng2);
  server.RefreshWeights(model2);
  const InferenceSession::Result ref2 = Reference(model2, g);
  auto after = server.Serve(g);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().mode, ServeMode::kFull);
  EXPECT_TRUE(after.ValueOrDie().embeddings == ref2.embeddings);
  EXPECT_FALSE(after.ValueOrDie().embeddings ==
               before.ValueOrDie().embeddings);
}

}  // namespace
}  // namespace adamgnn::serve
