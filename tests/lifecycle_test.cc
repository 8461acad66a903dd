// Acceptance suite for the server lifecycle + hot-swap registry:
//
//   (a) concurrent requests during a hot-swap are each bitwise-identical to
//       the version the client pinned — old or new, never a blend;
//   (b) a corrupt or canary-failing reload leaves the serving version
//       untouched, and Rollback() restores bitwise-identical outputs;
//   (c) a drain begun mid-traffic completes with every accepted request
//       answered (zero dropped) and no stragglers cancelled.
//
// Plus the mechanics those guarantees rest on: the
// Starting→Ready→Draining→Stopped state machine, Admit() gating, the
// watchdog's hard-bound sweep, Unload() pin refusals, the canary divergence
// gate, and the async-signal-safe shutdown latch.

#include "serve/lifecycle.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/adamgnn_model.h"
#include "core/graph_plan.h"
#include "core/inference_session.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "test_util.h"
#include "util/cancel.h"
#include "util/random.h"
#include "util/signal.h"
#include "util/status.h"

namespace adamgnn::serve {
namespace {

using adamgnn::testing::TwoTriangles;
using core::AdamGnn;
using core::AdamGnnConfig;
using core::GraphPlan;
using core::InferenceSession;
using tensor::Matrix;
using util::CancelToken;
using util::Status;
using util::StatusCode;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

AdamGnnConfig SmallConfig(size_t in_dim, size_t classes) {
  AdamGnnConfig c;
  c.in_dim = in_dim;
  c.hidden_dim = 8;
  c.num_classes = classes;
  c.num_levels = 2;
  c.dropout = 0.0;
  return c;
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

// ---- state machine + admission -----------------------------------------

TEST(LifecycleTest, StateMachineGatesAdmission) {
  ServerLifecycle lifecycle;
  EXPECT_EQ(lifecycle.state(), LifecycleState::kStarting);
  EXPECT_EQ(lifecycle.Admit().code(), StatusCode::kUnavailable);

  lifecycle.MarkReady();
  EXPECT_EQ(lifecycle.state(), LifecycleState::kReady);
  EXPECT_TRUE(lifecycle.Admit().ok());

  lifecycle.BeginDrain();
  EXPECT_EQ(lifecycle.state(), LifecycleState::kDraining);
  EXPECT_EQ(lifecycle.Admit().code(), StatusCode::kUnavailable);
  // MarkReady cannot resurrect a draining server.
  lifecycle.MarkReady();
  EXPECT_EQ(lifecycle.state(), LifecycleState::kDraining);

  lifecycle.MarkStopped();
  EXPECT_EQ(lifecycle.state(), LifecycleState::kStopped);

  lifecycle.Reset();
  EXPECT_EQ(lifecycle.state(), LifecycleState::kStarting);
  lifecycle.MarkReady();
  EXPECT_TRUE(lifecycle.Admit().ok());
}

TEST(LifecycleTest, StateNamesAreStable) {
  EXPECT_STREQ(LifecycleStateToString(LifecycleState::kStarting), "starting");
  EXPECT_STREQ(LifecycleStateToString(LifecycleState::kReady), "ready");
  EXPECT_STREQ(LifecycleStateToString(LifecycleState::kDraining), "draining");
  EXPECT_STREQ(LifecycleStateToString(LifecycleState::kStopped), "stopped");
}

TEST(LifecycleTest, DrainWaitsForInflightToRetire) {
  ServerLifecycle lifecycle;
  lifecycle.MarkReady();

  std::atomic<bool> release{false};
  std::thread holder([&] {
    InflightGuard guard = lifecycle.Track(0.0);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (lifecycle.inflight() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  lifecycle.BeginDrain();
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  });
  EXPECT_TRUE(lifecycle.WaitForDrain());  // nobody cancelled
  EXPECT_EQ(lifecycle.inflight(), 0u);
  holder.join();
  releaser.join();
}

TEST(LifecycleTest, DrainDeadlineCancelsStragglers) {
  LifecycleOptions options;
  options.drain_timeout_s = 0.02;
  ServerLifecycle lifecycle(options);
  lifecycle.MarkReady();

  CancelToken token = CancelToken::Cancellable();
  std::thread straggler([&] {
    InflightGuard guard = lifecycle.Track(0.0);
    guard.BindToken(token);
    // A cooperative worker: runs until its token fires, then unwinds.
    while (!token.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (lifecycle.inflight() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  lifecycle.BeginDrain();
  EXPECT_FALSE(lifecycle.WaitForDrain());  // had to cancel the straggler
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(lifecycle.inflight(), 0u);
  straggler.join();
}

TEST(LifecycleTest, WatchdogSweepCancelsOverBoundRequest) {
  LifecycleOptions options;
  options.watchdog_factor = 1.0;
  ServerLifecycle lifecycle(options);
  lifecycle.MarkReady();

  InflightGuard guard = lifecycle.Track(1e-9);  // hard bound ~ now
  CancelToken token = CancelToken::Cancellable();
  guard.BindToken(token);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(lifecycle.SweepNow(), 1u);
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(LifecycleTest, TokenBoundAfterWatchdogFlagIsCancelled) {
  LifecycleOptions options;
  options.watchdog_factor = 1.0;
  ServerLifecycle lifecycle(options);
  lifecycle.MarkReady();

  // The sweep flags the request in the gap between Track and the first
  // bind: the token bound next, and every retry's token, must still fire.
  InflightGuard guard = lifecycle.Track(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(lifecycle.SweepNow(), 0u);  // flagged, but no token to fire yet
  CancelToken first = CancelToken::Cancellable();
  guard.BindToken(first);
  EXPECT_EQ(first.Check().code(), StatusCode::kDeadlineExceeded);
  CancelToken retry = CancelToken::Cancellable();
  guard.BindToken(retry);
  EXPECT_EQ(retry.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(LifecycleTest, TokenBoundAfterDrainCancelIsCancelled) {
  LifecycleOptions options;
  options.drain_timeout_s = 0.0;
  ServerLifecycle lifecycle(options);
  lifecycle.MarkReady();

  std::atomic<bool> drained{false};
  CancelToken retry = CancelToken::Cancellable();
  InflightGuard guard = lifecycle.Track(0.0);
  std::thread drainer([&] {
    lifecycle.BeginDrain();
    EXPECT_FALSE(lifecycle.WaitForDrain());
    drained = true;
  });
  // WaitForDrain cancels the straggler at once (no token bound yet), then
  // blocks until it retires; a retry bound meanwhile must fire too.
  while (lifecycle.state() != LifecycleState::kDraining) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  guard.BindToken(retry);
  EXPECT_EQ(retry.Check().code(), StatusCode::kCancelled);
  EXPECT_FALSE(drained.load());
  guard = InflightGuard();
  drainer.join();
  EXPECT_TRUE(drained.load());
}

TEST(LifecycleTest, WatchdogLeavesDeadlinelessRequestsAlone) {
  ServerLifecycle lifecycle;  // watchdog_default_timeout_s = 0: unbounded
  lifecycle.MarkReady();

  InflightGuard guard = lifecycle.Track(0.0);
  CancelToken token = CancelToken::Cancellable();
  guard.BindToken(token);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(lifecycle.SweepNow(), 0u);
  EXPECT_TRUE(token.Check().ok());
}

TEST(LifecycleTest, WatchdogThreadFiresWithoutManualSweeps) {
  LifecycleOptions options;
  options.watchdog_factor = 1.0;
  options.watchdog_poll_s = 0.001;
  ServerLifecycle lifecycle(options);
  lifecycle.MarkReady();
  lifecycle.StartWatchdog();

  InflightGuard guard = lifecycle.Track(1e-9);
  CancelToken token = CancelToken::Cancellable();
  guard.BindToken(token);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!token.cancelled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(token.Check().code(), StatusCode::kDeadlineExceeded);
  lifecycle.StopWatchdog();
}

TEST(LifecycleTest, ResetRefusedWhileRequestsTracked) {
  ServerLifecycle lifecycle;
  lifecycle.MarkReady();
  {
    InflightGuard guard = lifecycle.Track(0.0);
    lifecycle.MarkStopped();
    lifecycle.Reset();  // refused: a request is still tracked
    EXPECT_EQ(lifecycle.state(), LifecycleState::kStopped);
  }
  lifecycle.Reset();
  EXPECT_EQ(lifecycle.state(), LifecycleState::kStarting);
}

TEST(LifecycleTest, MovedFromGuardIsInert) {
  ServerLifecycle lifecycle;
  lifecycle.MarkReady();
  InflightGuard a = lifecycle.Track(0.0);
  EXPECT_TRUE(a.tracked());
  InflightGuard b = std::move(a);
  EXPECT_FALSE(a.tracked());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.tracked());
  EXPECT_EQ(lifecycle.inflight(), 1u);
}

// ---- shutdown signal latch ---------------------------------------------

TEST(ShutdownSignalTest, LatchesFirstSignalAndResets) {
  ASSERT_TRUE(util::InstallShutdownHandlers().ok());
  util::ResetShutdownLatch();
  EXPECT_FALSE(util::ShutdownRequested());
  EXPECT_EQ(util::ShutdownSignal(), 0);

  std::raise(SIGTERM);
  EXPECT_TRUE(util::ShutdownRequested());
  EXPECT_EQ(util::ShutdownSignal(), SIGTERM);
  // First signal wins; a second does not overwrite the latch.
  std::raise(SIGINT);
  EXPECT_EQ(util::ShutdownSignal(), SIGTERM);

  util::ResetShutdownLatch();
  EXPECT_FALSE(util::ShutdownRequested());
  std::raise(SIGINT);
  EXPECT_EQ(util::ShutdownSignal(), SIGINT);
  util::ResetShutdownLatch();
}

// ---- registry fixtures --------------------------------------------------

struct RegistryFixture {
  graph::Graph g = TwoTriangles();
  AdamGnnConfig config;
  std::string path_a = TempPath("lifecycle_a.ckpt");
  std::string path_b = TempPath("lifecycle_b.ckpt");

  RegistryFixture() {
    config = SmallConfig(g.feature_dim(),
                         static_cast<size_t>(g.num_classes()));
    SaveModel(101, path_a);
    SaveModel(202, path_b);
  }

  void SaveModel(uint64_t seed, const std::string& path) {
    util::Rng rng(seed);
    AdamGnn model(config, &rng);
    ASSERT_TRUE(nn::SaveParameters(model.Parameters(), path).ok());
  }

  /// Ground truth the registry must reproduce: load `path` the same way
  /// (scratch model at scratch_seed) and run a standalone frozen session.
  InferenceSession::Result Reference(const std::string& path,
                                     uint64_t scratch_seed,
                                     uint64_t* fingerprint) {
    util::Rng rng(scratch_seed);
    AdamGnn model(config, &rng);
    std::vector<autograd::Variable> params = model.Parameters();
    EXPECT_TRUE(nn::LoadParameters(path, &params).ok());
    InferenceSession session(model);
    auto plan = GraphPlan::TryBuild(g, config.lambda).ValueOrDie();
    const InferenceSession::Result* out = nullptr;
    EXPECT_TRUE(session.TryRun(plan, &out).ok());
    *fingerprint = session.WeightsFingerprint();
    return *out;
  }

  ModelRegistryOptions Options(ServerLifecycle* lifecycle = nullptr) {
    ModelRegistryOptions options;
    options.config = config;
    options.server.lifecycle = lifecycle;
    options.scratch_seed = 977;
    return options;
  }
};

TEST(ModelRegistryTest, PublishesAndServesBitwiseReference) {
  RegistryFixture fx;
  ModelRegistry registry(fx.Options(), fx.g);
  EXPECT_EQ(registry.Current(), nullptr);

  auto loaded = registry.TryLoadVersion(fx.path_a);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::shared_ptr<ModelVersion> version = loaded.ValueOrDie();
  EXPECT_EQ(version->id(), 1u);
  EXPECT_EQ(registry.Current()->id(), 1u);
  EXPECT_EQ(registry.Previous(), nullptr);

  uint64_t ref_fp = 0;
  InferenceSession::Result ref = fx.Reference(fx.path_a, 977, &ref_fp);
  EXPECT_EQ(version->weights_fingerprint(), ref_fp);
  EXPECT_TRUE(BitwiseEqual(version->canary_embeddings(), ref.embeddings));
  EXPECT_TRUE(BitwiseEqual(version->canary_logits(), ref.logits));

  auto served = version->server().Serve(fx.g, {});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served.ValueOrDie().mode, ServeMode::kFull);
  EXPECT_TRUE(BitwiseEqual(served.ValueOrDie().embeddings, ref.embeddings));
  EXPECT_TRUE(BitwiseEqual(served.ValueOrDie().logits, ref.logits));
}

// Acceptance (a): requests racing a hot-swap are bitwise old-or-new.
TEST(ModelRegistryTest, HotSwapUnderLoadIsOldOrNewNeverABlend) {
  RegistryFixture fx;
  ModelRegistry registry(fx.Options(), fx.g);
  ASSERT_TRUE(registry.TryLoadVersion(fx.path_a).ok());

  uint64_t fp_a = 0;
  uint64_t fp_b = 0;
  InferenceSession::Result ref_a = fx.Reference(fx.path_a, 977, &fp_a);
  InferenceSession::Result ref_b = fx.Reference(fx.path_b, 977, &fp_b);
  ASSERT_NE(fp_a, fp_b);

  std::atomic<bool> stop{false};
  std::atomic<int> blends{0};
  std::atomic<int> served_total{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        std::shared_ptr<ModelVersion> version = registry.Current();
        auto served = version->server().Serve(fx.g, {});
        if (!served.ok() ||
            served.ValueOrDie().mode != ServeMode::kFull) {
          continue;
        }
        served_total.fetch_add(1);
        const InferenceSession::Result& want =
            version->weights_fingerprint() == fp_a ? ref_a : ref_b;
        if (version->weights_fingerprint() != fp_a &&
            version->weights_fingerprint() != fp_b) {
          blends.fetch_add(1);
          continue;
        }
        if (!BitwiseEqual(served.ValueOrDie().embeddings, want.embeddings) ||
            !BitwiseEqual(served.ValueOrDie().logits, want.logits)) {
          blends.fetch_add(1);
        }
      }
    });
  }
  // Swap back and forth while the clients hammer.
  for (int swap = 0; swap < 6; ++swap) {
    ASSERT_TRUE(
        registry.TryLoadVersion(swap % 2 == 0 ? fx.path_b : fx.path_a).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(blends.load(), 0);
  EXPECT_GT(served_total.load(), 0);
}

// Acceptance (b), part 1: corrupt reloads leave serving untouched.
TEST(ModelRegistryTest, CorruptReloadLeavesServingUntouched) {
  RegistryFixture fx;
  ModelRegistry registry(fx.Options(), fx.g);
  ASSERT_TRUE(registry.TryLoadVersion(fx.path_a).ok());
  uint64_t fp_a = 0;
  InferenceSession::Result ref_a = fx.Reference(fx.path_a, 977, &fp_a);

  // Corrupt checkpoint: flip one byte inside the params payload.
  {
    std::FILE* f = std::fopen(fx.path_b.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 8 + 4 + 8 + 16, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, -1, SEEK_CUR);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
  }
  auto corrupt = registry.TryLoadVersion(fx.path_b);
  EXPECT_EQ(corrupt.status().code(), StatusCode::kInvalidArgument);

  auto missing = registry.TryLoadVersion(TempPath("never_written.ckpt"));
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // NaN-poisoned weights pass the loader but must fail the canary gate.
  {
    util::Rng rng(7);
    AdamGnn model(fx.config, &rng);
    std::vector<autograd::Variable> params = model.Parameters();
    for (autograd::Variable& p : params) {
      Matrix& value = p.mutable_value();
      for (size_t i = 0; i < value.rows() * value.cols(); ++i) {
        value.data()[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
    const std::string nan_path = TempPath("lifecycle_nan.ckpt");
    ASSERT_TRUE(nn::SaveParameters(params, nan_path).ok());
    auto poisoned = registry.TryLoadVersion(nan_path);
    EXPECT_EQ(poisoned.status().code(), StatusCode::kFailedPrecondition);
  }

  // Through all three rejections: same version, same bits.
  ASSERT_NE(registry.Current(), nullptr);
  EXPECT_EQ(registry.Current()->id(), 1u);
  EXPECT_EQ(registry.Current()->weights_fingerprint(), fp_a);
  auto served = registry.Current()->server().Serve(fx.g, {});
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(BitwiseEqual(served.ValueOrDie().embeddings, ref_a.embeddings));
}

// Acceptance (b), part 2: Rollback restores bitwise-identical outputs.
TEST(ModelRegistryTest, RollbackRestoresBitwiseOutputs) {
  RegistryFixture fx;
  ModelRegistry registry(fx.Options(), fx.g);
  EXPECT_EQ(registry.Rollback().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(registry.TryLoadVersion(fx.path_a).ok());
  EXPECT_EQ(registry.Rollback().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(registry.TryLoadVersion(fx.path_b).ok());

  uint64_t fp_a = 0;
  uint64_t fp_b = 0;
  InferenceSession::Result ref_a = fx.Reference(fx.path_a, 977, &fp_a);
  InferenceSession::Result ref_b = fx.Reference(fx.path_b, 977, &fp_b);
  EXPECT_EQ(registry.Current()->weights_fingerprint(), fp_b);

  ASSERT_TRUE(registry.Rollback().ok());
  EXPECT_EQ(registry.Current()->weights_fingerprint(), fp_a);
  auto served = registry.Current()->server().Serve(fx.g, {});
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(BitwiseEqual(served.ValueOrDie().embeddings, ref_a.embeddings));
  EXPECT_TRUE(BitwiseEqual(served.ValueOrDie().logits, ref_a.logits));

  // Rollback is a swap: a second one restores B, bitwise again.
  ASSERT_TRUE(registry.Rollback().ok());
  EXPECT_EQ(registry.Current()->weights_fingerprint(), fp_b);
  served = registry.Current()->server().Serve(fx.g, {});
  ASSERT_TRUE(served.ok());
  EXPECT_TRUE(BitwiseEqual(served.ValueOrDie().embeddings, ref_b.embeddings));
}

TEST(ModelRegistryTest, UnloadRefusesCurrentPreviousAndPinned) {
  RegistryFixture fx;
  ModelRegistry registry(fx.Options(), fx.g);
  auto v1 = registry.TryLoadVersion(fx.path_a).ValueOrDie();
  ASSERT_TRUE(registry.TryLoadVersion(fx.path_b).ok());

  // v1 is last-known-good: refused.
  EXPECT_EQ(registry.Unload(v1->id()).code(),
            StatusCode::kFailedPrecondition);
  // v2 is current: refused.
  EXPECT_EQ(registry.Unload(registry.Current()->id()).code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(registry.TryLoadVersion(fx.path_a).ok());
  // v1 is now plain history but this test still pins it: refused.
  EXPECT_EQ(registry.Unload(v1->id()).code(),
            StatusCode::kFailedPrecondition);
  const uint64_t v1_id = v1->id();
  v1.reset();
  EXPECT_TRUE(registry.Unload(v1_id).ok());
  EXPECT_EQ(registry.Unload(v1_id).code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Unload(999).code(), StatusCode::kNotFound);
}

TEST(ModelRegistryTest, CanaryToleranceGatesDivergence) {
  RegistryFixture fx;
  ModelRegistryOptions options = fx.Options();
  options.canary_tolerance = 0.0;  // only bitwise-identical outputs pass
  ModelRegistry registry(options, fx.g);

  // First load has nothing to diverge from.
  ASSERT_TRUE(registry.TryLoadVersion(fx.path_a).ok());
  // A genuinely different model diverges: rejected.
  auto diverged = registry.TryLoadVersion(fx.path_b);
  EXPECT_EQ(diverged.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.Current()->id(), 1u);
  // Reloading the same weights produces identical outputs: accepted.
  auto same = registry.TryLoadVersion(fx.path_a);
  EXPECT_TRUE(same.ok()) << same.status().ToString();
}

TEST(ModelRegistryTest, HistoryIsBoundedByMaxVersions) {
  RegistryFixture fx;
  ModelRegistryOptions options = fx.Options();
  options.max_versions = 2;
  ModelRegistry registry(options, fx.g);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        registry.TryLoadVersion(i % 2 == 0 ? fx.path_a : fx.path_b).ok());
  }
  // Unpinned history beyond current + last-known-good is evicted.
  EXPECT_LE(registry.num_versions(), 2u);
}

// Acceptance (c): a drain begun mid-traffic answers every accepted request.
TEST(LifecycleIntegrationTest, DrainAnswersEveryAcceptedRequest) {
  RegistryFixture fx;
  LifecycleOptions lifecycle_options;
  lifecycle_options.drain_timeout_s = 10.0;
  ServerLifecycle lifecycle(lifecycle_options);
  ModelRegistry registry(fx.Options(&lifecycle), fx.g);
  ASSERT_TRUE(registry.TryLoadVersion(fx.path_a).ok());
  lifecycle.MarkReady();

  std::atomic<bool> stop{false};
  std::atomic<long long> answered{0};
  std::atomic<long long> rejected{0};
  std::atomic<long long> other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        auto served = registry.Current()->server().Serve(fx.g, {});
        if (served.ok()) {
          answered.fetch_add(1);
        } else if (served.status().code() == StatusCode::kUnavailable) {
          rejected.fetch_add(1);
          break;  // drained: this client is done
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lifecycle.BeginDrain();
  // Every request admitted before the flip retires on its own: no
  // stragglers cancelled, nothing dropped.
  EXPECT_TRUE(lifecycle.WaitForDrain());
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(lifecycle.inflight(), 0u);
  EXPECT_GT(answered.load(), 0);
  EXPECT_EQ(other.load(), 0);
  lifecycle.MarkStopped();
}

}  // namespace
}  // namespace adamgnn::serve
