// Process-level server lifecycle: an explicit
//
//   Starting → Ready → Draining → Stopped
//
// state machine that ResilientServer consults at admission, plus the two
// mechanisms a graceful shutdown needs —
//
//   drain:    BeginDrain() flips the state so Admit() starts rejecting with
//             Unavailable, then WaitForDrain() blocks until every tracked
//             in-flight request retires or the drain deadline passes, at
//             which point stragglers are cancelled through their
//             CancelTokens (cooperative: each aborts within one checkpoint
//             stride) and the wait completes;
//   watchdog: a background sweeper that flags any tracked request running
//             past watchdog_factor × its deadline and fires its token with
//             DeadlineExceeded, so a wedged request can never pin the
//             process (or a model version) forever.
//
// Requests participate via InflightGuard, a move-only RAII handle from
// Track(): the guard registers the request (start time + hard watchdog
// bound) and BindToken() points the lifecycle at the token of whichever
// attempt is currently executing — retry loops re-bind per attempt so the
// watchdog always cancels live work, never a retired token.
//
// The lifecycle outlives any individual model version: every
// ResilientServer built by the ModelRegistry shares one lifecycle through
// ServerOptions::lifecycle, so hot-swapping versions never resets drain or
// watchdog state. Reset() (Stopped → Starting) exists for soak harnesses
// that cycle many server generations in one process.
//
// Metrics: serve.lifecycle.transitions / drains / drain_cancelled /
// rejected counters, the serve.lifecycle.state gauge (numeric state), and
// the serve.watchdog.sweeps / flagged / cancelled counters.

#ifndef ADAMGNN_SERVE_LIFECYCLE_H_
#define ADAMGNN_SERVE_LIFECYCLE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "util/cancel.h"
#include "util/status.h"

namespace adamgnn::serve {

enum class LifecycleState {
  kStarting = 0,
  kReady = 1,
  kDraining = 2,
  kStopped = 3,
};
const char* LifecycleStateToString(LifecycleState state);

struct LifecycleOptions {
  /// How long WaitForDrain waits for in-flight requests before cancelling
  /// the stragglers. <= 0 cancels immediately.
  double drain_timeout_s = 5.0;
  /// A tracked request becomes watchdog-eligible once it has run for
  /// watchdog_factor × its deadline. Must be >= 1.
  double watchdog_factor = 4.0;
  /// Watchdog sweep interval.
  double watchdog_poll_s = 0.01;
  /// Hard bound applied to requests that carry NO deadline of their own
  /// (seconds). <= 0 leaves deadline-less requests unbounded — they are
  /// still counted for drain, just never watchdog-cancelled.
  double watchdog_default_timeout_s = 0.0;
};

class ServerLifecycle;

/// Move-only RAII registration of one in-flight request. Default-constructed
/// guards are inert (a server with no lifecycle attached uses them).
class InflightGuard {
 public:
  InflightGuard() = default;
  InflightGuard(InflightGuard&& other) noexcept;
  InflightGuard& operator=(InflightGuard&& other) noexcept;
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;
  ~InflightGuard();

  /// Points the lifecycle at the token of the attempt about to execute.
  /// Call once per attempt — the watchdog and drain-cancel paths fire
  /// whatever token is currently bound, and a token bound after the request
  /// was already flagged or drain-cancelled fires on binding.
  void BindToken(const util::CancelToken& token);

  bool tracked() const { return lifecycle_ != nullptr; }

 private:
  friend class ServerLifecycle;
  InflightGuard(ServerLifecycle* lifecycle, uint64_t id)
      : lifecycle_(lifecycle), id_(id) {}

  ServerLifecycle* lifecycle_ = nullptr;
  uint64_t id_ = 0;
};

class ServerLifecycle {
 public:
  explicit ServerLifecycle(const LifecycleOptions& options = {});
  /// Stops the watchdog and forces Stopped.
  ~ServerLifecycle();

  ServerLifecycle(const ServerLifecycle&) = delete;
  ServerLifecycle& operator=(const ServerLifecycle&) = delete;

  LifecycleState state() const;
  const LifecycleOptions& options() const { return options_; }
  size_t inflight() const;

  /// OK when Ready; Unavailable("<state name>") otherwise (and bumps
  /// serve.lifecycle.rejected).
  util::Status Admit();

  /// Starting → Ready. No-op in any other state.
  void MarkReady();

  /// Starting/Ready → Draining: admission starts rejecting immediately.
  /// No-op when already Draining or Stopped.
  void BeginDrain();

  /// Blocks until every tracked request retires, cancelling stragglers
  /// (with Cancelled) once drain_timeout_s elapses. Returns true iff the
  /// drain completed without cancelling anyone. Leaves the state Draining;
  /// call MarkStopped() when the process is done tearing down.
  bool WaitForDrain();

  /// Any state → Stopped.
  void MarkStopped();

  /// Stopped → Starting, for harnesses that cycle server generations in one
  /// process. Refused (no-op) while requests are still tracked.
  void Reset();

  /// Registers an in-flight request. timeout_s is the request's resolved
  /// deadline (<= 0: no deadline; the watchdog falls back to
  /// watchdog_default_timeout_s). Tracking is intentionally decoupled from
  /// Admit() so callers can also track pre-Ready warmup work.
  InflightGuard Track(double timeout_s);

  /// Starts/stops the background sweeper. StopWatchdog runs one final sweep
  /// before joining, so a started watchdog always reports >= 1 sweep.
  /// Both are idempotent; the destructor calls StopWatchdog.
  void StartWatchdog();
  void StopWatchdog();

  /// One synchronous sweep (what the watchdog thread runs every poll):
  /// cancels every tracked request past its hard bound with
  /// DeadlineExceeded. Exposed for deterministic tests and the soak driver.
  /// Returns how many requests were cancelled by this sweep.
  size_t SweepNow();

 private:
  friend class InflightGuard;

  struct Entry {
    util::CancelToken token;
    std::chrono::steady_clock::time_point hard_bound;
    bool has_bound = false;
    /// Why the watchdog or a drain cancelled the request; OK until then. A
    /// token bound afterwards (the first bind racing the sweep, or a
    /// retry's) is fired with it at once.
    util::Status cancel_status;
  };

  void Untrack(uint64_t id);
  void BindTokenFor(uint64_t id, const util::CancelToken& token);
  void TransitionLocked(LifecycleState to);
  size_t SweepLocked(std::chrono::steady_clock::time_point now);
  void WatchdogLoop();

  const LifecycleOptions options_;

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  LifecycleState state_ = LifecycleState::kStarting;
  uint64_t next_id_ = 1;
  std::unordered_map<uint64_t, Entry> inflight_;

  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  std::thread watchdog_;
  bool watchdog_running_ = false;
};

}  // namespace adamgnn::serve

#endif  // ADAMGNN_SERVE_LIFECYCLE_H_
