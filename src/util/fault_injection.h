// Deterministic fault injection for resilience testing. A process-wide
// injector can be armed with a plan that fails the Nth occurrence of a
// counted operation (write / fsync / rename / allocation checkpoint /
// deadline check) or poisons the training loss at a chosen epoch.
// Everything is driven by the plan alone — no randomness, no clocks — so an
// injected failure reproduces bitwise from run to run. Production code pays
// one relaxed atomic load while disarmed; the counting mutex is only taken
// while a plan is armed.
//
// Typical test shape:
//   util::FaultInjector::Instance().Arm({.fail_fsync_at = 2});
//   ... exercise a save path, expect it to fail cleanly ...
//   util::FaultInjector::Instance().Disarm();
// A dry run with the injector armed with an all-zero plan still counts
// operations, so a sweep can first learn how many steps an operation takes
// and then fail each one in turn (see tests/checkpoint_test.cc and the
// deadline sweep in tests/serve_test.cc).

#ifndef ADAMGNN_UTIL_FAULT_INJECTION_H_
#define ADAMGNN_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <mutex>

namespace adamgnn::util {

/// Counted operation classes the injector can fail.
enum class FaultOp {
  kWrite = 0,
  kFsync = 1,
  kRename = 2,
  /// Tensor-storage allocation checkpoints (tensor::Workspace acquire).
  kAlloc = 3,
  /// Cooperative deadline checks (util::CancelToken::Check).
  kDeadlineCheck = 4,
};
inline constexpr int kNumFaultOps = 5;

/// What to break, expressed in deterministic "fail the Nth occurrence"
/// terms (1-based; 0 = never fail that op class).
struct FaultPlan {
  int fail_write_at = 0;
  int fail_fsync_at = 0;
  int fail_rename_at = 0;
  /// Fail `fail_alloc_count` consecutive allocation checkpoints starting at
  /// the `fail_alloc_at`-th (a window, so every retry attempt of a serving
  /// request can be made to fail, not just the first).
  int fail_alloc_at = 0;
  int fail_alloc_count = 1;
  /// Report the deadline as expired from the Nth cooperative deadline check
  /// onward (sticky: once a request's clock "runs out" it stays out). This
  /// is the injected fake clock used to cancel a request at an exact,
  /// reproducible point in plan construction or the forward pass.
  int expire_deadline_at_check = 0;
  /// Replace the training loss with NaN when the trainer reaches this
  /// epoch (0-based; -1 = never). Fires once per arming, so a recovered
  /// run does not get re-poisoned on the rolled-back retry.
  int poison_loss_epoch = -1;
};

/// Process-wide deterministic fault injector. Disarmed by default; every
/// query is thread-safe.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// Installs `plan` and resets all operation counters.
  void Arm(const FaultPlan& plan);
  /// Removes any plan; subsequent queries report no faults (counters keep
  /// counting only while armed).
  void Disarm();
  bool armed() const;

  /// Lock-free disarmed fast path for hot-loop checkpoints (allocation,
  /// deadline checks): one relaxed load, no mutex.
  static bool ArmedFast() {
    return armed_fast_.load(std::memory_order_relaxed);
  }

  /// Counts one occurrence of `op` and returns true when the plan says
  /// this occurrence must fail. Disarmed: returns false without counting.
  bool ShouldFail(FaultOp op);

  /// True exactly once: when `epoch` equals the plan's poison epoch.
  bool ShouldPoisonLoss(int epoch);

  /// Occurrences of `op` observed since the last Arm().
  int OpCount(FaultOp op) const;

 private:
  FaultInjector() = default;

  static std::atomic<bool> armed_fast_;

  mutable std::mutex mu_;
  bool armed_ = false;
  bool loss_poisoned_ = false;  // the one-shot latch for ShouldPoisonLoss
  FaultPlan plan_;
  int counts_[kNumFaultOps] = {};
};

/// RAII arming for tests: arms on construction, disarms on destruction so
/// a failing ASSERT cannot leak an armed injector into later tests.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan) {
    FaultInjector::Instance().Arm(plan);
  }
  ~ScopedFaultPlan() { FaultInjector::Instance().Disarm(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace adamgnn::util

#endif  // ADAMGNN_UTIL_FAULT_INJECTION_H_
