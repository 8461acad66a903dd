#include "util/fault_injection.h"

namespace adamgnn::util {

std::atomic<bool> FaultInjector::armed_fast_{false};

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = true;
  loss_poisoned_ = false;
  plan_ = plan;
  for (int& c : counts_) c = 0;
  armed_fast_.store(true, std::memory_order_relaxed);
}

void FaultInjector::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = false;
  plan_ = FaultPlan();
  armed_fast_.store(false, std::memory_order_relaxed);
}

bool FaultInjector::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return armed_;
}

bool FaultInjector::ShouldFail(FaultOp op) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_) return false;
  const int n = ++counts_[static_cast<int>(op)];
  switch (op) {
    case FaultOp::kWrite:
      return plan_.fail_write_at > 0 && n == plan_.fail_write_at;
    case FaultOp::kFsync:
      return plan_.fail_fsync_at > 0 && n == plan_.fail_fsync_at;
    case FaultOp::kRename:
      return plan_.fail_rename_at > 0 && n == plan_.fail_rename_at;
    case FaultOp::kAlloc:
      // A window of consecutive failures, so multi-attempt paths (retries,
      // degraded fallbacks) can be forced to keep failing deterministically.
      return plan_.fail_alloc_at > 0 && n >= plan_.fail_alloc_at &&
             n < plan_.fail_alloc_at + plan_.fail_alloc_count;
    case FaultOp::kDeadlineCheck:
      // Sticky expiry: a clock that has run out never comes back.
      return plan_.expire_deadline_at_check > 0 &&
             n >= plan_.expire_deadline_at_check;
  }
  return false;
}

bool FaultInjector::ShouldPoisonLoss(int epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_ || loss_poisoned_ || plan_.poison_loss_epoch < 0) return false;
  if (epoch != plan_.poison_loss_epoch) return false;
  loss_poisoned_ = true;
  return true;
}

int FaultInjector::OpCount(FaultOp op) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_[static_cast<int>(op)];
}

}  // namespace adamgnn::util
