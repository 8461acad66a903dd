#include "serve/lifecycle.h"

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace adamgnn::serve {

namespace {

obs::Counter& TransitionsCounter() {
  static obs::Counter c("serve.lifecycle.transitions");
  return c;
}
obs::Gauge& StateGauge() {
  static obs::Gauge g("serve.lifecycle.state");
  return g;
}
obs::Counter& DrainsCounter() {
  static obs::Counter c("serve.lifecycle.drains");
  return c;
}
obs::Counter& DrainCancelledCounter() {
  static obs::Counter c("serve.lifecycle.drain_cancelled");
  return c;
}
obs::Counter& RejectedCounter() {
  static obs::Counter c("serve.lifecycle.rejected");
  return c;
}
obs::Counter& SweepsCounter() {
  static obs::Counter c("serve.watchdog.sweeps");
  return c;
}
obs::Counter& FlaggedCounter() {
  static obs::Counter c("serve.watchdog.flagged");
  return c;
}
obs::Counter& CancelledCounter() {
  static obs::Counter c("serve.watchdog.cancelled");
  return c;
}

std::chrono::steady_clock::duration SecondsToDuration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

const char* LifecycleStateToString(LifecycleState state) {
  switch (state) {
    case LifecycleState::kStarting:
      return "starting";
    case LifecycleState::kReady:
      return "ready";
    case LifecycleState::kDraining:
      return "draining";
    case LifecycleState::kStopped:
      return "stopped";
  }
  return "unknown";
}

InflightGuard::InflightGuard(InflightGuard&& other) noexcept
    : lifecycle_(other.lifecycle_), id_(other.id_) {
  other.lifecycle_ = nullptr;
  other.id_ = 0;
}

InflightGuard& InflightGuard::operator=(InflightGuard&& other) noexcept {
  if (this != &other) {
    if (lifecycle_ != nullptr) lifecycle_->Untrack(id_);
    lifecycle_ = other.lifecycle_;
    id_ = other.id_;
    other.lifecycle_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

InflightGuard::~InflightGuard() {
  if (lifecycle_ != nullptr) lifecycle_->Untrack(id_);
}

void InflightGuard::BindToken(const util::CancelToken& token) {
  if (lifecycle_ != nullptr) lifecycle_->BindTokenFor(id_, token);
}

ServerLifecycle::ServerLifecycle(const LifecycleOptions& options)
    : options_(options) {
  StateGauge().Set(static_cast<double>(state_));
}

ServerLifecycle::~ServerLifecycle() {
  StopWatchdog();
  MarkStopped();
}

LifecycleState ServerLifecycle::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

size_t ServerLifecycle::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_.size();
}

util::Status ServerLifecycle::Admit() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == LifecycleState::kReady) return util::Status::OK();
  }
  RejectedCounter().Add(1);
  return util::Status::Unavailable(std::string("server not ready: ") +
                                   LifecycleStateToString(state()));
}

void ServerLifecycle::TransitionLocked(LifecycleState to) {
  if (state_ == to) return;
  state_ = to;
  TransitionsCounter().Add(1);
  StateGauge().Set(static_cast<double>(to));
}

void ServerLifecycle::MarkReady() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == LifecycleState::kStarting) {
    TransitionLocked(LifecycleState::kReady);
  }
}

void ServerLifecycle::BeginDrain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == LifecycleState::kStarting ||
      state_ == LifecycleState::kReady) {
    TransitionLocked(LifecycleState::kDraining);
    DrainsCounter().Add(1);
  }
}

bool ServerLifecycle::WaitForDrain() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        SecondsToDuration(options_.drain_timeout_s > 0
                                              ? options_.drain_timeout_s
                                              : 0.0);
  drained_cv_.wait_until(lock, deadline,
                         [this] { return inflight_.empty(); });
  if (inflight_.empty()) return true;

  // Deadline passed with stragglers: cancel their live tokens. The requests
  // abort cooperatively within one checkpoint stride, so the second wait
  // below is bounded in practice — but their InflightGuards still have to
  // unwind before teardown proceeds, hence no timeout.
  size_t cancelled = 0;
  for (auto& [id, entry] : inflight_) {
    (void)id;
    if (entry.cancel_status.ok()) {
      entry.cancel_status = util::Status::Cancelled("drain deadline exceeded");
    }
    if (entry.token.valid()) {
      entry.token.CancelWith(entry.cancel_status);
      ++cancelled;
    }
  }
  DrainCancelledCounter().Add(cancelled);
  drained_cv_.wait(lock, [this] { return inflight_.empty(); });
  return false;
}

void ServerLifecycle::MarkStopped() {
  std::lock_guard<std::mutex> lock(mu_);
  TransitionLocked(LifecycleState::kStopped);
}

void ServerLifecycle::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == LifecycleState::kStopped && inflight_.empty()) {
    TransitionLocked(LifecycleState::kStarting);
  }
}

InflightGuard ServerLifecycle::Track(double timeout_s) {
  const auto now = std::chrono::steady_clock::now();
  double bound_s = timeout_s > 0 ? timeout_s : options_.watchdog_default_timeout_s;
  Entry entry;
  if (bound_s > 0 && options_.watchdog_factor >= 1.0) {
    entry.hard_bound = now + SecondsToDuration(bound_s * options_.watchdog_factor);
    entry.has_bound = true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  inflight_.emplace(id, std::move(entry));
  return InflightGuard(this, id);
}

void ServerLifecycle::Untrack(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  inflight_.erase(id);
  if (inflight_.empty()) drained_cv_.notify_all();
}

void ServerLifecycle::BindTokenFor(uint64_t id, const util::CancelToken& token) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = inflight_.find(id);
  if (it == inflight_.end()) return;
  it->second.token = token;
  const util::Status& cancelled = it->second.cancel_status;
  if (!cancelled.ok()) token.CancelWith(cancelled);
}

size_t ServerLifecycle::SweepLocked(std::chrono::steady_clock::time_point now) {
  size_t cancelled = 0;
  for (auto& [id, entry] : inflight_) {
    (void)id;
    if (!entry.has_bound || !entry.cancel_status.ok() ||
        now < entry.hard_bound) {
      continue;
    }
    entry.cancel_status = util::Status::DeadlineExceeded(
        "watchdog: request exceeded its hard bound");
    FlaggedCounter().Add(1);
    if (entry.token.valid()) {
      entry.token.CancelWith(entry.cancel_status);
      CancelledCounter().Add(1);
      ++cancelled;
    }
  }
  return cancelled;
}

size_t ServerLifecycle::SweepNow() {
  SweepsCounter().Add(1);
  std::lock_guard<std::mutex> lock(mu_);
  return SweepLocked(std::chrono::steady_clock::now());
}

void ServerLifecycle::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (watchdog_running_) {
    watchdog_cv_.wait_for(lock,
                          SecondsToDuration(options_.watchdog_poll_s > 0
                                                ? options_.watchdog_poll_s
                                                : 0.01));
    if (!watchdog_running_) break;
    lock.unlock();
    SweepNow();
    lock.lock();
  }
}

void ServerLifecycle::StartWatchdog() {
  std::lock_guard<std::mutex> lock(watchdog_mu_);
  if (watchdog_running_) return;
  watchdog_running_ = true;
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

void ServerLifecycle::StopWatchdog() {
  {
    std::lock_guard<std::mutex> lock(watchdog_mu_);
    if (!watchdog_running_) return;
    watchdog_running_ = false;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  // Final deterministic sweep: even a watchdog stopped immediately after
  // starting reports at least one sweep, and nothing overdue survives stop.
  SweepNow();
}

}  // namespace adamgnn::serve
