#include "src/common/overload.h"

#include <algorithm>
#include <utility>

#include "src/common/metrics.h"

namespace meerkat {
namespace {

const MetricId kWindowSize = MetricsRegistry::Histogram("overload.window_size");
const MetricId kWindowWaits = MetricsRegistry::Counter("overload.window_waits");
const MetricId kWindowDecreases = MetricsRegistry::Counter("overload.window_decreases");
const MetricId kWindowInflight = MetricsRegistry::Gauge("overload.window_inflight");

double Clamp(double v, double lo, double hi) { return std::min(hi, std::max(lo, v)); }

}  // namespace

AimdWindow::AimdWindow(const AdmissionOptions& options)
    : options_(options),
      window_(Clamp(options.initial_window, std::max(1.0, options.min_window),
                    options.max_window)) {}

bool AimdWindow::TryAcquire(bool priority_bypass) {
  if (!options_.enabled) {
    return true;
  }
  MutexLock lock(mu_);
  if (!priority_bypass && inflight_ >= static_cast<uint32_t>(window_)) {
    waits_++;
    MetricIncr(kWindowWaits);
    return false;
  }
  inflight_++;
  MetricGaugeAdd(kWindowInflight, 1);
  return true;
}

void AimdWindow::AcquireBlocking(bool priority_bypass) {
  if (!options_.enabled) {
    return;
  }
  MutexLock lock(mu_);
  if (!priority_bypass && inflight_ >= static_cast<uint32_t>(window_)) {
    waits_++;
    MetricIncr(kWindowWaits);
    while (inflight_ >= static_cast<uint32_t>(window_)) {
      cv_.Wait(mu_);
    }
  }
  inflight_++;
  MetricGaugeAdd(kWindowInflight, 1);
}

bool AimdWindow::AcquireOrPark(std::function<void()> resume, bool priority_bypass) {
  if (!options_.enabled) {
    return true;
  }
  MutexLock lock(mu_);
  if (priority_bypass || inflight_ < static_cast<uint32_t>(window_)) {
    inflight_++;
    MetricGaugeAdd(kWindowInflight, 1);
    return true;
  }
  waits_++;
  MetricIncr(kWindowWaits);
  parked_.push_back(std::move(resume));
  return false;
}

void AimdWindow::OnOutcome(TxnResult result, AbortReason reason) {
  if (!options_.enabled) {
    return;
  }
  std::function<void()> waiter;
  {
    MutexLock lock(mu_);
    if (result == TxnResult::kCommit) {
      // Reno-style additive increase: a full window of commits grows the
      // window by ~kAdditiveIncrease.
      window_ += kAdditiveIncrease / std::max(1.0, window_);
    } else {
      bool overload = reason == AbortReason::kOverload || reason == AbortReason::kNoQuorum ||
                      reason == AbortReason::kDeadline || result == TxnResult::kFailed;
      window_ *= overload ? kOverloadDecrease : kConflictDecrease;
      MetricIncr(kWindowDecreases);
    }
    window_ = Clamp(window_, std::max(1.0, options_.min_window), options_.max_window);
    MetricRecordValue(kWindowSize, static_cast<uint64_t>(window_));
    waiter = ReleaseSlotLocked();
  }
  if (waiter) {
    waiter();  // Invoked outside mu_: the waiter issues a transaction.
  }
}

void AimdWindow::Release() {
  if (!options_.enabled) {
    return;
  }
  std::function<void()> waiter;
  {
    MutexLock lock(mu_);
    waiter = ReleaseSlotLocked();
  }
  if (waiter) {
    waiter();
  }
}

std::function<void()> AimdWindow::ReleaseSlotLocked() {
  // Hand the slot to a parked waiter when the post-release window still has
  // room for it; otherwise free the slot. A multiplicative decrease can
  // shrink the window below the current inflight, in which case parked
  // waiters (and blocked acquirers) stay put until enough slots drain.
  if (!parked_.empty() && inflight_ <= static_cast<uint32_t>(window_)) {
    std::function<void()> waiter = std::move(parked_.front());
    parked_.erase(parked_.begin());
    return waiter;  // Slot transfers: inflight_ unchanged.
  }
  if (inflight_ > 0) {
    inflight_--;
    MetricGaugeAdd(kWindowInflight, -1);
  }
  cv_.NotifyOne();
  return nullptr;
}

double AimdWindow::window() const {
  MutexLock lock(mu_);
  return window_;
}

uint32_t AimdWindow::inflight() const {
  MutexLock lock(mu_);
  return inflight_;
}

uint64_t AimdWindow::waits() const {
  MutexLock lock(mu_);
  return waits_;
}

}  // namespace meerkat
