// Contention-adaptive overload control plane: client-side AIMD admission
// window plus the replica-side load-shedding knobs.
//
// Meerkat's ZCP stack has no internal regulator: OCC abort rates rise
// super-linearly with offered load (paper §6.4), and blind retries of aborted
// transactions amplify exactly the contention that caused them. The control
// plane regulates in two ZCP-compatible places:
//
//   * Clients bound their own inflight transactions with an AIMD window
//     (additive-increase on commit, multiplicative-decrease on abort or
//     overload signal) — purely client-local state, TCP-congestion-control
//     style, so the aggregate offered load converges near the saturation
//     knee without any cross-client coordination.
//   * Replica cores shed fresh VALIDATEs past a per-core inflight/queue-depth
//     watermark (relaxed per-core counters only; see replica.cc). The
//     kRetryLater reply carries a backoff hint that feeds the client window.
//
// The AimdWindow itself is client-side control-plane state, NOT replica
// fast-path state: it uses a mutex + condvar because blocking admission is
// its job. It is never touched from a ZCP_FAST_PATH function.

#ifndef MEERKAT_SRC_COMMON_OVERLOAD_H_
#define MEERKAT_SRC_COMMON_OVERLOAD_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/types.h"

namespace meerkat {

// Client-side AIMD admission window configuration (SystemOptions::admission).
struct AdmissionOptions {
  bool enabled = false;
  // Window the system starts with, and the clamp range AIMD moves within.
  double initial_window = 8.0;
  double min_window = 1.0;
  double max_window = 1024.0;

  AdmissionOptions& WithEnabled(bool on) {
    enabled = on;
    return *this;
  }
  AdmissionOptions& WithInitialWindow(double w) {
    initial_window = w;
    return *this;
  }
  AdmissionOptions& WithWindowRange(double min_w, double max_w) {
    min_window = min_w;
    max_window = max_w;
    return *this;
  }
};

// Replica-side load-shedding configuration (SystemOptions::overload).
// All signals are per-core and relaxed — shedding never adds cross-core
// coordination to the validate path.
struct OverloadOptions {
  bool enabled = false;
  // Shed fresh VALIDATEs once this core tracks this many non-final
  // transactions (validated-but-undecided inflight). 0 disables the check.
  uint32_t max_inflight_per_core = 256;
  // Shed once the core's EWMA of drained-batch width reaches this depth
  // (a proxy for queue backlog). 0 disables the check.
  uint32_t queue_watermark = 512;
  // Base server-suggested backoff; the hint returned scales up with how far
  // past the watermark the core is.
  uint64_t base_backoff_hint_ns = 200'000;

  OverloadOptions& WithEnabled(bool on) {
    enabled = on;
    return *this;
  }
  OverloadOptions& WithMaxInflightPerCore(uint32_t n) {
    max_inflight_per_core = n;
    return *this;
  }
  OverloadOptions& WithQueueWatermark(uint32_t n) {
    queue_watermark = n;
    return *this;
  }
  OverloadOptions& WithBaseBackoffHint(uint64_t ns) {
    base_backoff_hint_ns = ns;
    return *this;
  }
};

// One AIMD concurrency window shared by every session of a System (the
// "session group" of the paper's client machines). Thread-safe; blocking and
// non-blocking acquisition styles coexist so the threaded driver can park a
// callback while the sim driver polls deterministically.
class AimdWindow {
 public:
  // Additive increase per committed transaction, spread over a full window
  // (w += kAdditiveIncrease / w), the TCP-Reno shape: one full window of
  // commits grows the window by ~kAdditiveIncrease.
  static constexpr double kAdditiveIncrease = 1.0;
  // Multiplicative decrease on a contention abort (OCC conflict / shard
  // abort). Gentler than the overload decrease: conflicts carry some signal
  // but single aborts are common at any load.
  static constexpr double kConflictDecrease = 0.9;
  // Multiplicative decrease on an overload signal (replica shed, timeout,
  // deadline, no-quorum): the strong back-off.
  static constexpr double kOverloadDecrease = 0.5;

  explicit AimdWindow(const AdmissionOptions& options);

  bool enabled() const { return options_.enabled; }
  const AdmissionOptions& options() const { return options_; }

  // Non-blocking: claims a slot if the window has room. priority_bypass
  // admits regardless of the window (priority aging must not starve behind
  // admission). Always succeeds when the window is disabled.
  bool TryAcquire(bool priority_bypass = false);

  // Blocking (threaded clients): waits until a slot frees.
  void AcquireBlocking(bool priority_bypass = false);

  // Callback style (threaded driver): if a slot is free, claims it and
  // returns true (resume is NOT kept). Otherwise parks `resume` to be
  // invoked — holding a claimed slot — when one frees, and returns false.
  bool AcquireOrPark(std::function<void()> resume, bool priority_bypass = false);

  // Releases the slot and applies AIMD from the attempt's outcome:
  // additive-increase on commit; kConflictDecrease on contention aborts;
  // kOverloadDecrease on sheds, timeouts, deadline misses, and failures.
  void OnOutcome(TxnResult result, AbortReason reason);

  // Releases the slot with no window adjustment (abandoned attempts).
  void Release();

  double window() const;
  uint32_t inflight() const;
  uint64_t waits() const;

 private:
  // Pops one parked waiter (transferring the caller's slot to it) or frees
  // the slot and signals blocked acquirers. Returns the waiter to invoke
  // outside the lock, or nullptr.
  std::function<void()> ReleaseSlotLocked() REQUIRES(mu_);

  const AdmissionOptions options_;
  mutable Mutex mu_;
  CondVar cv_;
  double window_ GUARDED_BY(mu_);
  uint32_t inflight_ GUARDED_BY(mu_) = 0;
  uint64_t waits_ GUARDED_BY(mu_) = 0;
  std::vector<std::function<void()>> parked_ GUARDED_BY(mu_);
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_COMMON_OVERLOAD_H_
