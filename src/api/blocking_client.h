// Synchronous convenience wrapper over a ClientSession for applications that
// just want `Execute(plan)` / `Get` / `Put` calls (the examples, and any
// embedder that doesn't need the event-driven API). Threaded runtime only —
// it blocks the calling thread on a condition variable while the session's
// transport endpoint drives the protocol.

#ifndef MEERKAT_SRC_API_BLOCKING_CLIENT_H_
#define MEERKAT_SRC_API_BLOCKING_CLIENT_H_

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "src/api/system.h"
#include "src/common/annotations.h"
#include "src/common/overload.h"
#include "src/common/retry.h"
#include "src/common/rng.h"

namespace meerkat {

class BlockingClient {
 public:
  BlockingClient(System& system, uint32_t client_id, uint64_t seed = 1)
      : session_(system.CreateSession(client_id, seed)), window_(&system.admission_window()),
        backoff_rng_(seed ^ 0xb10c) {}

  // Runs one transaction to completion. Blocks the calling thread.
  TxnOutcome Execute(TxnPlan plan) {
    {
      MutexLock lock(mu_);
      done_ = false;
    }
    // ExecuteAsync is called outside mu_: the session takes its own lock, and
    // the completion callback (which runs on the endpoint's worker thread)
    // locks mu_ while the worker holds that session lock — calling into the
    // session with mu_ held would invert the order and risk deadlock.
    session_->ExecuteAsync(std::move(plan), [this](const TxnOutcome& outcome) {
      // Notify under the lock: once done_ is observable the waiter may return
      // from Execute and destroy this client, so the signal must complete
      // before the lock is released.
      MutexLock inner(mu_);
      outcome_ = outcome;
      done_ = true;
      cv_.NotifyOne();
    });
    MutexLock lock(mu_);
    while (!done_) {
      cv_.Wait(mu_);
    }
    return outcome_;
  }

  // Retries an abortable transaction until it commits (or the policy's
  // max_attempts aborts). Abort-aware: contention aborts (OCC/shard
  // conflicts) back off on the short jittered contention schedule — the
  // conflicting transaction finishes within tens of µs, while lockstep
  // retries across clients livelock; overload aborts (replica sheds,
  // timeouts) back off on the long overload schedule, honoring the
  // server-suggested hint. Each attempt first claims a slot in the System's
  // shared AIMD admission window (no-op when admission is disabled) and
  // reports the outcome back so the window adapts. Past
  // `policy.aging_threshold` attempts, the plan is re-issued at priority 1,
  // which bypasses both the admission window and replica shedding — a
  // repeatedly-aborted transaction ages instead of starving. Plans built from
  // Op::RmwFn recompute their writes from fresh reads on every attempt. The
  // returned outcome is the final attempt's, with `attempts` set to the total
  // consumed.
  TxnOutcome ExecuteWithRetry(const TxnPlan& plan,
                              const AbortRetryPolicy& policy = AbortRetryPolicy::Default()) {
    TxnOutcome outcome;
    for (uint32_t attempt = 1; attempt <= policy.max_attempts; attempt++) {
      TxnPlan attempt_plan = plan;
      attempt_plan.priority = std::max(plan.priority, policy.PriorityFor(attempt));
      window_->AcquireBlocking(/*priority_bypass=*/attempt_plan.priority > 0);
      outcome = Execute(std::move(attempt_plan));
      window_->OnOutcome(outcome.result, outcome.reason);
      outcome.attempts = attempt;
      if (!policy.ShouldRetry(outcome.result, outcome.reason, attempt)) {
        break;  // Committed, failed for a non-retryable reason, or exhausted.
      }
      uint64_t hint = policy.respect_server_hint ? outcome.backoff_hint_ns : 0;
      uint64_t delay = policy.DelayNanos(outcome.reason, hint, attempt, backoff_rng_);
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(delay));
      }
    }
    return outcome;
  }

  // Single-key transactional read, retried through ExecuteWithRetry: a read
  // can abort for a reason unrelated to the key's existence — a replica that
  // has not yet applied an earlier committed write (COMMIT is asynchronous)
  // votes abort on the pending writer. nullopt means the key does not exist,
  // or the read failed or exhausted its retry budget.
  std::optional<std::string> Get(const std::string& key) {
    TxnPlan plan;
    plan.ops.push_back(Op::Get(key));
    if (!ExecuteWithRetry(plan).committed()) {
      return std::nullopt;
    }
    std::optional<std::string> value = session_->last_read_value(key);
    if (value.has_value() && value->empty()) {
      // Distinguish "absent" from "empty value": the read set records the
      // version; an invalid version means the key has never been written.
      for (const ReadSetEntry& read : session_->last_read_set()) {
        if (read.key == key && !read.read_wts.Valid()) {
          return std::nullopt;
        }
      }
    }
    return value;
  }

  // Single-key transactional write.
  TxnOutcome Put(const std::string& key, const std::string& value) {
    TxnPlan plan;
    plan.ops.push_back(Op::Put(key, value));
    return Execute(plan);
  }

  ClientSession& session() { return *session_; }

 private:
  std::unique_ptr<ClientSession> session_;
  AimdWindow* const window_;
  Rng backoff_rng_;
  Mutex mu_;
  CondVar cv_;
  bool done_ GUARDED_BY(mu_) = false;
  TxnOutcome outcome_ GUARDED_BY(mu_);
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_API_BLOCKING_CLIENT_H_
