// Tests for the contention-adaptive overload control plane (ISSUE 7):
// the client-side AIMD admission window, the abort-aware retry policy with
// priority aging, replica-side load shedding (kRetryLater + backoff hint),
// and the BlockingClient deadline/no-quorum failure paths.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/api/blocking_client.h"
#include "src/common/overload.h"
#include "src/common/retry.h"
#include "src/protocol/replica.h"
#include "tests/test_util.h"

namespace meerkat {
namespace {

// ---------------------------------------------------------------------------
// AimdWindow
// ---------------------------------------------------------------------------

AdmissionOptions SmallWindow(double initial = 2.0) {
  return AdmissionOptions().WithEnabled(true).WithInitialWindow(initial).WithWindowRange(1.0,
                                                                                        64.0);
}

TEST(AimdWindowTest, DisabledWindowAdmitsFreely) {
  AimdWindow w((AdmissionOptions()));  // enabled = false.
  EXPECT_FALSE(w.enabled());
  for (int i = 0; i < 1000; i++) {
    EXPECT_TRUE(w.TryAcquire());
  }
  // Outcomes neither block nor adapt anything.
  w.OnOutcome(TxnResult::kAbort, AbortReason::kOverload);
  EXPECT_TRUE(w.TryAcquire());
}

TEST(AimdWindowTest, TryAcquireRespectsWindow) {
  AimdWindow w(SmallWindow(2.0));
  EXPECT_TRUE(w.TryAcquire());
  EXPECT_TRUE(w.TryAcquire());
  EXPECT_EQ(w.inflight(), 2u);
  EXPECT_FALSE(w.TryAcquire()) << "admitted past a full window";
  // Releasing one slot re-opens admission.
  w.Release();
  EXPECT_TRUE(w.TryAcquire());
}

TEST(AimdWindowTest, PriorityBypassAdmitsPastFullWindow) {
  AimdWindow w(SmallWindow(1.0));
  EXPECT_TRUE(w.TryAcquire());
  EXPECT_FALSE(w.TryAcquire());
  EXPECT_TRUE(w.TryAcquire(/*priority_bypass=*/true))
      << "aged (priority) attempts must not starve behind admission";
  EXPECT_EQ(w.inflight(), 2u);
}

TEST(AimdWindowTest, CommitGrowsWindowAdditively) {
  AimdWindow w(SmallWindow(2.0));
  double before = w.window();
  ASSERT_TRUE(w.TryAcquire());
  w.OnOutcome(TxnResult::kCommit, AbortReason::kNone);
  // TCP-Reno shape: one commit grows the window by ai/w.
  EXPECT_GT(w.window(), before);
  EXPECT_LE(w.window(), before + 1.0);
  EXPECT_EQ(w.inflight(), 0u) << "OnOutcome must release the slot";
}

TEST(AimdWindowTest, ContentionShrinksGentlyOverloadShrinksHard) {
  AimdWindow a(SmallWindow(32.0));
  ASSERT_TRUE(a.TryAcquire());
  a.OnOutcome(TxnResult::kAbort, AbortReason::kOccConflict);
  EXPECT_DOUBLE_EQ(a.window(), 32.0 * AimdWindow::kConflictDecrease);

  AimdWindow b(SmallWindow(32.0));
  ASSERT_TRUE(b.TryAcquire());
  b.OnOutcome(TxnResult::kAbort, AbortReason::kOverload);
  EXPECT_DOUBLE_EQ(b.window(), 32.0 * AimdWindow::kOverloadDecrease);
  EXPECT_LT(b.window(), a.window()) << "overload must back off harder than contention";
}

TEST(AimdWindowTest, WindowClampsAtMin) {
  AimdWindow w(SmallWindow(1.0));
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(w.TryAcquire(/*priority_bypass=*/true));
    w.OnOutcome(TxnResult::kAbort, AbortReason::kOverload);
  }
  EXPECT_GE(w.window(), w.options().min_window);
}

TEST(AimdWindowTest, AcquireOrParkTransfersSlotToWaiter) {
  AimdWindow w(SmallWindow(1.0));
  ASSERT_TRUE(w.TryAcquire());

  std::atomic<int> resumed{0};
  // Window full: the callback parks instead of running.
  bool immediate = w.AcquireOrPark([&] { resumed.fetch_add(1); });
  EXPECT_FALSE(immediate);
  EXPECT_EQ(resumed.load(), 0);
  EXPECT_EQ(w.waits(), 1u);

  // Releasing the held slot transfers it to the parked waiter: the resume
  // runs (outside the lock) already holding a slot, so inflight stays 1.
  w.OnOutcome(TxnResult::kCommit, AbortReason::kNone);
  EXPECT_EQ(resumed.load(), 1);
  EXPECT_EQ(w.inflight(), 1u);
  w.Release();
  EXPECT_EQ(w.inflight(), 0u);

  // With room available the callback runs inline and is not kept.
  immediate = w.AcquireOrPark([&] { resumed.fetch_add(100); });
  EXPECT_TRUE(immediate);
  EXPECT_EQ(resumed.load(), 1) << "resume must not be invoked when admitted immediately";
  w.Release();
}

TEST(AimdWindowTest, AcquireBlockingWakesWhenSlotFrees) {
  AimdWindow w(SmallWindow(1.0));
  ASSERT_TRUE(w.TryAcquire());
  std::atomic<bool> acquired{false};
  std::thread blocked([&] {
    w.AcquireBlocking();
    acquired.store(true);
  });
  // The blocked thread cannot make progress until the slot frees.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(acquired.load());
  w.Release();
  blocked.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(w.inflight(), 1u);
}

// ---------------------------------------------------------------------------
// AbortRetryPolicy
// ---------------------------------------------------------------------------

TEST(AbortRetryPolicyTest, RetriesAbortsOnly) {
  AbortRetryPolicy p;
  EXPECT_TRUE(p.ShouldRetry(TxnResult::kAbort, AbortReason::kOccConflict, 1));
  EXPECT_TRUE(p.ShouldRetry(TxnResult::kAbort, AbortReason::kOverload, 1));
  EXPECT_FALSE(p.ShouldRetry(TxnResult::kCommit, AbortReason::kNone, 1));
  // kFailed means the quorum is gone, not busy: retrying cannot help.
  EXPECT_FALSE(p.ShouldRetry(TxnResult::kFailed, AbortReason::kNoQuorum, 1));
  // Attempt budget is exhausted at max_attempts.
  EXPECT_FALSE(p.ShouldRetry(TxnResult::kAbort, AbortReason::kOccConflict, p.max_attempts));
}

TEST(AbortRetryPolicyTest, PriorityAgesPastThreshold) {
  AbortRetryPolicy p;
  p.aging_threshold = 3;
  EXPECT_EQ(p.PriorityFor(1), 0);
  EXPECT_EQ(p.PriorityFor(3), 0);
  EXPECT_EQ(p.PriorityFor(4), 1);
  p.aging_threshold = 0;  // Aging disabled.
  EXPECT_EQ(p.PriorityFor(100), 0);
}

TEST(AbortRetryPolicyTest, OverloadScheduleDominatesContentionAndHonorsHint) {
  AbortRetryPolicy p;
  p.contention = RetryPolicy::WithTimeout(1'000);
  p.overload = RetryPolicy::WithTimeout(100'000);
  p.contention.jitter = 0;
  p.overload.jitter = 0;
  Rng rng(7);
  EXPECT_EQ(p.DelayNanos(AbortReason::kOccConflict, 0, 1, rng), 1'000u);
  EXPECT_EQ(p.DelayNanos(AbortReason::kOverload, 0, 1, rng), 100'000u);
  EXPECT_EQ(p.DelayNanos(AbortReason::kNoQuorum, 0, 1, rng), 100'000u);
  EXPECT_EQ(p.DelayNanos(AbortReason::kDeadline, 0, 1, rng), 100'000u);
  // The server hint raises (but never lowers) the overload delay.
  EXPECT_EQ(p.DelayNanos(AbortReason::kOverload, 750'000, 1, rng), 750'000u);
  EXPECT_EQ(p.DelayNanos(AbortReason::kOverload, 50, 1, rng), 100'000u);
  // Hints are ignored when the policy says so (bench's blind-retry mode).
  p.respect_server_hint = false;
  EXPECT_EQ(p.DelayNanos(AbortReason::kOverload, 750'000, 1, rng), 100'000u);
  // Contention delays never consult the hint.
  p.respect_server_hint = true;
  EXPECT_EQ(p.DelayNanos(AbortReason::kOccConflict, 750'000, 1, rng), 1'000u);
}

TEST(AbortRetryPolicyTest, AgedContentionRetriesUseBaseDelay) {
  AbortRetryPolicy p;
  p.contention = RetryPolicy::WithTimeout(1'000);
  p.contention.jitter = 0;
  p.aging_threshold = 5;
  Rng rng(7);
  // While the next attempt is still un-aged the schedule backs off
  // exponentially...
  EXPECT_EQ(p.DelayNanos(AbortReason::kOccConflict, 0, 2, rng), 2'000u);
  EXPECT_EQ(p.DelayNanos(AbortReason::kOccConflict, 0, 3, rng), 4'000u);
  // ...but once the next attempt runs at priority 1, backing off harder would
  // undo the boost: aged retries use the base delay.
  EXPECT_EQ(p.DelayNanos(AbortReason::kOccConflict, 0, 5, rng), 1'000u);
  EXPECT_EQ(p.DelayNanos(AbortReason::kOccConflict, 0, 9, rng), 1'000u);
}

// ---------------------------------------------------------------------------
// Replica-side load shedding (driven directly through a loopback transport,
// same idiom as replica_test.cc).
// ---------------------------------------------------------------------------

class ShedLoopbackTransport : public Transport {
 public:
  void RegisterReplica(ReplicaId, CoreId core, TransportReceiver* receiver) override {
    if (receivers_.size() <= core) {
      receivers_.resize(core + 1);
    }
    receivers_[core] = receiver;
  }
  void RegisterClient(uint32_t, TransportReceiver*) override {}
  void UnregisterClient(uint32_t) override {}
  void SetTimer(const Address&, CoreId, uint64_t, uint64_t) override {}
  void Send(Message msg) override { sent.push_back(std::move(msg)); }

  void Inject(CoreId core, Message msg) { receivers_[core]->Receive(std::move(msg)); }

  template <typename T>
  const T* LastReply() const {
    for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
      if (const T* p = std::get_if<T>(&it->payload)) {
        return p;
      }
    }
    return nullptr;
  }

  std::vector<Message> sent;

 private:
  std::vector<TransportReceiver*> receivers_;
};

class SheddingReplicaFixture : public ::testing::Test {
 protected:
  SheddingReplicaFixture() {
    // One non-final transaction per core is the shed watermark: the second
    // fresh VALIDATE on a core is rejected. Queue-EWMA shedding is disabled
    // so the tests exercise exactly the inflight signal.
    OverloadOptions overload = OverloadOptions()
                                   .WithEnabled(true)
                                   .WithMaxInflightPerCore(1)
                                   .WithQueueWatermark(0)
                                   .WithBaseBackoffHint(50'000);
    replica_ = std::make_unique<MeerkatReplica>(0, QuorumConfig::ForReplicas(3), 2, &transport_,
                                                &clock_, /*group_base=*/0, RetryPolicy(),
                                                overload);
    replica_->LoadKey("a", "v0", Timestamp{1, 0});
    replica_->LoadKey("b", "v0", Timestamp{1, 0});
    replica_->LoadKey("c", "v0", Timestamp{1, 0});
  }

  Message From(uint32_t client, CoreId core, Payload payload) {
    Message msg;
    msg.src = Address::Client(client);
    msg.dst = Address::Replica(0);
    msg.core = core;
    msg.payload = std::move(payload);
    return msg;
  }

  // Blind write of `key` at `ts`: distinct keys keep the fixture's
  // transactions OCC-independent so votes are kValidatedOk.
  ValidateRequest Validate(TxnId tid, Timestamp ts, const std::string& key,
                           uint8_t priority = 0) {
    ValidateRequest req{tid, ts, {}, {{key, "new"}}};
    req.priority = priority;
    return req;
  }

  ShedLoopbackTransport transport_;
  TestClock clock_;
  std::unique_ptr<MeerkatReplica> replica_;
};

TEST_F(SheddingReplicaFixture, ShedsFreshValidatePastInflightWatermark) {
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1}, "a")));
  EXPECT_EQ(transport_.LastReply<ValidateReply>()->status, TxnStatus::kValidatedOk);
  EXPECT_EQ(replica_->core_inflight(0), 1u);

  transport_.Inject(0, From(2, 0, Validate({2, 1}, {51, 2}, "b")));
  const ValidateReply* shed = transport_.LastReply<ValidateReply>();
  ASSERT_NE(shed, nullptr);
  EXPECT_EQ(shed->status, TxnStatus::kRetryLater);
  EXPECT_GE(shed->backoff_hint_ns, replica_->overload_options().base_backoff_hint_ns);
  EXPECT_EQ(replica_->shed_total(), 1u);
  // A shed is a fast-reject: no record, no OCC, no registrations.
  EXPECT_EQ(replica_->trecord().Partition(0).Find({2, 1}), nullptr);
  KeyEntry* entry = replica_->store().Find("b");
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->writers.empty());
}

TEST_F(SheddingReplicaFixture, SheddingIsPerCore) {
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1}, "a")));
  // Core 1 has its own inflight counter: not shed.
  transport_.Inject(1, From(2, 1, Validate({2, 1}, {51, 2}, "b")));
  EXPECT_EQ(transport_.LastReply<ValidateReply>()->status, TxnStatus::kValidatedOk);
  EXPECT_EQ(replica_->shed_total(), 0u);
}

TEST_F(SheddingReplicaFixture, PriorityBypassesShedding) {
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1}, "a")));
  transport_.Inject(0, From(2, 0, Validate({2, 1}, {51, 2}, "b", /*priority=*/1)));
  EXPECT_EQ(transport_.LastReply<ValidateReply>()->status, TxnStatus::kValidatedOk)
      << "aged (priority) VALIDATE was shed";
  EXPECT_EQ(replica_->shed_total(), 0u);
  EXPECT_EQ(replica_->core_inflight(0), 2u);
}

TEST_F(SheddingReplicaFixture, CommitDrainsInflightAndReopensAdmission) {
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1}, "a")));
  transport_.Inject(0, From(2, 0, Validate({2, 1}, {51, 2}, "b")));
  ASSERT_EQ(transport_.LastReply<ValidateReply>()->status, TxnStatus::kRetryLater);

  // Finalizing the first transaction frees its inflight slot...
  transport_.Inject(0, From(1, 0, CommitRequest{{1, 1}, true}));
  EXPECT_EQ(replica_->core_inflight(0), 0u);
  // ...so the shed transaction's retry now gets a real vote.
  transport_.Inject(0, From(2, 0, Validate({2, 1}, {51, 2}, "b")));
  EXPECT_EQ(transport_.LastReply<ValidateReply>()->status, TxnStatus::kValidatedOk);
}

TEST_F(SheddingReplicaFixture, AbortDecisionAlsoDrainsInflight) {
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1}, "a")));
  transport_.Inject(0, From(1, 0, CommitRequest{{1, 1}, false}));
  EXPECT_EQ(replica_->core_inflight(0), 0u);
}

TEST_F(SheddingReplicaFixture, DuplicateValidateOfTrackedTxnIsNotShed) {
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1}, "a")));
  // A retransmission of an already-voted transaction must re-report the
  // recorded vote even when the core is at its watermark — shedding retries
  // of admitted work would wedge their coordinators.
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1}, "a")));
  EXPECT_EQ(transport_.LastReply<ValidateReply>()->status, TxnStatus::kValidatedOk);
  EXPECT_EQ(replica_->shed_total(), 0u);
  EXPECT_EQ(replica_->core_inflight(0), 1u) << "duplicate VALIDATE double-counted inflight";
}

TEST_F(SheddingReplicaFixture, BackoffHintScalesWithInflightDepth) {
  uint64_t base = replica_->overload_options().base_backoff_hint_ns;
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1}, "a")));
  transport_.Inject(0, From(2, 0, Validate({2, 1}, {51, 2}, "b")));
  uint64_t hint_at_1 = transport_.LastReply<ValidateReply>()->backoff_hint_ns;
  EXPECT_EQ(hint_at_1, base * 2) << "1x over a watermark of 1";
  // Deepen the backlog via a priority admit, then shed again: the hint grows.
  transport_.Inject(0, From(3, 0, Validate({3, 1}, {52, 3}, "c", /*priority=*/1)));
  transport_.Inject(0, From(2, 0, Validate({2, 1}, {51, 2}, "b")));
  uint64_t hint_at_2 = transport_.LastReply<ValidateReply>()->backoff_hint_ns;
  EXPECT_GT(hint_at_2, hint_at_1);
}

// The starvation regression, at the protocol level: a transaction that keeps
// getting shed behind a stuck inflight transaction commits once priority
// aging kicks in — shedding alone can never permanently starve a client.
TEST_F(SheddingReplicaFixture, StarvedTxnCommitsViaPriorityAging) {
  // Txn A occupies the core's only inflight slot and never finalizes (its
  // coordinator is slow or gone).
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1}, "a")));

  // Txn B is shed on every plain-priority retry, deterministically.
  for (int attempt = 0; attempt < 3; attempt++) {
    transport_.Inject(0, From(2, 0, Validate({2, 1}, {51, 2}, "b")));
    ASSERT_EQ(transport_.LastReply<ValidateReply>()->status, TxnStatus::kRetryLater)
        << "attempt " << attempt;
  }
  EXPECT_EQ(replica_->shed_total(), 3u);

  // Once B's retry loop ages it to priority 1 it gets a vote and commits.
  transport_.Inject(0, From(2, 0, Validate({2, 1}, {51, 2}, "b", /*priority=*/1)));
  ASSERT_EQ(transport_.LastReply<ValidateReply>()->status, TxnStatus::kValidatedOk);
  transport_.Inject(0, From(2, 0, CommitRequest{{2, 1}, true}));
  EXPECT_EQ(replica_->store().Read("b").value, "new");
  EXPECT_EQ(replica_->store().Read("b").wts, (Timestamp{51, 2}));
}

// ---------------------------------------------------------------------------
// BlockingClient end-to-end: admission window integration and the
// deadline / no-quorum failure paths (threaded runtime).
// ---------------------------------------------------------------------------

TEST(BlockingClientOverloadTest, CommitsFlowThroughEnabledAdmissionWindow) {
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat);
  options.retry = RetryPolicy::WithTimeout(5'000'000);
  options.admission =
      AdmissionOptions().WithEnabled(true).WithInitialWindow(2).WithWindowRange(1, 8);
  ThreadedHarness h(options);
  h.system().Load("count", "0");

  BlockingClient client(h.system(), 1);
  TxnPlan increment = Txn()
                          .RmwFn("count",
                                 [](const std::string& v) {
                                   return std::to_string(v.empty() ? 1 : std::stoi(v) + 1);
                                 })
                          .Build();
  for (int i = 0; i < 8; i++) {
    ASSERT_EQ(client.ExecuteWithRetry(increment).result, TxnResult::kCommit);
  }
  EXPECT_EQ(client.Get("count").value_or(""), "8");
  // Every slot was released and the commit streak grew the window.
  AimdWindow& window = h.system().admission_window();
  EXPECT_EQ(window.inflight(), 0u);
  EXPECT_GT(window.window(), 2.0);
}

TEST(BlockingClientOverloadTest, AttemptDeadlineFailsTxnWhenQuorumUnreachable) {
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat);
  options.retry = RetryPolicy::WithTimeout(1'000'000);
  options.retry.attempt_deadline_ns = 20'000'000;  // 20ms, well before 64 retransmits.
  ThreadedHarness h(options);
  h.system().Load("k", "v0");
  for (ReplicaId r = 0; r < 3; r++) {
    h.transport().faults().CrashReplica(r);
  }

  BlockingClient client(h.system(), 1);
  TxnOutcome outcome = client.Execute(Txn().Put("k", "v1").Build());
  EXPECT_EQ(outcome.result, TxnResult::kFailed);
  EXPECT_EQ(outcome.reason, AbortReason::kDeadline);
}

TEST(BlockingClientOverloadTest, RetransmitBudgetFailsTxnWithNoQuorum) {
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat);
  options.retry = RetryPolicy::WithTimeout(500'000);
  options.retry.max_attempts = 3;  // Exhausts in ~a few ms; no deadline armed.
  ThreadedHarness h(options);
  h.system().Load("k", "v0");
  for (ReplicaId r = 0; r < 3; r++) {
    h.transport().faults().CrashReplica(r);
  }

  BlockingClient client(h.system(), 1);
  TxnOutcome outcome = client.Execute(Txn().Put("k", "v1").Build());
  EXPECT_EQ(outcome.result, TxnResult::kFailed);
  EXPECT_EQ(outcome.reason, AbortReason::kNoQuorum);
  EXPECT_GT(outcome.retransmits, 0u);
}

TEST(BlockingClientOverloadTest, ExecuteWithRetryDoesNotRetryFailedOutcomes) {
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat);
  options.retry = RetryPolicy::WithTimeout(500'000);
  options.retry.max_attempts = 2;
  ThreadedHarness h(options);
  for (ReplicaId r = 0; r < 3; r++) {
    h.transport().faults().CrashReplica(r);
  }

  BlockingClient client(h.system(), 1);
  TxnOutcome outcome = client.ExecuteWithRetry(Txn().Put("k", "v1").Build());
  EXPECT_EQ(outcome.result, TxnResult::kFailed);
  EXPECT_EQ(outcome.attempts, 1u) << "kFailed (quorum gone) must not be retried";
}

}  // namespace
}  // namespace meerkat
