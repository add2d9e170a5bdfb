// Batched delivery pipeline tests: DispatchBatch semantics (one gate
// acquisition, one OCC sweep, staged replies) driven synchronously through a
// loopback transport; the governor and probe-window clamps; Channel::PushAll; and
// fault-matrix cells asserting that drop/duplicate/delay of messages that ride
// a coalesced batch behave exactly per logical message (the injector judges
// before coalescing).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/api/blocking_client.h"
#include "src/protocol/replica.h"
#include "src/transport/channel.h"
#include "src/transport/spin_then_park.h"
#include "tests/test_util.h"

namespace meerkat {
namespace {

// Captures everything the replica sends; InjectBatch drives the batched
// receive path exactly like a transport worker handing over a drained inbox.
class LoopbackTransport : public Transport {
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

  void InjectBatch(CoreId core, std::vector<Message> msgs) {
    receivers_[core]->ReceiveBatch(msgs.data(), msgs.size());
  }

  std::vector<Message> sent;

 private:
  std::vector<TransportReceiver*> receivers_;
};

class BatchDispatchFixture : public ::testing::Test {
 protected:
  BatchDispatchFixture() {
    replica_ = std::make_unique<MeerkatReplica>(0, QuorumConfig::ForReplicas(3), 2, &transport_,
                                                &clock_);
    for (int i = 0; i < 16; i++) {
      replica_->LoadKey(Key(i), "v0", Timestamp{1, 0});
    }
  }

  static std::string Key(int i) { return "key-" + std::to_string(i); }

  Message From(uint32_t client, CoreId core, Payload payload) {
    Message msg;
    msg.src = Address::Client(client);
    msg.dst = Address::Replica(0);
    msg.core = core;
    msg.payload = std::move(payload);
    return msg;
  }

  // Single-key RMW validate on key i with a current read version.
  Message ValidateOn(int i, TxnId tid, Timestamp ts, Timestamp read_wts = {1, 0}) {
    return From(tid.client_id, 0,
                ValidateRequest{tid, ts, {{Key(i), read_wts}}, {{Key(i), "new"}}});
  }

  std::vector<const ValidateReply*> ValidateReplies() {
    std::vector<const ValidateReply*> replies;
    for (const Message& m : transport_.sent) {
      if (const auto* p = std::get_if<ValidateReply>(&m.payload)) {
        replies.push_back(p);
      }
    }
    return replies;
  }

  LoopbackTransport transport_;
  TestClock clock_;
  std::unique_ptr<MeerkatReplica> replica_;
};

TEST_F(BatchDispatchFixture, BatchOfValidatesRepliesPerMessageInOrder) {
  std::vector<Message> batch;
  for (int i = 0; i < 8; i++) {
    batch.push_back(
        ValidateOn(i, {1, static_cast<uint64_t>(i + 1)}, {static_cast<uint64_t>(50 + i), 1}));
  }
  transport_.InjectBatch(0, std::move(batch));

  std::vector<const ValidateReply*> replies = ValidateReplies();
  ASSERT_EQ(replies.size(), 8u);
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(replies[i]->tid.seq, static_cast<uint64_t>(i + 1)) << "reply order broken";
    EXPECT_EQ(replies[i]->status, TxnStatus::kValidatedOk);
  }
  // Every registration landed: one reader + one writer per distinct key.
  for (int i = 0; i < 8; i++) {
    KeyEntry* entry = replica_->store().Find(Key(i));
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->readers.size(), 1u);
    EXPECT_EQ(entry->writers.size(), 1u);
    EXPECT_NE(replica_->trecord().Partition(0).Find({1, static_cast<uint64_t>(i + 1)}),
              nullptr);
  }
}

TEST_F(BatchDispatchFixture, AbortInsideBatchIsPerMessage) {
  std::vector<Message> batch;
  batch.push_back(ValidateOn(0, {1, 1}, {50, 1}));
  // Stale read: the loaded version is {1,0}, this txn read an older one.
  batch.push_back(ValidateOn(1, {1, 2}, {51, 1}, /*read_wts=*/{0, 0}));
  batch.push_back(ValidateOn(2, {1, 3}, {52, 1}));
  transport_.InjectBatch(0, std::move(batch));

  std::vector<const ValidateReply*> replies = ValidateReplies();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0]->status, TxnStatus::kValidatedOk);
  EXPECT_EQ(replies[1]->status, TxnStatus::kValidatedAbort);
  EXPECT_EQ(replies[2]->status, TxnStatus::kValidatedOk);
  // The aborted txn backed out: no registrations left on its key.
  KeyEntry* entry = replica_->store().Find(Key(1));
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->readers.empty());
  EXPECT_TRUE(entry->writers.empty());
}

TEST_F(BatchDispatchFixture, InBatchDuplicateValidateReportsWithoutReRegistering) {
  // A duplicate-fault retransmission can land in the same drained batch as
  // the original. Both must be answered, and OCC must register once.
  std::vector<Message> batch;
  batch.push_back(ValidateOn(0, {1, 1}, {50, 1}));
  batch.push_back(ValidateOn(0, {1, 1}, {50, 1}));
  transport_.InjectBatch(0, std::move(batch));

  std::vector<const ValidateReply*> replies = ValidateReplies();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0]->status, TxnStatus::kValidatedOk);
  EXPECT_EQ(replies[1]->status, TxnStatus::kValidatedOk);
  KeyEntry* entry = replica_->store().Find(Key(0));
  EXPECT_EQ(entry->readers.size(), 1u) << "in-batch duplicate double-registered";
  EXPECT_EQ(entry->writers.size(), 1u);
}

TEST_F(BatchDispatchFixture, MixedBatchPreservesFifoAcrossKinds) {
  // VALIDATE then COMMIT of the same txn then a GET, all in one batch: the
  // GET must observe the committed write (proving the commit was not
  // reordered around the validate run), and the validate's reply must still
  // be correct.
  std::vector<Message> batch;
  batch.push_back(ValidateOn(0, {1, 1}, {50, 1}));
  batch.push_back(From(1, 0, CommitRequest{{1, 1}, true}));
  batch.push_back(From(2, 0, GetRequest{{2, 1}, 5, Key(0)}));
  transport_.InjectBatch(0, std::move(batch));

  std::vector<const ValidateReply*> vreplies = ValidateReplies();
  ASSERT_EQ(vreplies.size(), 1u);
  EXPECT_EQ(vreplies[0]->status, TxnStatus::kValidatedOk);
  EXPECT_EQ(replica_->store().Read(Key(0)).value, "new");

  const GetReply* get = nullptr;
  for (const Message& m : transport_.sent) {
    if (const auto* p = std::get_if<GetReply>(&m.payload)) {
      get = p;
    }
  }
  ASSERT_NE(get, nullptr);
  EXPECT_EQ(get->value, "new") << "GET overtook the COMMIT that precedes it in the batch";
}

TEST_F(BatchDispatchFixture, MaintenanceMessageSplitsTheBatchSafely) {
  // A TimerFire between two validates forces the dispatcher to release the
  // gate, flush staged replies, handle the maintenance message, and resume.
  std::vector<Message> batch;
  batch.push_back(ValidateOn(0, {1, 1}, {50, 1}));
  batch.push_back(From(1, 0, TimerFire{12345}));  // Unknown id: ignored.
  batch.push_back(ValidateOn(1, {1, 2}, {51, 1}));
  transport_.InjectBatch(0, std::move(batch));

  std::vector<const ValidateReply*> replies = ValidateReplies();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0]->tid.seq, 1u);
  EXPECT_EQ(replies[1]->tid.seq, 2u);
}

TEST_F(BatchDispatchFixture, BatchRoutesToTheAddressedCorePartition) {
  std::vector<Message> batch;
  Message m = ValidateOn(0, {1, 1}, {50, 1});
  m.core = 1;
  batch.push_back(std::move(m));
  transport_.InjectBatch(1, std::move(batch));
  EXPECT_NE(replica_->trecord().Partition(1).Find({1, 1}), nullptr);
  EXPECT_EQ(replica_->trecord().Partition(0).Find({1, 1}), nullptr);
}

// --- Governor and probe clamps ------------------------------------------------

TEST(BatchOptionsTest, ZeroMaxMessagesClampsToOne) {
  EXPECT_EQ(BatchOptions().WithMaxMessages(0).Clamped().max_messages, 1u);
  BatchOptions clamped = BatchOptions().WithMaxMessages(32).Clamped();
  EXPECT_EQ(clamped.max_messages, 32u) << "a non-zero max_messages survives the clamp";
  EXPECT_TRUE(clamped.enabled);
}

TEST(ChannelSpinClampTest, SingleCpuHostDoesNotSpin) {
  EXPECT_EQ(ProbeWindowForHost(1).count(), 0)
      << "spinning on a 1-CPU host delays the Push being waited for";
  EXPECT_GT(ProbeWindowForHost(2).count(), 0);
  EXPECT_EQ(ProbeWindowForHost(2), ProbeWindowForHost(64));
}

TEST(ChannelPushAllTest, PreservesFifoUnderOneLock) {
  Channel<int> ch;
  int items[] = {1, 2, 3, 4, 5};
  EXPECT_EQ(ch.PushAll(items, 5), 5u);
  std::vector<int> out;
  ASSERT_TRUE(ch.PopAll(out));
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(ChannelPushAllTest, ClosedChannelAcceptsNothing) {
  Channel<int> ch;
  ch.Close();
  int items[] = {1, 2};
  EXPECT_EQ(ch.PushAll(items, 2), 0u);
  EXPECT_EQ(ch.PushAll(items, 0), 0u);
}

// --- End-to-end over the threaded runtime -----------------------------------

std::vector<std::string> RunRmwWorkload(const SystemOptions& options, int n) {
  ThreadedHarness h(options);
  for (int i = 0; i < n; i++) {
    h.system().Load("key-" + std::to_string(i), "init");
  }
  BlockingClient client(h.system(), 1, /*seed=*/7);
  std::vector<std::string> finals;
  for (int i = 0; i < n; i++) {
    TxnPlan plan;
    plan.ops.push_back(Op::Rmw("key-" + std::to_string(i), "v" + std::to_string(i)));
    TxnOutcome outcome = client.ExecuteWithRetry(plan);
    EXPECT_EQ(outcome.result, TxnResult::kCommit) << "txn " << i;
  }
  h.transport().DrainForTesting();
  for (int i = 0; i < n; i++) {
    ReadResult r = h.system().ReadAtReplica(0, "key-" + std::to_string(i));
    finals.push_back(r.found ? r.value : "<missing>");
  }
  return finals;
}

TEST(BatchPipelineEndToEnd, BatchedAndUnbatchedRunsAgree) {
  SystemOptions batched = DefaultOptions(SystemKind::kMeerkat, /*cores=*/2);
  batched.retry = RetryPolicy::WithTimeout(2'000'000);

  SystemOptions unbatched = batched;
  unbatched.batching = BatchOptions().WithEnabled(false);

  std::vector<std::string> a = RunRmwWorkload(batched, 24);
  std::vector<std::string> b = RunRmwWorkload(unbatched, 24);
  EXPECT_EQ(a, b);
  for (int i = 0; i < 24; i++) {
    EXPECT_EQ(a[i], "v" + std::to_string(i));
  }
}

// --- Fault-matrix cells: faults on coalesced traffic stay per-message -------

// Runs one RMW under a scripted fault on ValidateRequest traffic with
// batching enabled and asserts (a) the rule fired, (b) the transaction still
// committed — i.e. dropping/duplicating/delaying a message that may ride a
// coalesced MsgBatch behaves exactly like the same fault on a lone message.
template <typename Harness>
void RunValidateFaultCell(const FaultPlan& plan, uint64_t expect_min_matches) {
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat, /*cores=*/2);
  options.retry = RetryPolicy::WithTimeout(2'000'000);
  options.fault_plan = plan;
  Harness h(options);
  h.system().Load("k", "v0");
  BlockingClient client(h.system(), 1, /*seed=*/7);
  TxnPlan txn;
  txn.ops.push_back(Op::Rmw("k", "v1"));
  TxnOutcome outcome = client.ExecuteWithRetry(txn);
  EXPECT_EQ(outcome.result, TxnResult::kCommit);
  EXPECT_GE(h.transport().faults().rule_matches(0), expect_min_matches)
      << "scripted rule never matched: vacuous cell";
  h.transport().DrainForTesting();
  EXPECT_EQ(h.system().ReadAtReplica(0, "k").value, "v1");
}

TEST(BatchFaultMatrix, ThreadedDropValidateInBatch) {
  RunValidateFaultCell<ThreadedHarness>(FaultPlan().WithSeed(5).DropNth(MsgKind::kValidateRequest, 2),
                                        /*expect_min_matches=*/2);
}

TEST(BatchFaultMatrix, ThreadedDuplicateValidateInBatch) {
  RunValidateFaultCell<ThreadedHarness>(
      FaultPlan().WithSeed(5).DuplicateNth(MsgKind::kValidateRequest, 2),
      /*expect_min_matches=*/2);
}

TEST(BatchFaultMatrix, ThreadedDelayValidateInBatch) {
  RunValidateFaultCell<ThreadedHarness>(
      FaultPlan().WithSeed(5).DelayNth(MsgKind::kValidateRequest, 2, /*delay_ns=*/1'000'000),
      /*expect_min_matches=*/2);
}

TEST(BatchFaultMatrix, UdpDropValidateInBatch) {
  RunValidateFaultCell<UdpHarness>(FaultPlan().WithSeed(5).DropNth(MsgKind::kValidateRequest, 2),
                                   /*expect_min_matches=*/2);
}

TEST(BatchFaultMatrix, UdpDuplicateValidateInBatch) {
  RunValidateFaultCell<UdpHarness>(
      FaultPlan().WithSeed(5).DuplicateNth(MsgKind::kValidateRequest, 2),
      /*expect_min_matches=*/2);
}

}  // namespace
}  // namespace meerkat
