// Unit tests for MeerkatReplica's message handlers, driven directly through
// a loopback transport that records replies.

#include <gtest/gtest.h>

#include <memory>

#include "src/protocol/replica.h"
#include "tests/test_util.h"

namespace meerkat {
namespace {

// Captures everything; delivers replica-bound traffic to the replica
// synchronously so a test can poke one replica in isolation.
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

  void Send(Message msg) override {
    if (msg.dst.kind == Address::Kind::kReplica && msg.dst.id == 0 && !deliver_loopback_) {
      // Replies and self-messages: record only.
      sent.push_back(std::move(msg));
      return;
    }
    sent.push_back(std::move(msg));
  }

  // Inject a message as if it arrived from the network.
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
  bool deliver_loopback_ = false;

 private:
  std::vector<TransportReceiver*> receivers_;
};

class ReplicaFixture : public ::testing::Test {
 protected:
  ReplicaFixture() {
    replica_ = std::make_unique<MeerkatReplica>(0, QuorumConfig::ForReplicas(3), 2, &transport_,
                                                &clock_);
    replica_->LoadKey("k", "v0", Timestamp{1, 0});
  }

  Message From(uint32_t client, CoreId core, Payload payload) {
    Message msg;
    msg.src = Address::Client(client);
    msg.dst = Address::Replica(0);
    msg.core = core;
    msg.payload = std::move(payload);
    return msg;
  }

  ValidateRequest Validate(TxnId tid, Timestamp ts) {
    return ValidateRequest{tid, ts, {{"k", Timestamp{1, 0}}}, {{"k", "new"}}};
  }

  LoopbackTransport transport_;
  TestClock clock_;
  std::unique_ptr<MeerkatReplica> replica_;
};

TEST_F(ReplicaFixture, GetReturnsValueAndVersion) {
  transport_.Inject(0, From(1, 0, GetRequest{{1, 1}, 5, "k"}));
  const GetReply* reply = transport_.LastReply<GetReply>();
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->found);
  EXPECT_EQ(reply->value, "v0");
  EXPECT_EQ(reply->wts, (Timestamp{1, 0}));
  EXPECT_EQ(reply->req_seq, 5u);
}

TEST_F(ReplicaFixture, ValidateOkRegistersAndRecords) {
  transport_.Inject(1, From(1, 1, Validate({1, 1}, {50, 1})));
  const ValidateReply* reply = transport_.LastReply<ValidateReply>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->status, TxnStatus::kValidatedOk);
  EXPECT_EQ(reply->epoch, 0u);
  // Record landed in the *core-1* partition.
  EXPECT_NE(replica_->trecord().Partition(1).Find({1, 1}), nullptr);
  EXPECT_EQ(replica_->trecord().Partition(0).Find({1, 1}), nullptr);
  // Registrations exist.
  KeyEntry* entry = replica_->store().Find("k");
  EXPECT_EQ(entry->readers.size(), 1u);
  EXPECT_EQ(entry->writers.size(), 1u);
}

TEST_F(ReplicaFixture, DuplicateValidateRepliesRecordedVoteWithoutReRegistering) {
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1})));
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1})));
  const ValidateReply* reply = transport_.LastReply<ValidateReply>();
  EXPECT_EQ(reply->status, TxnStatus::kValidatedOk);
  KeyEntry* entry = replica_->store().Find("k");
  EXPECT_EQ(entry->readers.size(), 1u) << "duplicate validate double-registered";
  EXPECT_EQ(entry->writers.size(), 1u);
}

TEST_F(ReplicaFixture, CommitInstallsAndCleansUp) {
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1})));
  transport_.Inject(0, From(1, 0, CommitRequest{{1, 1}, true}));
  EXPECT_EQ(replica_->store().Read("k").value, "new");
  EXPECT_EQ(replica_->store().Read("k").wts, (Timestamp{50, 1}));
  KeyEntry* entry = replica_->store().Find("k");
  EXPECT_TRUE(entry->readers.empty());
  EXPECT_TRUE(entry->writers.empty());
  EXPECT_EQ(replica_->trecord().Partition(0).Find({1, 1})->status, TxnStatus::kCommitted);
  // Duplicate commit: no effect.
  transport_.Inject(0, From(1, 0, CommitRequest{{1, 1}, true}));
  EXPECT_EQ(replica_->store().Read("k").value, "new");
}

TEST_F(ReplicaFixture, AbortCleansUpWithoutInstalling) {
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1})));
  transport_.Inject(0, From(1, 0, CommitRequest{{1, 1}, false}));
  EXPECT_EQ(replica_->store().Read("k").value, "v0");
  KeyEntry* entry = replica_->store().Find("k");
  EXPECT_TRUE(entry->readers.empty());
  EXPECT_TRUE(entry->writers.empty());
  EXPECT_EQ(replica_->trecord().Partition(0).Find({1, 1})->status, TxnStatus::kAborted);
}

TEST_F(ReplicaFixture, AcceptRespectsViewOrdering) {
  // Promise view 5 via a coordinator change.
  transport_.Inject(0, From(9, 0, CoordChangeRequest{{1, 1}, 5}));
  const CoordChangeAck* promise = transport_.LastReply<CoordChangeAck>();
  ASSERT_NE(promise, nullptr);
  EXPECT_TRUE(promise->ok);

  // A view-3 accept is rejected; view-6 is accepted.
  transport_.Inject(0, From(9, 0, AcceptRequest{{1, 1}, 3, true, {50, 1}, {}, {{"k", "x"}}}));
  EXPECT_FALSE(transport_.LastReply<AcceptReply>()->ok);
  transport_.Inject(0, From(9, 0, AcceptRequest{{1, 1}, 6, true, {50, 1}, {}, {{"k", "x"}}}));
  EXPECT_TRUE(transport_.LastReply<AcceptReply>()->ok);
  TxnRecord* rec = replica_->trecord().Partition(0).Find({1, 1});
  EXPECT_EQ(rec->status, TxnStatus::kAcceptCommit);
  EXPECT_EQ(rec->accept_view, 6u);
  EXPECT_TRUE(rec->accepted);
}

TEST_F(ReplicaFixture, AcceptOnFinalizedRecordAgreesOrRejects) {
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1})));
  transport_.Inject(0, From(1, 0, CommitRequest{{1, 1}, true}));
  transport_.Inject(0, From(9, 0, AcceptRequest{{1, 1}, 2, true, {50, 1}, {}, {}}));
  EXPECT_TRUE(transport_.LastReply<AcceptReply>()->ok);  // Agrees with COMMITTED.
  transport_.Inject(0, From(9, 0, AcceptRequest{{1, 1}, 3, false, {50, 1}, {}, {}}));
  EXPECT_FALSE(transport_.LastReply<AcceptReply>()->ok);  // Contradicts it.
}

TEST_F(ReplicaFixture, AcceptTeachesUnknownTransaction) {
  // A replica that missed VALIDATE learns the payload from ACCEPT and can
  // then apply the commit.
  transport_.Inject(0, From(9, 0, AcceptRequest{{7, 7}, 0, true, {60, 2}, {}, {{"k", "taught"}}}));
  EXPECT_TRUE(transport_.LastReply<AcceptReply>()->ok);
  transport_.Inject(0, From(9, 0, CommitRequest{{7, 7}, true}));
  EXPECT_EQ(replica_->store().Read("k").value, "taught");
}

TEST_F(ReplicaFixture, CoordChangeReturnsRecordSnapshot) {
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1})));
  transport_.Inject(0, From(9, 0, CoordChangeRequest{{1, 1}, 2}));
  const CoordChangeAck* ack = transport_.LastReply<CoordChangeAck>();
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->ok);
  ASSERT_TRUE(ack->has_record);
  EXPECT_EQ(ack->record.status, TxnStatus::kValidatedOk);
  EXPECT_EQ(ack->record.ts, (Timestamp{50, 1}));
  ASSERT_EQ(ack->record.write_set.size(), 1u);

  // A lower-view change is now rejected and reports the promised view.
  transport_.Inject(0, From(8, 0, CoordChangeRequest{{1, 1}, 1}));
  const CoordChangeAck* nack = transport_.LastReply<CoordChangeAck>();
  EXPECT_FALSE(nack->ok);
  EXPECT_EQ(nack->view, 2u);
}

TEST_F(ReplicaFixture, RecoveringReplicaServesNothing) {
  replica_->CrashAndRestart();
  ASSERT_TRUE(replica_->waiting_recovery());
  size_t sent_before = transport_.sent.size();
  transport_.Inject(0, From(1, 0, GetRequest{{1, 1}, 1, "k"}));
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1})));
  EXPECT_EQ(transport_.sent.size(), sent_before) << "recovering replica answered traffic";
  EXPECT_FALSE(replica_->store().Read("k").found);
}

TEST_F(ReplicaFixture, ValidationPausedDuringEpochChange) {
  // Deliver an epoch-change request from a peer: the replica acks and stops
  // validating until the change completes.
  Message ec;
  ec.src = Address::Replica(1);
  ec.dst = Address::Replica(0);
  ec.core = 0;
  ec.payload = EpochChangeRequest{1};
  transport_.Inject(0, std::move(ec));
  EXPECT_TRUE(replica_->epoch_change_in_progress());
  EXPECT_EQ(replica_->epoch(), 1u);
  const EpochChangeAck* ack = transport_.LastReply<EpochChangeAck>();
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->epoch, 1u);
  EXPECT_FALSE(ack->recovering);
  ASSERT_EQ(ack->store_state.size(), 1u);
  EXPECT_EQ(ack->store_state[0].key, "k");

  size_t sent_before = transport_.sent.size();
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1})));
  EXPECT_EQ(transport_.sent.size(), sent_before) << "validated during epoch change";
  // Reads stay available (the paper pauses only validation).
  transport_.Inject(0, From(1, 0, GetRequest{{1, 1}, 1, "k"}));
  EXPECT_GT(transport_.sent.size(), sent_before);

  // Completion resumes validation.
  Message complete;
  complete.src = Address::Replica(1);
  complete.dst = Address::Replica(0);
  complete.core = 0;
  complete.payload = EpochChangeComplete{1, {}, {}, {}};
  transport_.Inject(0, std::move(complete));
  EXPECT_FALSE(replica_->epoch_change_in_progress());
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {50, 1})));
  EXPECT_EQ(transport_.LastReply<ValidateReply>()->epoch, 1u);
}

}  // namespace
}  // namespace meerkat
