// Replica-initiated coordinator recovery (paper §5.3.2: replicas host backup
// coordinator processes and initiate coordinator changes for transactions
// whose coordinator appears to have failed).

#include <gtest/gtest.h>

#include "src/protocol/replica.h"
#include "src/sim/sim_time_source.h"
#include "src/transport/sim_transport.h"

namespace meerkat {
namespace {

class OrphanRecoveryFixture : public ::testing::Test {
 protected:
  OrphanRecoveryFixture() : sim_(CostModel{}), transport_(&sim_), time_source_(&sim_) {
    for (ReplicaId r = 0; r < 3; r++) {
      replicas_.push_back(std::make_unique<MeerkatReplica>(r, QuorumConfig::ForReplicas(3), 2,
                                                           &transport_, &time_source_));
      replicas_.back()->LoadKey("k", "v0", Timestamp{1, 0});
    }
    transport_.RegisterClient(99, &sink_);
  }

  // Validates a transaction everywhere, then abandons it (coordinator
  // "crash" before the decision).
  void Orphan(TxnId tid, Timestamp ts, const std::string& value) {
    SimActor* actor = transport_.ActorFor(Address::Client(99), 0);
    sim_.Schedule(sim_.now() + 1, actor, [this, tid, ts, value](SimContext&) {
      for (ReplicaId r = 0; r < 3; r++) {
        Message msg;
        msg.src = Address::Client(99);
        msg.dst = Address::Replica(r);
        msg.core = 0;
        msg.payload = ValidateRequest{tid, ts, {{"k", Timestamp{1, 0}}}, {{"k", value}}};
        transport_.Send(std::move(msg));
      }
    });
    sim_.Run();
  }

  struct Sink : TransportReceiver {
    void Receive(Message&&) override {}
  };

  Simulator sim_;
  SimTransport transport_;
  SimTimeSource time_source_;
  Sink sink_;
  std::vector<std::unique_ptr<MeerkatReplica>> replicas_;
};

TEST_F(OrphanRecoveryFixture, ReplicaFinishesOrphanedTransaction) {
  TxnId tid{99, 1};
  Orphan(tid, Timestamp{1000, 99}, "orphan");
  ASSERT_EQ(replicas_[1]->trecord().Partition(0).Find(tid)->status, TxnStatus::kValidatedOk);

  // Replica 1 notices the stale transaction and hosts a backup coordinator.
  EXPECT_EQ(replicas_[1]->RecoverOrphanedTransactions(Timestamp{UINT64_MAX, 0}), 1u);
  EXPECT_EQ(replicas_[1]->hosted_backup_count(), 1u);
  sim_.Run();

  // The transaction was VALIDATED-OK at a majority: it must commit, its
  // write must land, and the hosted coordinator must retire.
  for (ReplicaId r = 0; r < 3; r++) {
    EXPECT_EQ(replicas_[r]->trecord().Partition(0).Find(tid)->status, TxnStatus::kCommitted)
        << "replica " << r;
    EXPECT_EQ(replicas_[r]->store().Read("k").value, "orphan") << "replica " << r;
  }
  EXPECT_EQ(replicas_[1]->hosted_backup_count(), 0u);
}

TEST_F(OrphanRecoveryFixture, ChoosesViewDesignatingThisReplica) {
  TxnId tid{99, 1};
  Orphan(tid, Timestamp{1000, 99}, "orphan");
  // Replica 2's first eligible view is 2 (2 mod 3 == 2).
  EXPECT_EQ(replicas_[2]->RecoverOrphanedTransactions(Timestamp{UINT64_MAX, 0}), 1u);
  sim_.Run();
  TxnRecord* rec = replicas_[0]->trecord().Partition(0).Find(tid);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->status, TxnStatus::kCommitted);
  EXPECT_EQ(rec->accept_view % 3, 2u);  // Proposed by replica 2's view.
}

TEST_F(OrphanRecoveryFixture, FreshTransactionsAreNotRecovered) {
  TxnId tid{99, 1};
  Orphan(tid, Timestamp{5000, 99}, "in-flight");
  // Watermark below the transaction's timestamp: nothing is orphaned yet.
  EXPECT_EQ(replicas_[0]->RecoverOrphanedTransactions(Timestamp{4000, 0}), 0u);
  EXPECT_EQ(replicas_[0]->hosted_backup_count(), 0u);
  EXPECT_EQ(replicas_[0]->trecord().Partition(0).Find(tid)->status, TxnStatus::kValidatedOk);
}

TEST_F(OrphanRecoveryFixture, RepeatScanDoesNotDoubleRecover) {
  TxnId tid{99, 1};
  Orphan(tid, Timestamp{1000, 99}, "orphan");
  EXPECT_EQ(replicas_[0]->RecoverOrphanedTransactions(Timestamp{UINT64_MAX, 0}), 1u);
  // Second scan while the first recovery is still pending: no duplicate.
  EXPECT_EQ(replicas_[0]->RecoverOrphanedTransactions(Timestamp{UINT64_MAX, 0}), 0u);
  sim_.Run();
  EXPECT_EQ(replicas_[0]->trecord().Partition(0).Find(tid)->status, TxnStatus::kCommitted);
  // After completion a new scan finds nothing (the record is final).
  EXPECT_EQ(replicas_[0]->RecoverOrphanedTransactions(Timestamp{UINT64_MAX, 0}), 0u);
}

TEST_F(OrphanRecoveryFixture, MajorityAbortOrphanIsAborted) {
  // Make validation fail at every replica (stale read), then orphan it: the
  // recovery must settle on ABORT, and the key keeps its old value.
  for (auto& replica : replicas_) {
    replica->LoadKey("k", "newer", Timestamp{500, 7});
  }
  TxnId tid{99, 1};
  Orphan(tid, Timestamp{1000, 99}, "doomed");
  ASSERT_EQ(replicas_[0]->trecord().Partition(0).Find(tid)->status,
            TxnStatus::kValidatedAbort);
  EXPECT_EQ(replicas_[0]->RecoverOrphanedTransactions(Timestamp{UINT64_MAX, 0}), 1u);
  sim_.Run();
  for (ReplicaId r = 0; r < 3; r++) {
    EXPECT_EQ(replicas_[r]->trecord().Partition(0).Find(tid)->status, TxnStatus::kAborted);
    EXPECT_EQ(replicas_[r]->store().Read("k").value, "newer");
  }
}

}  // namespace
}  // namespace meerkat
