// Failure-handling tests for the Meerkat protocol (paper §5.3), exercised
// under the deterministic simulator:
//
//  * Replica crash tolerance: the cluster keeps committing with f replicas
//    down (slow path forced when the fast quorum is unreachable).
//  * Epoch change: a restarted replica rejoins with no state and is rebuilt
//    from its peers; in-flight transactions are force-finalized by the merge;
//    the epoch fence prevents old-epoch commits.
//  * Coordinator recovery: a backup coordinator finishes an orphaned
//    transaction with a safe outcome; views arbitrate between coordinators.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "src/protocol/coordinator.h"
#include "src/protocol/replica.h"
#include "src/protocol/session.h"
#include "src/sim/sim_time_source.h"
#include "src/sim/simulator.h"
#include "src/transport/sim_transport.h"

namespace meerkat {
namespace {

constexpr size_t kCores = 2;

// A bare Meerkat cluster with direct replica access (the System facade hides
// recovery hooks by design).
class MeerkatClusterFixture : public ::testing::Test {
 protected:
  MeerkatClusterFixture()
      : sim_(CostModel{}), transport_(&sim_), time_source_(&sim_),
        quorum_(QuorumConfig::ForReplicas(3)) {
    for (ReplicaId r = 0; r < 3; r++) {
      replicas_.push_back(std::make_unique<MeerkatReplica>(r, quorum_, kCores, &transport_,
                                                           &time_source_));
    }
  }

  std::unique_ptr<MeerkatSession> MakeSession(uint32_t client_id) {
    SessionOptions options;
    options.quorum = quorum_;
    options.cores_per_replica = kCores;
    // Retries let clients ride out crashed replicas and epoch-change pauses.
    options.retry = RetryPolicy::WithTimeout(200'000);  // 200us of virtual time.
    return std::make_unique<MeerkatSession>(client_id, &transport_, &time_source_, options,
                                            client_id * 31 + 7);
  }

  TxnResult RunTxn(MeerkatSession& session, TxnPlan plan, uint64_t horizon_ns = 0) {
    std::optional<TxnResult> result;
    SimActor* actor = transport_.ActorFor(Address::Client(session.client_id()), 0);
    sim_.Schedule(sim_.now() + 1, actor, [&](SimContext&) {
      session.ExecuteAsync(std::move(plan),
                           [&result](const TxnOutcome& o) { result = o.result; });
    });
    if (horizon_ns == 0) {
      sim_.Run();
    } else {
      sim_.Run(sim_.now() + horizon_ns);
    }
    return result.value_or(TxnResult::kFailed);
  }

  void Load(const std::string& key, const std::string& value) {
    for (auto& replica : replicas_) {
      replica->LoadKey(key, value, Timestamp{1, 0});
    }
  }

  std::string ValueAt(ReplicaId r, const std::string& key) {
    ReadResult read = replicas_[r]->store().Read(key);
    return read.found ? read.value : std::string();
  }

  Simulator sim_;
  SimTransport transport_;
  SimTimeSource time_source_;
  QuorumConfig quorum_;
  std::vector<std::unique_ptr<MeerkatReplica>> replicas_;
};

TEST_F(MeerkatClusterFixture, CommitsWithOneReplicaCrashed) {
  Load("k", "v0");
  transport_.faults().CrashReplica(2);
  auto session = MakeSession(1);
  TxnPlan plan;
  plan.ops.push_back(Op::Rmw("k", "v1"));
  // Fast path needs all 3; with one down the coordinator times out into the
  // slow path and commits with a majority.
  EXPECT_EQ(RunTxn(*session, plan, /*horizon_ns=*/50'000'000), TxnResult::kCommit);
  EXPECT_EQ(session->stats().slow_path_commits, 1u);
  EXPECT_EQ(ValueAt(0, "k"), "v1");
  EXPECT_EQ(ValueAt(1, "k"), "v1");
  EXPECT_EQ(ValueAt(2, "k"), "v0");  // Crashed replica missed it.
}

TEST_F(MeerkatClusterFixture, EpochChangeRebuildsRestartedReplica) {
  Load("k", "v0");
  auto session = MakeSession(1);
  TxnPlan plan;
  plan.ops.push_back(Op::Rmw("k", "v1"));
  ASSERT_EQ(RunTxn(*session, plan), TxnResult::kCommit);

  // Replica 2 crashes, loses everything, and restarts.
  transport_.faults().CrashReplica(2);
  replicas_[2]->CrashAndRestart();
  EXPECT_EQ(ValueAt(2, "k"), "");

  // More commits happen while it is down.
  TxnPlan plan2;
  plan2.ops.push_back(Op::Rmw("k", "v2"));
  plan2.ops.push_back(Op::Put("j", "new"));
  ASSERT_EQ(RunTxn(*session, plan2, /*horizon_ns=*/50'000'000), TxnResult::kCommit);

  // It comes back and replica 0 runs the epoch change to readmit it.
  transport_.faults().RecoverReplica(2);
  replicas_[0]->InitiateEpochChange();
  sim_.Run();

  EXPECT_EQ(replicas_[2]->epoch(), 1u);
  EXPECT_FALSE(replicas_[2]->waiting_recovery());
  EXPECT_FALSE(replicas_[0]->epoch_change_in_progress());
  EXPECT_EQ(ValueAt(2, "k"), "v2");
  EXPECT_EQ(ValueAt(2, "j"), "new");

  // The rebuilt replica participates in new transactions again.
  TxnPlan plan3;
  plan3.ops.push_back(Op::Rmw("k", "v3"));
  EXPECT_EQ(RunTxn(*session, plan3, /*horizon_ns=*/50'000'000), TxnResult::kCommit);
  EXPECT_EQ(session->stats().fast_path_commits, 2u);  // Txn 1 and txn 3.
  EXPECT_EQ(ValueAt(2, "k"), "v3");
}

TEST_F(MeerkatClusterFixture, EpochChangeFinalizesInFlightValidatedTxn) {
  Load("k", "v0");
  // Orphan a transaction: validate everywhere, never commit (the coordinator
  // "fails" after collecting replies).
  struct Orphaner : TransportReceiver {
    void Receive(Message&&) override {}
  };
  Orphaner orphaner;
  transport_.RegisterClient(99, &orphaner);
  TxnId tid{99, 1};
  Timestamp ts{1000, 99};
  SimActor* actor = transport_.ActorFor(Address::Client(99), 0);
  sim_.Schedule(1, actor, [&](SimContext&) {
    for (ReplicaId r = 0; r < 3; r++) {
      Message msg;
      msg.src = Address::Client(99);
      msg.dst = Address::Replica(r);
      msg.core = 0;
      msg.payload = ValidateRequest{
          tid, ts, {{"k", Timestamp{1, 0}}}, {{"k", "orphan"}}};
      transport_.Send(std::move(msg));
    }
  });
  sim_.Run();
  ASSERT_EQ(replicas_[0]->trecord().Partition(0).Find(tid)->status, TxnStatus::kValidatedOk);

  // The orphan's pending writer registration currently blocks later readers
  // of "k" from validating (ts > MIN(writers)). Epoch change must decide it.
  replicas_[1]->InitiateEpochChange();
  sim_.Run();

  // VALIDATED-OK at a majority -> merge rule 3 commits it.
  for (ReplicaId r = 0; r < 3; r++) {
    TxnRecord* rec = replicas_[r]->trecord().Partition(0).Find(tid);
    ASSERT_NE(rec, nullptr) << "replica " << r;
    EXPECT_EQ(rec->status, TxnStatus::kCommitted) << "replica " << r;
    EXPECT_EQ(ValueAt(r, "k"), "orphan") << "replica " << r;
  }

  // And the key is usable again afterwards.
  auto session = MakeSession(1);
  TxnPlan plan;
  plan.ops.push_back(Op::Rmw("k", "after"));
  EXPECT_EQ(RunTxn(*session, plan, /*horizon_ns=*/50'000'000), TxnResult::kCommit);
}

TEST_F(MeerkatClusterFixture, StaleEpochChangeRequestIgnored) {
  replicas_[0]->InitiateEpochChange();
  sim_.Run();
  EXPECT_EQ(replicas_[0]->epoch(), 1u);
  EXPECT_EQ(replicas_[1]->epoch(), 1u);
  EXPECT_EQ(replicas_[2]->epoch(), 1u);
  // A second epoch change bumps to 2; replay of epoch-1 traffic must not
  // regress anything (Initiate computes epoch()+1 = 2).
  replicas_[1]->InitiateEpochChange();
  sim_.Run();
  EXPECT_EQ(replicas_[0]->epoch(), 2u);
  EXPECT_EQ(replicas_[2]->epoch(), 2u);
}

class CoordinatorRecoveryFixture : public MeerkatClusterFixture {
 protected:
  // Validates (and optionally slow-path-accepts) a transaction on all
  // replicas, then abandons it: the coordinator "crashes" before COMMIT.
  void OrphanTransaction(TxnId tid, Timestamp ts, bool with_accept) {
    transport_.RegisterClient(98, &sink_);
    SimActor* actor = transport_.ActorFor(Address::Client(98), 0);
    sim_.Schedule(sim_.now() + 1, actor, [this, tid, ts, with_accept](SimContext&) {
      for (ReplicaId r = 0; r < 3; r++) {
        Message msg;
        msg.src = Address::Client(98);
        msg.dst = Address::Replica(r);
        msg.core = 0;
        msg.payload = ValidateRequest{
            tid, ts, {{"k", Timestamp{1, 0}}}, {{"k", "orphan"}}};
        transport_.Send(std::move(msg));
      }
      if (with_accept) {
        for (ReplicaId r = 0; r < 3; r++) {
          Message msg;
          msg.src = Address::Client(98);
          msg.dst = Address::Replica(r);
          msg.core = 0;
          msg.payload = AcceptRequest{tid,
                                      /*view=*/0,
                                      /*commit=*/true,
                                      ts,
                                      {{"k", Timestamp{1, 0}}},
                                      {{"k", "orphan"}}};
          transport_.Send(std::move(msg));
        }
      }
    });
    sim_.Run();
  }

  struct Sink : TransportReceiver {
    void Receive(Message&&) override {}
  };
  Sink sink_;
};

TEST_F(CoordinatorRecoveryFixture, BackupCoordinatorCommitsOrphanedTxn) {
  Load("k", "v0");
  TxnId tid{98, 1};
  OrphanTransaction(tid, Timestamp{1000, 98}, /*with_accept=*/false);

  // A backup coordinator (hosted here on a test client endpoint) takes over
  // in view 1.
  struct Backup : TransportReceiver {
    std::unique_ptr<BackupCoordinator> coordinator;
    void Receive(Message&& msg) override {
      if (const auto* timer = std::get_if<TimerFire>(&msg.payload)) {
        coordinator->OnTimer(timer->timer_id);
        return;
      }
      coordinator->OnMessage(msg);
    }
  };
  Backup backup;
  transport_.RegisterClient(97, &backup);
  backup.coordinator = std::make_unique<BackupCoordinator>(
      &transport_, Address::Client(97), quorum_, /*core=*/0, tid, /*view=*/1,
      RetryPolicy::WithTimeout(200'000), /*timer_base=*/0);
  SimActor* actor = transport_.ActorFor(Address::Client(97), 0);
  sim_.Schedule(sim_.now() + 1, actor, [&](SimContext&) { backup.coordinator->Start(); });
  sim_.Run();
  ASSERT_TRUE(backup.coordinator->done());
  TxnResult outcome = backup.coordinator->outcome().result;

  // VALIDATED-OK at a majority: priority 3 says commit.
  EXPECT_EQ(outcome, TxnResult::kCommit);
  for (ReplicaId r = 0; r < 3; r++) {
    EXPECT_EQ(ValueAt(r, "k"), "orphan") << "replica " << r;
    EXPECT_EQ(replicas_[r]->trecord().Partition(0).Find(tid)->status, TxnStatus::kCommitted);
  }
}

TEST_F(CoordinatorRecoveryFixture, BackupCoordinatorAdoptsAcceptedOutcome) {
  Load("k", "v0");
  TxnId tid{98, 1};
  OrphanTransaction(tid, Timestamp{1000, 98}, /*with_accept=*/true);
  ASSERT_EQ(replicas_[0]->trecord().Partition(0).Find(tid)->status, TxnStatus::kAcceptCommit);

  struct Backup : TransportReceiver {
    std::unique_ptr<BackupCoordinator> coordinator;
    void Receive(Message&& msg) override {
      if (const auto* timer = std::get_if<TimerFire>(&msg.payload)) {
        coordinator->OnTimer(timer->timer_id);
        return;
      }
      coordinator->OnMessage(msg);
    }
  };
  Backup backup;
  transport_.RegisterClient(97, &backup);
  backup.coordinator = std::make_unique<BackupCoordinator>(
      &transport_, Address::Client(97), quorum_, /*core=*/0, tid, /*view=*/1,
      RetryPolicy::WithTimeout(200'000), /*timer_base=*/0);
  SimActor* actor = transport_.ActorFor(Address::Client(97), 0);
  sim_.Schedule(sim_.now() + 1, actor, [&](SimContext&) { backup.coordinator->Start(); });
  sim_.Run();
  ASSERT_TRUE(backup.coordinator->done());
  TxnResult outcome = backup.coordinator->outcome().result;

  // Priority 2: the accepted ACCEPT-COMMIT proposal must be preserved.
  EXPECT_EQ(outcome, TxnResult::kCommit);
  EXPECT_EQ(ValueAt(1, "k"), "orphan");
}

TEST_F(CoordinatorRecoveryFixture, HigherViewSupersedesOriginalCoordinator) {
  Load("k", "v0");
  TxnId tid{98, 1};
  // The replicas promise view 5 for this transaction.
  transport_.RegisterClient(96, &sink_);
  SimActor* actor = transport_.ActorFor(Address::Client(96), 0);
  sim_.Schedule(1, actor, [&](SimContext&) {
    for (ReplicaId r = 0; r < 3; r++) {
      Message msg;
      msg.src = Address::Client(96);
      msg.dst = Address::Replica(r);
      msg.core = 0;
      msg.payload = CoordChangeRequest{tid, 5};
      transport_.Send(std::move(msg));
    }
  });
  sim_.Run();

  // The original coordinator's view-0 ACCEPT must now be rejected.
  struct Probe : TransportReceiver {
    int ok = 0;
    int rejected = 0;
    void Receive(Message&& msg) override {
      if (const auto* reply = std::get_if<AcceptReply>(&msg.payload)) {
        (reply->ok ? ok : rejected)++;
      }
    }
  };
  Probe probe;
  transport_.RegisterClient(95, &probe);
  SimActor* probe_actor = transport_.ActorFor(Address::Client(95), 0);
  sim_.Schedule(sim_.now() + 1, probe_actor, [&](SimContext&) {
    for (ReplicaId r = 0; r < 3; r++) {
      Message msg;
      msg.src = Address::Client(95);
      msg.dst = Address::Replica(r);
      msg.core = 0;
      msg.payload = AcceptRequest{tid, /*view=*/0, /*commit=*/true, Timestamp{1000, 98}, {}, {}};
      transport_.Send(std::move(msg));
    }
  });
  sim_.Run();
  EXPECT_EQ(probe.ok, 0);
  EXPECT_EQ(probe.rejected, 3);
}

}  // namespace
}  // namespace meerkat
