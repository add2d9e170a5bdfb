// Online watermark GC (DESIGN.md §12): trim-step mechanics over the
// per-partition timestamp queue, the per-core watermark W = replica clock −
// horizon, the trimmed-duplicate answer branches (retransmitted
// VALIDATE/COMMIT for already-trimmed transactions), the orphan sweep
// driving cooperative termination, a
// simulator soak showing the trecord stays bounded, and two simulator runs
// the watermark must survive: a client that crashes mid-commit and a few
// hundred clients retransmitting through dropped VALIDATEs.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/dap_check.h"
#include "src/common/metrics.h"
#include "src/protocol/replica.h"
#include "src/protocol/session.h"
#include "src/sim/sim_time_source.h"
#include "src/transport/fault_injector.h"
#include "src/transport/sim_transport.h"
#include "tests/test_util.h"

namespace meerkat {
namespace {

// --- Trim step unit tests (bare partition) --------------------------------

TxnRecord& AddRecord(TRecordPartition& part, TxnId tid, Timestamp ts, TxnStatus status) {
  TxnRecord& rec = part.GetOrCreate(tid);
  part.SetTs(rec, ts);
  rec.status = status;
  return rec;
}

TEST(TrimStepTest, TrimsOnlyFinalizedStrictlyBelow) {
  TRecord trecord(1);
  TRecordPartition& part = trecord.Partition(0);
  AddRecord(part, {1, 1}, {10, 1}, TxnStatus::kCommitted);  // Below: trimmed.
  AddRecord(part, {1, 2}, {20, 1}, TxnStatus::kAborted);    // At W: kept (strict).
  AddRecord(part, {1, 3}, {30, 1}, TxnStatus::kCommitted);  // Above: kept.
  AddRecord(part, {1, 4}, {5, 1}, TxnStatus::kValidatedOk);  // Below but live: kept.

  auto res = part.TrimBelow(Timestamp{20, 1});
  EXPECT_EQ(res.trimmed, 1u);
  EXPECT_EQ(part.Find({1, 1}), nullptr);
  EXPECT_NE(part.Find({1, 2}), nullptr);
  EXPECT_NE(part.Find({1, 3}), nullptr);
  EXPECT_NE(part.Find({1, 4}), nullptr);
}

TEST(TrimStepTest, InvalidWatermarkIsANoop) {
  TRecord trecord(1);
  TRecordPartition& part = trecord.Partition(0);
  AddRecord(part, {1, 1}, {10, 1}, TxnStatus::kCommitted);
  auto res = part.TrimBelow(Timestamp{});
  EXPECT_EQ(res.trimmed, 0u);
  EXPECT_EQ(part.Size(), 1u);
}

// A step examines only the records that crossed the watermark, trimmed or
// not, and exports the count as gc.records_scanned.
TEST(TrimStepTest, ExaminesOnlyRecordsBelowTheWatermark) {
  TRecord trecord(1);
  TRecordPartition& part = trecord.Partition(0);
  constexpr uint32_t kRecords = 40;
  for (uint32_t i = 0; i < kRecords; i++) {
    // Every fourth record is below W and final; the rest stay.
    AddRecord(part, {2, i + 1}, {i % 4 == 0 ? 10u : 500u + i, 2}, TxnStatus::kCommitted);
  }
  const uint64_t before = SnapshotMetrics().CounterValue("gc.records_scanned");
  auto res = part.TrimBelow(Timestamp{100, 0});
  EXPECT_EQ(res.scanned, kRecords / 4);
  EXPECT_EQ(res.trimmed, kRecords / 4);
  EXPECT_EQ(SnapshotMetrics().CounterValue("gc.records_scanned") - before, kRecords / 4);
  // Nothing else crossed: the next step at the same watermark examines nothing.
  EXPECT_EQ(part.TrimBelow(Timestamp{100, 0}).scanned, 0u);
}

TEST(TrimStepTest, ReportsOrphansWithoutTrimmingThem) {
  TRecord trecord(1);
  TRecordPartition& part = trecord.Partition(0);
  AddRecord(part, {7, 1}, {10, 7}, TxnStatus::kValidatedOk);  // Stuck: orphan.
  TxnRecord& promoted = AddRecord(part, {7, 2}, {15, 7}, TxnStatus::kAcceptCommit);
  promoted.view = 3;  // The sweep must report the record's current view.
  AddRecord(part, {7, 3}, {95, 7}, TxnStatus::kValidatedOk);  // Above grace: live.
  AddRecord(part, {7, 4}, {10, 8}, TxnStatus::kCommitted);    // Final: trim, not orphan.

  std::vector<std::pair<TxnId, ViewNum>> orphans;
  auto res = part.TrimBelow(Timestamp{100, 0}, /*orphan_below=*/Timestamp{90, 0}, &orphans);
  EXPECT_EQ(res.trimmed, 1u);
  ASSERT_EQ(orphans.size(), 2u);
  // Orphans are reported but never erased: only consensus finalizes them.
  EXPECT_NE(part.Find({7, 1}), nullptr);
  EXPECT_NE(part.Find({7, 2}), nullptr);
  bool saw_promoted = false;
  for (const auto& [tid, view] : orphans) {
    if (tid == (TxnId{7, 2})) {
      saw_promoted = true;
      EXPECT_EQ(view, 3u);
    }
  }
  EXPECT_TRUE(saw_promoted);
}

// Held records (crossed W undecided) are re-checked at every step: reported
// again while they stay orphaned, and trimmed once a decision lands.
TEST(TrimStepTest, HeldRecordsTrimOnceDecided) {
  TRecord trecord(1);
  TRecordPartition& part = trecord.Partition(0);
  TxnRecord& stuck = AddRecord(part, {8, 1}, {10, 8}, TxnStatus::kValidatedOk);
  std::vector<std::pair<TxnId, ViewNum>> orphans;
  EXPECT_EQ(part.TrimBelow(Timestamp{100, 0}, Timestamp{90, 0}, &orphans).trimmed, 0u);
  EXPECT_EQ(orphans.size(), 1u);
  orphans.clear();
  EXPECT_EQ(part.TrimBelow(Timestamp{100, 0}, Timestamp{90, 0}, &orphans).scanned, 1u);
  EXPECT_EQ(orphans.size(), 1u);

  stuck.status = TxnStatus::kCommitted;
  orphans.clear();
  EXPECT_EQ(part.TrimBelow(Timestamp{100, 0}, Timestamp{90, 0}, &orphans).trimmed, 1u);
  EXPECT_TRUE(orphans.empty());
  EXPECT_EQ(part.Size(), 0u);
  EXPECT_EQ(part.TrimBelow(Timestamp{100, 0}).scanned, 0u) << "the held list kept a trimmed record";
}

// A backup coordinator that recovered no payload stamps an invalid ts: the
// record still trims once final (an invalid ts sorts below every W), and a
// later valid stamp replaces the first entry instead of trimming early.
TEST(TrimStepTest, InvalidTsRecordsTrimOnceFinal) {
  TRecord trecord(1);
  TRecordPartition& part = trecord.Partition(0);
  TxnRecord& blank = AddRecord(part, {6, 1}, Timestamp{}, TxnStatus::kAcceptAbort);
  part.SetTs(blank, Timestamp{});  // The COMMIT carries no ts either.
  EXPECT_EQ(part.TrimBelow(Timestamp{100, 0}).trimmed, 0u);
  blank.status = TxnStatus::kAborted;
  EXPECT_EQ(part.TrimBelow(Timestamp{100, 0}).trimmed, 1u);

  TxnRecord& late = AddRecord(part, {6, 2}, Timestamp{}, TxnStatus::kAcceptCommit);
  part.SetTs(late, Timestamp{500, 6});  // A COMMIT that carries the ts.
  late.status = TxnStatus::kCommitted;
  EXPECT_EQ(part.TrimBelow(Timestamp{200, 0}).trimmed, 0u);
  EXPECT_EQ(part.TrimBelow(Timestamp{600, 0}).trimmed, 1u);
  EXPECT_EQ(part.Size(), 0u);
}

// The queue orders records by ts whatever order they were stamped in;
// records adopted through ReplaceAll are queued like any other; and entries
// from before a Clear never reach the records created after it.
TEST(TrimStepTest, QueueFollowsTsOrderAcrossReplaceAndClear) {
  TRecord trecord(1);
  TRecordPartition& part = trecord.Partition(0);
  const uint64_t stamps[] = {70, 10, 50, 30, 90, 20, 80, 40, 60};
  for (uint32_t i = 0; i < 9; i++) {
    AddRecord(part, {3, i + 1}, {stamps[i], 3}, TxnStatus::kCommitted);
  }
  EXPECT_EQ(part.TrimBelow(Timestamp{45, 0}).trimmed, 4u);  // 10, 20, 30, 40.
  EXPECT_EQ(part.Size(), 5u);
  EXPECT_EQ(part.TrimBelow(Timestamp{100, 0}).trimmed, 5u);
  EXPECT_EQ(part.Size(), 0u);

  // Epoch adoption: the snapshot's records trim once W passes their ts.
  TxnRecordSnapshot adopted;
  adopted.tid = {4, 1};
  adopted.ts = {300, 4};
  adopted.status = TxnStatus::kAborted;
  adopted.core = 0;
  trecord.ReplaceAll({adopted});
  EXPECT_EQ(part.TrimBelow(Timestamp{200, 0}).trimmed, 0u);
  EXPECT_EQ(part.TrimBelow(Timestamp{400, 0}).trimmed, 1u);

  // A record queued under ts 500, cleared, then re-created under ts 900: the
  // step at 600 must not erase the new record on the old entry's account.
  AddRecord(part, {5, 1}, {500, 5}, TxnStatus::kCommitted);
  part.Clear();
  AddRecord(part, {5, 1}, {900, 5}, TxnStatus::kCommitted);
  auto res = part.TrimBelow(Timestamp{600, 0});
  EXPECT_EQ(res.scanned, 0u);
  EXPECT_NE(part.Find({5, 1}), nullptr);
  EXPECT_EQ(part.TrimBelow(Timestamp{1000, 0}).trimmed, 1u);
}

// --- Replica watermark behaviour (loopback, single replica) ---------------

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

// The replica's clock is a TestClock the tests move by hand; the horizon is
// 100 of its units, so W = now − 100 once now passes 100.
constexpr uint64_t kTestHorizon = 100;

class GcReplicaFixture : public ::testing::Test {
 protected:
  GcReplicaFixture() {
    replica_ = std::make_unique<MeerkatReplica>(
        0, QuorumConfig::ForReplicas(3), 2, &transport_, &clock_, /*group_base=*/0,
        RetryPolicy(), OverloadOptions(),
        GcOptions().WithHorizon(kTestHorizon));
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
    return ValidateRequest{
        tid, ts, {{"k", Timestamp{1, 0}}}, {{"k", "v" + std::to_string(ts.time)}}};
  }

  // One full fast-path transaction on core 0.
  void RunTxn(TxnId tid, Timestamp ts) {
    transport_.Inject(0, From(tid.client_id, 0, Validate(tid, ts)));
    transport_.Inject(0, From(tid.client_id, 0, CommitRequest{tid, true, ts}));
  }

  TxnRecord* Find(TxnId tid) { return replica_->trecord().Partition(0).Find(tid); }

  LoopbackTransport transport_;
  TestClock clock_;
  std::unique_ptr<MeerkatReplica> replica_;
};

TEST_F(GcReplicaFixture, WatermarkTrailsTheClockAndTrims) {
  RunTxn({1, 1}, {10, 1});
  // The clock has not run one horizon past its origin: no watermark, no trim.
  EXPECT_FALSE(replica_->core_watermark(0).Valid());
  EXPECT_NE(Find({1, 1}), nullptr);

  clock_.Set(115);
  RunTxn({1, 2}, {112, 1});
  EXPECT_EQ(replica_->core_watermark(0), (Timestamp{15, 0}));
  // The first transaction fell strictly below the watermark: trimmed.
  EXPECT_EQ(Find({1, 1}), nullptr);
  // The fresh one is inside the horizon: kept.
  EXPECT_NE(Find({1, 2}), nullptr);
  EXPECT_GE(replica_->gc_trim_passes(), 1u);
}

TEST_F(GcReplicaFixture, DuplicateValidateAfterTrimIsAnsweredAbortWithoutARecord) {
  RunTxn({1, 1}, {10, 1});
  clock_.Set(120);
  RunTxn({1, 2}, {115, 1});
  ASSERT_EQ(Find({1, 1}), nullptr);

  KeyEntry* entry = replica_->store().Find("k");
  size_t readers_before = entry->readers.size();

  // A straggling retransmission of the trimmed transaction's VALIDATE.
  transport_.Inject(0, From(1, 0, Validate({1, 1}, {10, 1})));
  const ValidateReply* reply = transport_.LastReply<ValidateReply>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->tid, (TxnId{1, 1}));
  EXPECT_EQ(reply->status, TxnStatus::kValidatedAbort);
  // Answered from the watermark: no record resurrected, no OCC registration.
  EXPECT_EQ(Find({1, 1}), nullptr);
  EXPECT_EQ(entry->readers.size(), readers_before);
}

TEST_F(GcReplicaFixture, StaleCommitForTrimmedTransactionIsDropped) {
  RunTxn({1, 1}, {10, 1});
  clock_.Set(120);
  RunTxn({1, 2}, {115, 1});
  ASSERT_EQ(Find({1, 1}), nullptr);

  std::string value = replica_->store().Read("k").value;
  // A straggling retransmission of the trimmed transaction's COMMIT. Without
  // the watermark check this resurrected the record forever (the unbounded-
  // growth bug).
  transport_.Inject(0, From(1, 0, CommitRequest{{1, 1}, true, {10, 1}}));
  EXPECT_EQ(Find({1, 1}), nullptr);
  // The store is untouched: its value was already installed (Thomas rule
  // would make a re-install idempotent anyway, but the drop never reaches it).
  EXPECT_EQ(replica_->store().Read("k").value, value);
}

TEST_F(GcReplicaFixture, CommitAboveWatermarkStillCreatesAndAdoptsStampedTs) {
  clock_.Set(120);
  RunTxn({1, 1}, {115, 1});
  ASSERT_EQ(replica_->core_watermark(0), (Timestamp{20, 0}));
  // COMMIT for a transaction this replica never validated, above W: must be
  // processed (the replica missed the VALIDATE, not the other way around),
  // and the record must adopt the stamped ts so it stays trimmable.
  transport_.Inject(0, From(2, 0, CommitRequest{{2, 1}, true, {30, 2}}));
  TxnRecord* rec = Find({2, 1});
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->status, TxnStatus::kCommitted);
  EXPECT_EQ(rec->ts, (Timestamp{30, 2}));

  // Advance the clock past it: the adopted ts makes it trimmable.
  clock_.Set(200);
  transport_.Inject(0, From(2, 0, Validate({2, 2}, {150, 2})));
  EXPECT_EQ(Find({2, 1}), nullptr);
}

TEST_F(GcReplicaFixture, WatermarkIsMonotoneUnderClockRegression) {
  clock_.Set(200);
  RunTxn({1, 1}, {190, 1});
  ASSERT_EQ(replica_->core_watermark(0), (Timestamp{100, 0}));

  // The clock steps back: the published watermark must not regress —
  // records below it are gone.
  clock_.Set(150);
  RunTxn({1, 2}, {195, 1});
  EXPECT_EQ(replica_->core_watermark(0), (Timestamp{100, 0}));
}

TEST_F(GcReplicaFixture, WatermarksAreIndependentPerCore) {
  clock_.Set(200);
  RunTxn({1, 1}, {190, 1});
  EXPECT_EQ(replica_->core_watermark(0), (Timestamp{100, 0}));
  // Core 1 saw no traffic and ran no GC step: its watermark is still invalid.
  EXPECT_FALSE(replica_->core_watermark(1).Valid());
}

TEST_F(GcReplicaFixture, CrashRestartKeepsTheClockWatermark) {
  clock_.Set(200);
  RunTxn({1, 1}, {190, 1});
  ASSERT_EQ(replica_->core_watermark(0), (Timestamp{100, 0}));
  // W derives from the clock alone, so a restart has no pre-crash input to
  // forget: the watermark stays, and the emptied trecord waits for the epoch
  // change that readmits the replica.
  replica_->CrashAndRestart();
  EXPECT_EQ(replica_->core_watermark(0), (Timestamp{100, 0}));
  EXPECT_EQ(replica_->trecord().TotalSize(), 0u);
}

// --- Orphan sweep drives cooperative termination (simulator) --------------

// Virtual-time layout: horizon 100 us, grace 100 us, so a non-final record is
// swept once the replica clock runs 200 us past its timestamp.
constexpr uint64_t kOrphanHorizon = 100'000;
constexpr uint64_t kOrphanGrace = 100'000;

class GcOrphanFixture : public ::testing::Test {
 protected:
  GcOrphanFixture() : sim_(CostModel{}), transport_(&sim_), time_source_(&sim_) {
    BuildReplicas(kOrphanGrace);
    transport_.RegisterClient(99, &sink_);
    transport_.RegisterClient(98, &sink_);
  }

  // (Re)builds the three replicas with the given orphan grace.
  void BuildReplicas(uint64_t grace) {
    replicas_.clear();
    for (ReplicaId r = 0; r < 3; r++) {
      // Only replica 1 runs the sweep, so exactly one backup coordinator
      // contends for the orphan (the multi-host case is arbitrated by views
      // and covered by GcHorizonTest below).
      GcOptions gc = r == 1 ? GcOptions().WithHorizon(kOrphanHorizon).WithOrphanGrace(grace)
                            : GcOptions().WithEnabled(false);
      replicas_.push_back(std::make_unique<MeerkatReplica>(
          r, QuorumConfig::ForReplicas(3), 2, &transport_, &time_source_, /*group_base=*/0,
          RetryPolicy(), OverloadOptions(), gc));
      replicas_.back()->LoadKey("k", "v0", Timestamp{1, 0});
      replicas_.back()->LoadKey("w", "w0", Timestamp{1, 0});
    }
  }

  // Sends `payload` from `client` to every replica at virtual time `at_ns`.
  // Callers stamp ts = {at_ns, client}: the time the client's clock reads as
  // it sends, exactly as a MeerkatSession stamps its transactions.
  void BroadcastAt(uint64_t at_ns, uint32_t client, Payload payload) {
    SimActor* actor = transport_.ActorFor(Address::Client(client), 0);
    sim_.Schedule(at_ns, actor, [this, client, payload](SimContext&) {
      for (ReplicaId r = 0; r < 3; r++) {
        Message msg;
        msg.src = Address::Client(client);
        msg.dst = Address::Replica(r);
        msg.core = 0;
        msg.payload = payload;
        transport_.Send(std::move(msg));
      }
    });
    sim_.Run();
  }

  // A live client's full transaction on "w" at `at_ns`.
  void FreshTxnAt(uint64_t at_ns) {
    TxnId fresh{98, 1};
    Timestamp ts{at_ns, 98};
    BroadcastAt(at_ns, 98, ValidateRequest{fresh, ts, {{"w", Timestamp{1, 0}}}, {{"w", "w1"}}});
    BroadcastAt(sim_.now() + 1, 98, CommitRequest{fresh, true, ts});
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

TEST_F(GcOrphanFixture, SweepRecoversOrphanAndClearsPendingRegistrations) {
  // Validate everywhere, then abandon (coordinator "crash" before deciding):
  // the orphan holds pending reader/writer registrations on "k".
  TxnId orphan{99, 1};
  constexpr uint64_t kOrphanAt = 10'000;
  BroadcastAt(
      kOrphanAt, 99,
      ValidateRequest{orphan, {kOrphanAt, 99}, {{"k", Timestamp{1, 0}}}, {{"k", "orphan"}}});
  ASSERT_EQ(replicas_[1]->trecord().Partition(0).Find(orphan)->status, TxnStatus::kValidatedOk);
  ASSERT_GT(replicas_[1]->store().PendingCountForTesting(), 0u);

  // A live client's traffic long after horizon + grace drives replica 1's GC
  // steps; its clock-derived watermark is far past the orphan (+grace), so
  // the sweep must start cooperative termination.
  FreshTxnAt(kOrphanAt + 4 * (kOrphanHorizon + kOrphanGrace));
  sim_.Run();

  // The orphan was VALIDATED-OK at a majority: cooperative termination must
  // commit it everywhere, finalization clears the vstore registrations, and
  // the hosted backup retires. On replica 1 the record may then be trimmed.
  for (ReplicaId r = 0; r < 3; r++) {
    TxnRecord* rec = replicas_[r]->trecord().Partition(0).Find(orphan);
    if (rec != nullptr) {
      EXPECT_EQ(rec->status, TxnStatus::kCommitted) << "replica " << r;
    } else {
      EXPECT_EQ(r, 1) << "only the trimming replica may have erased it";
    }
    EXPECT_EQ(replicas_[r]->store().Read("k").value, "orphan") << "replica " << r;
    EXPECT_EQ(replicas_[r]->store().PendingCountForTesting(), 0u) << "replica " << r;
  }
  EXPECT_EQ(replicas_[1]->hosted_backup_count(), 0u);
}

// Twelve clients die after VALIDATE on the same core. One sweep starts a
// recovery for each, and none is started twice: the backups' COMMITs queue
// behind each other on the core, and each swept tid stays cooled down for a
// grace period after its sweep, record or no record.
TEST_F(GcOrphanFixture, ManyOrphansOnOneCoreAreEachRecoveredOnce) {
  // A 1 ms grace: the simulated backlog twelve recoveries put on one core
  // outlasts the fixture's 100 us, and a sweep after a grace period has
  // passed is a legitimate retry.
  constexpr uint64_t kGrace = 1'000'000;
  constexpr uint32_t kOrphans = 12;
  constexpr uint64_t kOrphanAt = 10'000;
  BuildReplicas(kGrace);
  for (uint32_t i = 0; i < kOrphans; i++) {
    const uint32_t client = 100 + i;
    const std::string key = "orphan-key-" + std::to_string(i);
    transport_.RegisterClient(client, &sink_);
    for (auto& replica : replicas_) {
      replica->LoadKey(key, "v0", Timestamp{1, 0});
    }
    BroadcastAt(kOrphanAt + i, client,
                ValidateRequest{TxnId{client, 1},
                                {kOrphanAt + i, client},
                                {{key, Timestamp{1, 0}}},
                                {{key, "orphan-" + std::to_string(i)}}});
  }
  for (auto& replica : replicas_) {
    ASSERT_EQ(replica->store().PendingCountForTesting(), 2u * kOrphans);
  }

  const uint64_t before = SnapshotMetrics().CounterValue("gc.orphan_recoveries");
  FreshTxnAt(kOrphanAt + 4 * (kOrphanHorizon + kGrace));
  sim_.Run();

  EXPECT_EQ(SnapshotMetrics().CounterValue("gc.orphan_recoveries") - before, kOrphans);
  for (auto& replica : replicas_) {
    for (uint32_t i = 0; i < kOrphans; i++) {
      EXPECT_EQ(replica->store().Read("orphan-key-" + std::to_string(i)).value,
                "orphan-" + std::to_string(i))
          << "replica " << replica->id();
    }
    EXPECT_EQ(replica->store().PendingCountForTesting(), 0u) << "replica " << replica->id();
  }
}

TEST_F(GcOrphanFixture, LiveTransactionsInsideGraceAreLeftAlone) {
  // The fresh traffic at t puts W at t − horizon and the orphan threshold at
  // t − horizon − grace; a transaction stamped half a grace below W is below
  // the watermark but inside the grace window — a live coordinator may still
  // be driving it, so the sweep leaves it (and trimming skips non-final
  // records).
  constexpr uint64_t kFreshAt = 1'000'000;
  const uint64_t inflight_at = kFreshAt - kOrphanHorizon - kOrphanGrace / 2;
  TxnId inflight{99, 1};
  BroadcastAt(inflight_at, 99,
              ValidateRequest{inflight, {inflight_at, 99}, {{"k", Timestamp{1, 0}}}, {{"k", "x"}}});
  FreshTxnAt(kFreshAt);
  sim_.Run();

  EXPECT_EQ(replicas_[1]->hosted_backup_count(), 0u);
  EXPECT_EQ(replicas_[1]->trecord().Partition(0).Find(inflight)->status,
            TxnStatus::kValidatedOk);
}

// --- Soak: the trecord plateaus under a sustained session workload --------

TEST(GcSoakTest, TrecordStaysBoundedOverManyTransactions) {
  DapAudit::SetMode(DapMode::kCount);
  DapAudit::ResetViolations();
  Simulator sim(CostModel{});
  SimTransport transport(&sim);
  SimTimeSource time_source(&sim);
  std::vector<std::unique_ptr<MeerkatReplica>> replicas;
  for (ReplicaId r = 0; r < 3; r++) {
    // A transaction takes ~10 us of virtual time; a 100 us horizon keeps
    // about ten of them live.
    replicas.push_back(std::make_unique<MeerkatReplica>(
        r, QuorumConfig::ForReplicas(3), 2, &transport, &time_source, /*group_base=*/0,
        RetryPolicy(), OverloadOptions(),
        GcOptions().WithHorizon(100'000)));
    for (int k = 0; k < 8; k++) {
      replicas.back()->LoadKey("key" + std::to_string(k), "0", Timestamp{1, 0});
    }
  }
  SessionOptions options;
  options.quorum = QuorumConfig::ForReplicas(3);
  options.cores_per_replica = 2;
  MeerkatSession session(1, &transport, &time_source, options, 17);

  constexpr int kTxns = 400;
  int committed = 0;
  size_t peak = 0;
  const MetricsSnapshot before = SnapshotMetrics();
  for (int i = 0; i < kTxns; i++) {
    TxnPlan plan;
    plan.ops.push_back(Op::Put("key" + std::to_string(i % 8), std::to_string(i)));
    SimActor* actor = transport.ActorFor(Address::Client(1), 0);
    sim.Schedule(sim.now() + 1, actor, [&](SimContext&) {
      session.ExecuteAsync(std::move(plan), [&](const TxnOutcome& o) {
        if (o.result == TxnResult::kCommit) {
          committed++;
        }
      });
    });
    sim.Run();
    for (auto& replica : replicas) {
      peak = std::max(peak, replica->trecord().TotalSize());
    }
  }

  EXPECT_EQ(committed, kTxns);
  // Without GC every committed transaction leaves a record forever
  // (TotalSize == kTxns at each replica). With the watermark the live set
  // must plateau near the trim lag, far below the transaction count.
  EXPECT_LT(peak, static_cast<size_t>(kTxns) / 4) << "trecord did not plateau";
  uint64_t trim_passes = 0;
  for (auto& replica : replicas) {
    trim_passes += replica->gc_trim_passes();
    EXPECT_LT(replica->trecord().TotalSize(), static_cast<size_t>(kTxns) / 4);
  }
  EXPECT_GT(trim_passes, 0u);
  EXPECT_EQ(DapAudit::violations(), 0u) << "GC broke data-access parallelism";

  // What each reclaimed record cost the walk (EXPERIMENTS.md, GC soak).
  const MetricsSnapshot after = SnapshotMetrics();
  const uint64_t scanned = after.CounterValue("gc.records_scanned") -
                           before.CounterValue("gc.records_scanned");
  const uint64_t trimmed = after.CounterValue("trecord.records_trimmed") -
                           before.CounterValue("trecord.records_trimmed");
  ASSERT_GT(trimmed, 0u);
  EXPECT_GE(scanned, trimmed);
  RecordProperty("records_scanned", std::to_string(scanned));
  RecordProperty("records_trimmed", std::to_string(trimmed));
  std::printf("gc soak: %llu records scanned, %llu trimmed (%.2f scanned per trim)\n",
              static_cast<unsigned long long>(scanned), static_cast<unsigned long long>(trimmed),
              static_cast<double>(scanned) / static_cast<double>(trimmed));
}

// --- The watermark under client crashes and client counts ------------------

// Starts `plan` on `session` at virtual time `at_ns` and runs the simulator
// until nothing is left to do (the write phase included).
TxnOutcome RunTxnAt(Simulator& sim, SimTransport& transport, ClientSession& session,
                    uint64_t at_ns, TxnPlan plan) {
  TxnOutcome outcome;
  SimActor* actor = transport.ActorFor(Address::Client(session.client_id()), 0);
  sim.Schedule(at_ns, actor, [&](SimContext&) {
    session.ExecuteAsync(std::move(plan), [&outcome](const TxnOutcome& o) { outcome = o; });
  });
  sim.Run();
  return outcome;
}

// A real session dies as its first COMMIT leaves: every replica validated its
// transaction, none hears the decision. The watermark needs nothing from that
// client, so it keeps advancing on every core: once the clock runs horizon +
// grace past the orphan, the sweep terminates it everywhere, and the live
// client's records keep trimming on the cores the dead one used.
TEST(GcHorizonTest, CrashedClientIsTerminatedAndDoesNotPinTrimming) {
  constexpr uint64_t kHorizon = 1'000'000;
  constexpr uint64_t kGrace = 2'000'000;
  constexpr uint64_t kGap = 100'000;  // Virtual time between live transactions.
  constexpr int kLiveTxns = 80;       // 8 ms: well past horizon + grace.
  Simulator sim(CostModel{});
  SimTransport transport(&sim);
  SimTimeSource time_source(&sim);
  transport.fault_injector()->InstallPlan(
      FaultPlan().WithSeed(5).CrashSrcAtNth(MsgKind::kCommitRequest, 1, /*src_client=*/1));

  const RetryPolicy retry = RetryPolicy::WithTimeout(200'000);
  std::vector<std::unique_ptr<MeerkatReplica>> replicas;
  for (ReplicaId r = 0; r < 3; r++) {
    replicas.push_back(std::make_unique<MeerkatReplica>(
        r, QuorumConfig::ForReplicas(3), 2, &transport, &time_source, /*group_base=*/0, retry,
        OverloadOptions(),
        GcOptions().WithHorizon(kHorizon).WithOrphanGrace(kGrace)));
    replicas.back()->LoadKey("doomed", "v0", Timestamp{1, 0});
    for (int k = 0; k < 8; k++) {
      replicas.back()->LoadKey("live" + std::to_string(k), "0", Timestamp{1, 0});
    }
  }
  SessionOptions options;
  options.quorum = QuorumConfig::ForReplicas(3);
  options.cores_per_replica = 2;
  options.retry = retry;
  MeerkatSession doomed(1, &transport, &time_source, options, 3);
  MeerkatSession live(2, &transport, &time_source, options, 4);

  TxnPlan doomed_plan;
  doomed_plan.ops.push_back(Op::Put("doomed", "orphan"));
  RunTxnAt(sim, transport, doomed, sim.now() + 1, std::move(doomed_plan));
  ASSERT_EQ(transport.fault_injector()->rule_matches(0), 1u) << "the client never crashed";
  for (auto& replica : replicas) {
    ASSERT_GT(replica->store().PendingCountForTesting(), 0u) << "no orphan to recover";
  }

  int committed = 0;
  for (int i = 0; i < kLiveTxns; i++) {
    TxnPlan plan;
    plan.ops.push_back(Op::Put("live" + std::to_string(i % 8), std::to_string(i)));
    if (RunTxnAt(sim, transport, live, sim.now() + kGap, std::move(plan)).committed()) {
      committed++;
    }
  }
  EXPECT_EQ(committed, kLiveTxns);

  // Cooperative termination decided the orphan on every replica (all three
  // validated it, so the safe decision is commit) and released its pending
  // registrations; the record itself may already be trimmed.
  for (auto& replica : replicas) {
    EXPECT_EQ(replica->store().Read("doomed").value, "orphan") << "replica " << replica->id();
    EXPECT_EQ(replica->store().PendingCountForTesting(), 0u) << "replica " << replica->id();
    for (CoreId core = 0; core < 2; core++) {
      TxnRecord* rec = replica->trecord().Partition(core).Find(TxnId{1, 1});
      if (rec != nullptr) {
        EXPECT_EQ(rec->status, TxnStatus::kCommitted) << "replica " << replica->id();
      }
    }
    // Only the last horizon's worth of live transactions (~10) may remain on
    // any core; a pinned core would hold every live record it saw.
    EXPECT_LT(replica->trecord().TotalSize(), static_cast<size_t>(kLiveTxns) / 4)
        << "replica " << replica->id() << " stopped trimming";
  }
}

// Hundreds of clients, two cores per replica, dropped VALIDATEs and a
// deadline-bounded retry policy. CreateSystem raises the tiny configured
// horizon to the deadline plus the clocks' skew, so a retransmission of a
// transaction still inside its deadline is never answered from the
// watermark: no abort vote from W, no dropped first-delivery COMMIT, and
// every transaction commits. There is no per-client state to overflow.
TEST(GcHorizonTest, ManyClientsInsideDeadlineMeetNoStaleAnswers) {
  constexpr uint32_t kClients = 256;
  constexpr uint32_t kTxnsPerClient = 4;
  FaultPlan plan;
  plan.WithSeed(9);
  for (uint64_t k = 0; k < 96; k++) {
    plan.DropNth(MsgKind::kValidateRequest, 5 + 23 * k);
  }
  RetryPolicy retry = RetryPolicy::WithTimeout(500'000);
  retry.attempt_deadline_ns = 20'000'000;
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat)
                              .WithRetry(retry)
                              .WithClock({.max_skew_ns = 50'000, .jitter_ns = 1'000})
                              .WithFaultPlan(plan)
                              .WithGc(GcOptions().WithHorizon(1'000));
  SimHarness h(options);
  std::vector<std::unique_ptr<ClientSession>> sessions;
  for (uint32_t c = 1; c <= kClients; c++) {
    sessions.push_back(h.MakeSession(c, /*seed=*/c));
  }

  const MetricsSnapshot before = SnapshotMetrics();
  int decided = 0;
  int committed = 0;
  std::function<void(uint32_t, uint32_t)> launch = [&](uint32_t c, uint32_t t) {
    // A blind write of a key no other transaction touches: nothing can
    // abort it but a vote answered from the watermark.
    TxnPlan txn;
    txn.ops.push_back(Op::Put("key-" + std::to_string(c) + "-" + std::to_string(t), "v"));
    sessions[c - 1]->ExecuteAsync(std::move(txn), [&, c, t](const TxnOutcome& o) {
      decided += o.result != TxnResult::kFailed ? 1 : 0;
      committed += o.committed() ? 1 : 0;
      if (t < kTxnsPerClient) {
        launch(c, t + 1);
      }
    });
  };
  for (uint32_t c = 1; c <= kClients; c++) {
    SimActor* actor = h.transport().ActorFor(Address::Client(c), 0);
    h.sim().Schedule(h.sim().now() + 1, actor, [&launch, c](SimContext&) { launch(c, 1); });
  }
  h.sim().Run();
  const MetricsSnapshot after = SnapshotMetrics();

  EXPECT_GE(h.transport().fault_injector()->rule_matches(0), 1u) << "no VALIDATE was dropped";
  EXPECT_EQ(decided, static_cast<int>(kClients * kTxnsPerClient));
  EXPECT_EQ(committed, static_cast<int>(kClients * kTxnsPerClient));
  EXPECT_EQ(after.CounterValue("gc.stale_validates_answered"),
            before.CounterValue("gc.stale_validates_answered"));
  EXPECT_EQ(after.CounterValue("gc.stale_commits_dropped"),
            before.CounterValue("gc.stale_commits_dropped"));
}

}  // namespace
}  // namespace meerkat
