// Unit tests for the storage layer: vstore, the OCC validation truth table
// (Algorithm 1), the write phase (Thomas write rule), and the trecord.

#include <gtest/gtest.h>

#include "src/common/metrics.h"
#include "src/store/occ.h"
#include "src/store/trecord.h"
#include "src/store/vstore.h"

namespace meerkat {
namespace {

Timestamp Ts(uint64_t t, uint32_t c = 1) { return Timestamp{t, c}; }

TEST(VStoreTest, ReadMissingKey) {
  VStore store;
  ReadResult r = store.Read("nope");
  EXPECT_FALSE(r.found);
}

TEST(VStoreTest, LoadAndRead) {
  VStore store;
  store.LoadKey("k", "v", Ts(5));
  ReadResult r = store.Read("k");
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.value, "v");
  EXPECT_EQ(r.wts, Ts(5));
}

TEST(VStoreTest, LoadIsThomasGuarded) {
  VStore store;
  store.LoadKey("k", "new", Ts(10));
  store.LoadKey("k", "old", Ts(5));  // Must not roll back.
  EXPECT_EQ(store.Read("k").value, "new");
  EXPECT_EQ(store.Read("k").wts, Ts(10));
}

TEST(VStoreTest, FindVsFindOrCreate) {
  VStore store;
  EXPECT_EQ(store.Find("k"), nullptr);
  KeyEntry* e = store.FindOrCreate("k");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(store.Find("k"), e);
  EXPECT_EQ(store.FindOrCreate("k"), e);
  // Entry exists but no committed version: reads miss.
  EXPECT_FALSE(store.Read("k").found);
}

TEST(VStoreTest, EntryPointersStableAcrossInserts) {
  VStore store(4);
  KeyEntry* first = store.FindOrCreate("stable");
  for (int i = 0; i < 10000; i++) {
    store.FindOrCreate("k" + std::to_string(i));
  }
  EXPECT_EQ(store.Find("stable"), first);
}

TEST(VStoreTest, ClearPendingAll) {
  VStore store;
  KeyEntry* e = store.FindOrCreate("k");
  e->readers.push_back(Ts(3));
  e->writers.push_back(Ts(4));
  store.ClearPendingAll();
  EXPECT_TRUE(e->readers.empty());
  EXPECT_TRUE(e->writers.empty());
}

TEST(VStoreTest, ForEachCommittedSkipsUncommitted) {
  VStore store;
  store.LoadKey("a", "1", Ts(2));
  store.FindOrCreate("pending-only");
  int count = 0;
  store.ForEachCommitted([&](const std::string& key, const std::string& value, Timestamp wts) {
    EXPECT_EQ(key, "a");
    EXPECT_EQ(value, "1");
    EXPECT_EQ(wts, Ts(2));
    count++;
  });
  EXPECT_EQ(count, 1);
}

TEST(KeyEntryTest, MinWriterMaxReader) {
  KeyEntry e;
  EXPECT_FALSE(e.MinWriter().Valid());
  EXPECT_FALSE(e.MaxReader().Valid());
  e.writers = {Ts(5), Ts(3), Ts(9)};
  e.readers = {Ts(2), Ts(7), Ts(4)};
  EXPECT_EQ(e.MinWriter(), Ts(3));
  EXPECT_EQ(e.MaxReader(), Ts(7));
  e.RemoveWriter(Ts(3));
  EXPECT_EQ(e.MinWriter(), Ts(5));
  e.RemoveReader(Ts(7));
  EXPECT_EQ(e.MaxReader(), Ts(4));
  e.RemoveReader(Ts(999));  // No-op.
  EXPECT_EQ(e.readers.size(), 2u);
}

// --- Algorithm 1 truth table ---

class OccFixture : public ::testing::Test {
 protected:
  void SetUp() override { store_.LoadKey("k", "v0", Ts(10)); }

  std::vector<ReadSetEntry> Reads(Timestamp read_wts) { return {{"k", read_wts}}; }
  std::vector<WriteSetEntry> Writes() { return {{"k", "v1"}}; }

  VStore store_;
};

TEST_F(OccFixture, CleanReadValidates) {
  EXPECT_EQ(OccValidate(store_, Reads(Ts(10)), {}, Ts(20)), TxnStatus::kValidatedOk);
  EXPECT_EQ(store_.Find("k")->readers.size(), 1u);
}

TEST_F(OccFixture, StaleReadAborts) {
  // Read version 5, but committed version is 10: e.wts > r.wts.
  EXPECT_EQ(OccValidate(store_, Reads(Ts(5)), {}, Ts(20)), TxnStatus::kValidatedAbort);
  EXPECT_TRUE(store_.Find("k")->readers.empty());
}

TEST_F(OccFixture, ReadAbortsWhenPendingEarlierWriterExists) {
  // A pending writer at ts 15 would invalidate a read serialized at 20.
  store_.Find("k")->writers.push_back(Ts(15));
  EXPECT_EQ(OccValidate(store_, Reads(Ts(10)), {}, Ts(20)), TxnStatus::kValidatedAbort);
}

TEST_F(OccFixture, ReadOkWhenPendingWriterIsLater) {
  // Pending writer at 30 does not affect a read at 20: MIN(writers) > ts.
  store_.Find("k")->writers.push_back(Ts(30));
  EXPECT_EQ(OccValidate(store_, Reads(Ts(10)), {}, Ts(20)), TxnStatus::kValidatedOk);
}

TEST_F(OccFixture, WriteAbortsUnderCommittedRead) {
  // rts = 25 means someone read version 10 at time 25; a write at 20 would
  // interpose under that read.
  store_.Find("k")->rts = Ts(25);
  EXPECT_EQ(OccValidate(store_, {}, Writes(), Ts(20)), TxnStatus::kValidatedAbort);
  EXPECT_TRUE(store_.Find("k")->writers.empty());
}

TEST_F(OccFixture, WriteAbortsUnderPendingRead) {
  store_.Find("k")->readers.push_back(Ts(25));
  EXPECT_EQ(OccValidate(store_, {}, Writes(), Ts(20)), TxnStatus::kValidatedAbort);
}

TEST_F(OccFixture, WriteOkOverEarlierReads) {
  store_.Find("k")->rts = Ts(15);
  store_.Find("k")->readers.push_back(Ts(18));
  EXPECT_EQ(OccValidate(store_, {}, Writes(), Ts(20)), TxnStatus::kValidatedOk);
  EXPECT_EQ(store_.Find("k")->writers.size(), 1u);
}

TEST_F(OccFixture, RmwDoesNotConflictWithItself) {
  // Same transaction reads and writes k: its own reader registration must not
  // abort its write (ts < ts is false).
  EXPECT_EQ(OccValidate(store_, Reads(Ts(10)), Writes(), Ts(20)), TxnStatus::kValidatedOk);
  EXPECT_EQ(store_.Find("k")->readers.size(), 1u);
  EXPECT_EQ(store_.Find("k")->writers.size(), 1u);
}

TEST_F(OccFixture, AbortBacksOutAllRegistrations) {
  // Two reads; the second is stale, so the first's registration must be
  // backed out too.
  store_.LoadKey("k2", "x", Ts(10));
  std::vector<ReadSetEntry> reads = {{"k", Ts(10)}, {"k2", Ts(4)}};
  EXPECT_EQ(OccValidate(store_, reads, {}, Ts(20)), TxnStatus::kValidatedAbort);
  EXPECT_TRUE(store_.Find("k")->readers.empty());
  EXPECT_TRUE(store_.Find("k2")->readers.empty());
}

TEST_F(OccFixture, WriteAbortBacksOutReadRegistrations) {
  store_.Find("k")->rts = Ts(50);
  store_.LoadKey("k2", "x", Ts(10));
  std::vector<ReadSetEntry> reads = {{"k2", Ts(10)}};
  EXPECT_EQ(OccValidate(store_, reads, Writes(), Ts(20)), TxnStatus::kValidatedAbort);
  EXPECT_TRUE(store_.Find("k2")->readers.empty());
  EXPECT_TRUE(store_.Find("k")->writers.empty());
}

TEST_F(OccFixture, CommitInstallsAndCleans) {
  ASSERT_EQ(OccValidate(store_, Reads(Ts(10)), Writes(), Ts(20)), TxnStatus::kValidatedOk);
  OccCommit(store_, Reads(Ts(10)), Writes(), Ts(20));
  KeyEntry* e = store_.Find("k");
  EXPECT_EQ(e->value, "v1");
  EXPECT_EQ(e->wts, Ts(20));
  EXPECT_EQ(e->rts, Ts(20));
  EXPECT_TRUE(e->readers.empty());
  EXPECT_TRUE(e->writers.empty());
}

TEST_F(OccFixture, CommitRespectsThomasWriteRule) {
  // A newer version (30) is already installed; committing an older write (20)
  // must clean up but not install.
  store_.LoadKey("k", "newer", Ts(30));
  ASSERT_EQ(OccValidate(store_, {}, Writes(), Ts(20)), TxnStatus::kValidatedOk);
  OccCommit(store_, {}, Writes(), Ts(20));
  EXPECT_EQ(store_.Find("k")->value, "newer");
  EXPECT_EQ(store_.Find("k")->wts, Ts(30));
  EXPECT_TRUE(store_.Find("k")->writers.empty());
}

TEST_F(OccFixture, CommitIsIdempotent) {
  ASSERT_EQ(OccValidate(store_, {}, Writes(), Ts(20)), TxnStatus::kValidatedOk);
  OccCommit(store_, {}, Writes(), Ts(20));
  OccCommit(store_, {}, Writes(), Ts(20));
  EXPECT_EQ(store_.Find("k")->wts, Ts(20));
  EXPECT_TRUE(store_.Find("k")->writers.empty());
}

TEST_F(OccFixture, CleanupRemovesWithoutInstalling) {
  ASSERT_EQ(OccValidate(store_, Reads(Ts(10)), Writes(), Ts(20)), TxnStatus::kValidatedOk);
  OccCleanup(store_, Reads(Ts(10)), Writes(), Ts(20));
  KeyEntry* e = store_.Find("k");
  EXPECT_EQ(e->value, "v0");
  EXPECT_EQ(e->wts, Ts(10));
  EXPECT_TRUE(e->readers.empty());
  EXPECT_TRUE(e->writers.empty());
}

TEST_F(OccFixture, CommitBumpsRtsMonotonically) {
  store_.Find("k")->rts = Ts(40);
  OccCommit(store_, Reads(Ts(10)), {}, Ts(20));
  EXPECT_EQ(store_.Find("k")->rts, Ts(40));  // Not rolled back.
}

TEST_F(OccFixture, RevalidateCommittedOnly) {
  EXPECT_EQ(OccRevalidateCommittedOnly(store_, Reads(Ts(10)), {}, Ts(20)),
            TxnStatus::kValidatedOk);
  EXPECT_EQ(OccRevalidateCommittedOnly(store_, Reads(Ts(5)), {}, Ts(20)),
            TxnStatus::kValidatedAbort);
  store_.Find("k")->rts = Ts(25);
  EXPECT_EQ(OccRevalidateCommittedOnly(store_, {}, Writes(), Ts(20)),
            TxnStatus::kValidatedAbort);
  // Unknown keys are fine (read of absent key is still current).
  EXPECT_EQ(OccRevalidateCommittedOnly(store_, {{"ghost", kInvalidTimestamp}}, {}, Ts(20)),
            TxnStatus::kValidatedOk);
}

TEST_F(OccFixture, ConflictingPairCannotBothValidate) {
  // The pairwise-conflict property Meerkat's correctness rests on (§5.4):
  // whichever of a conflicting (RMW, RMW) pair validates second must abort.
  auto reads = Reads(Ts(10));
  auto writes = Writes();
  ASSERT_EQ(OccValidate(store_, reads, writes, Ts(20)), TxnStatus::kValidatedOk);
  EXPECT_EQ(OccValidate(store_, reads, writes, Ts(21)), TxnStatus::kValidatedAbort);
  EXPECT_EQ(OccValidate(store_, reads, writes, Ts(19)), TxnStatus::kValidatedAbort);
}

// Property sweep: for random interleavings of two transactions on one key,
// at most one of a conflicting pair commits, for all timestamp orders.
class OccPairTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OccPairTest, AtMostOneOfConflictingPairCommits) {
  // Equal times are still distinct timestamps (client ids 1 vs 2 break ties).
  auto [t1, t2] = GetParam();
  VStore store;
  store.LoadKey("k", "v0", Ts(10));
  Timestamp read_version = Ts(10);
  std::vector<ReadSetEntry> reads = {{"k", read_version}};
  std::vector<WriteSetEntry> writes = {{"k", "w"}};

  TxnStatus s1 = OccValidate(store, reads, writes, Ts(static_cast<uint64_t>(t1), 1));
  TxnStatus s2 = OccValidate(store, reads, writes, Ts(static_cast<uint64_t>(t2), 2));
  EXPECT_FALSE(s1 == TxnStatus::kValidatedOk && s2 == TxnStatus::kValidatedOk)
      << "both validated at ts " << t1 << " and " << t2;
}

INSTANTIATE_TEST_SUITE_P(TimestampGrid, OccPairTest,
                         ::testing::Combine(::testing::Values(20, 30, 40),
                                            ::testing::Values(20, 30, 40)));

// --- trecord ---

TEST(TRecordTest, GetOrCreateFindErase) {
  TRecordPartition part;
  TxnId tid{1, 1};
  EXPECT_EQ(part.Find(tid), nullptr);
  TxnRecord& rec = part.GetOrCreate(tid);
  EXPECT_EQ(rec.tid, tid);
  EXPECT_EQ(part.Find(tid), &rec);
  EXPECT_EQ(part.Size(), 1u);
  // The trim step is the one erase path: a final record below W goes.
  part.SetTs(rec, Ts(10, 1));
  rec.status = TxnStatus::kCommitted;
  EXPECT_EQ(part.TrimBelow(Ts(11, 0)).trimmed, 1u);
  EXPECT_EQ(part.Find(tid), nullptr);
}

TEST(TRecordTest, PartitioningByCore) {
  TRecord trecord(4);
  EXPECT_EQ(trecord.NumPartitions(), 4u);
  trecord.Partition(0).GetOrCreate(TxnId{1, 1});
  trecord.Partition(1).GetOrCreate(TxnId{1, 2});
  trecord.Partition(5).GetOrCreate(TxnId{1, 3});  // Wraps to partition 1.
  EXPECT_EQ(trecord.Partition(0).Size(), 1u);
  EXPECT_EQ(trecord.Partition(1).Size(), 2u);
  EXPECT_EQ(trecord.TotalSize(), 3u);
}

TEST(TRecordTest, SnapshotRoundTripsThroughReplace) {
  TRecord trecord(2);
  TxnRecord& rec = trecord.Partition(1).GetOrCreate(TxnId{7, 42});
  rec.ts = Ts(99, 7);
  rec.status = TxnStatus::kValidatedOk;
  rec.view = 3;
  rec.accept_view = 2;
  rec.accepted = true;
  rec.sets = MakeTxnSets({{"a", Ts(1)}}, {{"b", "v"}});

  std::vector<TxnRecordSnapshot> snaps = trecord.SnapshotAll();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].core, 1u);
  EXPECT_EQ(snaps[0].ts, Ts(99, 7));
  EXPECT_TRUE(snaps[0].accepted);

  TRecord other(2);
  other.ReplaceAll(snaps);
  TxnRecord* restored = other.Partition(1).Find(TxnId{7, 42});
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->status, TxnStatus::kValidatedOk);
  EXPECT_EQ(restored->read_set().size(), 1u);
  EXPECT_EQ(restored->write_set()[0].value, "v");
  // Core-0 partition untouched.
  EXPECT_EQ(other.Partition(0).Size(), 0u);
}

TEST(TRecordTest, TrimStepSkipsMetricWritesWhenNothingTrims) {
  const uint64_t before_trimmed = SnapshotMetrics().CounterValue("trecord.records_trimmed");
  const int64_t before_live = SnapshotMetrics().GaugeValue("trecord.live_records");
  TRecordPartition part;
  TxnRecord& rec = part.GetOrCreate(TxnId{21, 1});
  part.SetTs(rec, Ts(100, 21));
  rec.status = TxnStatus::kCommitted;
  // Watermark below every record: nothing trims, and the zero-trim step must
  // not touch the counter or the gauge (hot maintenance loop, cold metrics).
  EXPECT_EQ(part.TrimBelow(Ts(50, 1)).trimmed, 0u);
  EXPECT_EQ(SnapshotMetrics().CounterValue("trecord.records_trimmed"), before_trimmed);
  EXPECT_EQ(SnapshotMetrics().GaugeValue("trecord.live_records"), before_live + 1);
  part.Clear();  // Rebalance the global gauge for other tests.
}

TEST(TRecordTest, ClearAccountsBulkChurn) {
  const uint64_t before_cleared = SnapshotMetrics().CounterValue("trecord.records_cleared");
  const int64_t before_live = SnapshotMetrics().GaugeValue("trecord.live_records");
  TRecordPartition part;
  part.GetOrCreate(TxnId{22, 1});
  part.GetOrCreate(TxnId{22, 2});
  part.GetOrCreate(TxnId{22, 3});
  part.Clear();
  // Bulk drops count as churn and bring the live gauge back to balance, so
  // created - erased - trimmed - cleared keeps matching the gauge.
  EXPECT_EQ(SnapshotMetrics().CounterValue("trecord.records_cleared"), before_cleared + 3);
  EXPECT_EQ(SnapshotMetrics().GaugeValue("trecord.live_records"), before_live);
  // Clearing an already-empty partition writes no metrics.
  part.Clear();
  EXPECT_EQ(SnapshotMetrics().CounterValue("trecord.records_cleared"), before_cleared + 3);
}

}  // namespace
}  // namespace meerkat
