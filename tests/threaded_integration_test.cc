// Threaded-runtime integration tests: real threads and locks under
// progressively nastier network conditions, larger quorums (f = 2), epoch
// change concurrent with live traffic, and trecord checkpointing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "src/api/blocking_client.h"
#include "src/common/dap_check.h"
#include "src/protocol/replica.h"
#include "src/protocol/session.h"
#include "src/workload/driver.h"
#include "src/workload/ycsb_t.h"
#include "tests/serializability_checker.h"
#include "tests/test_util.h"
#include "tests/trace_dump_on_failure.h"
#include "tests/zcp_conformance.h"

namespace meerkat {
namespace {

// Sweep message-drop probability: the protocol must mask loss with
// retransmissions and stay serializable.
class LossyNetworkTest : public ::testing::TestWithParam<double> {};

TEST_P(LossyNetworkTest, MeerkatSurvivesDrops) {
  double drop = GetParam();
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat, /*cores=*/2);
  options.retry = RetryPolicy::WithTimeout(2'000'000);
  ThreadedHarness h(options);
  h.transport().faults().SetDropProbability(drop);
  h.transport().faults().SetDuplicateProbability(drop);
  h.transport().faults().SetMaxExtraDelay(1'000'000);

  YcsbTOptions y;
  y.num_keys = 64;
  y.key_size = 8;
  y.value_size = 8;
  YcsbTWorkload workload(y);

  SerializabilityChecker checker;
  workload.ForEachInitialKey([&](const std::string& key, const std::string& value) {
    h.system().Load(key, value);
    checker.RecordLoadedKey(key);
  });

  ThreadedRunOptions run;
  run.num_clients = 3;
  run.duration_ms = 250;
  run.load_initial_keys = false;
  run.on_txn_done = [&checker](ClientSession& session, const TxnOutcome& outcome) {
    if (outcome.committed()) {
      checker.RecordCommit(session);
    }
  };
  RunResult result = RunThreadedWorkload(h.system(), workload, run);

  EXPECT_GT(result.stats.committed, 5u) << "no progress under drop=" << drop;
  std::vector<std::string> violations = checker.Check();
  for (const std::string& v : violations) {
    ADD_FAILURE() << v;
  }
}

INSTANTIATE_TEST_SUITE_P(DropRates, LossyNetworkTest, ::testing::Values(0.01, 0.05, 0.15),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "drop" + std::to_string(static_cast<int>(info.param * 100));
                         });

TEST(FiveReplicaTest, FastAndSlowPathQuorums) {
  // n=5 (f=2): the fast path needs 4 matching votes; with one replica down it
  // is still reachable; with two down the slow path (3 votes) still commits.
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat, /*cores=*/2, /*replicas=*/5);
  // The first commit must take the fast path, so the validate timer must not
  // fire before the fourth vote lands. On a host oversubscribed by parallel
  // test runs, a 2 ms timer beat that vote in 12-19% of runs.
  options.retry = RetryPolicy::WithTimeout(20'000'000);
  ThreadedHarness h(options);
  h.system().Load("k", "v0");

  BlockingClient client(h.system(), 1);
  TxnPlan plan;
  plan.ops.push_back(Op::Rmw("k", "v1"));
  ASSERT_EQ(client.ExecuteWithRetry(plan).result, TxnResult::kCommit);
  EXPECT_GE(client.session().stats().fast_path_commits, 1u);

  h.transport().faults().CrashReplica(4);
  TxnPlan plan2;
  plan2.ops.push_back(Op::Rmw("k", "v2"));
  ASSERT_EQ(client.ExecuteWithRetry(plan2).result, TxnResult::kCommit);

  h.transport().faults().CrashReplica(3);
  TxnPlan plan3;
  plan3.ops.push_back(Op::Rmw("k", "v3"));
  ASSERT_EQ(client.ExecuteWithRetry(plan3).result, TxnResult::kCommit);
  // With 3 of 5 alive the fast quorum (4) is unreachable: that commit must
  // have used the slow path.
  EXPECT_GE(client.session().stats().slow_path_commits, 1u);
  // The commit callback races the asynchronous write phase at the replicas;
  // drain before reading replica 0's store directly.
  h.transport().DrainForTesting();
  EXPECT_EQ(h.system().ReadAtReplica(0, "k").value, "v3");
}

TEST(EpochChangeUnderTrafficTest, TrafficResumesAfterChange) {
  // Direct replica construction for recovery hooks.
  ThreadedTransport transport;
  SystemTimeSource time_source;
  QuorumConfig quorum = QuorumConfig::ForReplicas(3);
  std::vector<std::unique_ptr<MeerkatReplica>> replicas;
  for (ReplicaId r = 0; r < 3; r++) {
    replicas.push_back(std::make_unique<MeerkatReplica>(r, quorum, 2, &transport, &time_source));
    replicas.back()->LoadKey("hot", "0", Timestamp{1, 0});
  }

  SessionOptions session_options;
  session_options.quorum = quorum;
  session_options.cores_per_replica = 2;
  session_options.retry = RetryPolicy::WithTimeout(2'000'000);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::thread worker([&] {
    MeerkatSession session(1, &transport, &time_source, session_options, 3);
    std::mutex mu;
    std::condition_variable cv;
    while (!stop.load(std::memory_order_acquire)) {
      bool done = false;
      TxnPlan plan;
      plan.ops.push_back(Op::Rmw("hot", "x"));
      // ExecuteAsync outside mu: the session locks itself, and the completion
      // callback takes mu while holding that lock (same order as
      // BlockingClient::Execute).
      session.ExecuteAsync(plan, [&](const TxnOutcome& o) {
        if (o.committed()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> inner(mu);
        done = true;
        cv.notify_one();
      });
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done; });
    }
  });

  // Let traffic flow, run an epoch change mid-stream, let traffic continue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  uint64_t before = commits.load();
  EXPECT_GT(before, 0u);
  replicas[0]->InitiateEpochChange();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true, std::memory_order_release);
  worker.join();

  EXPECT_GT(commits.load(), before) << "no commits after the epoch change";
  for (auto& replica : replicas) {
    EXPECT_EQ(replica->epoch(), 1u);
    EXPECT_FALSE(replica->epoch_change_in_progress());
  }
  transport.Stop();
}

// Checkpoint through the production trim path: one trim step per partition
// at watermark `below`. The audit is suspended because the caller stands in
// for every core at once (the cores are quiesced, as in any maintenance
// window).
size_t TrimAllFinalBelow(TRecord& trecord, Timestamp below) {
  DapAuditSuspend suspend;
  size_t trimmed = 0;
  for (size_t core = 0; core < trecord.NumPartitions(); core++) {
    trimmed += trecord.Partition(static_cast<CoreId>(core)).TrimBelow(below).trimmed;
  }
  return trimmed;
}

TEST(TrecordCheckpointTest, TrimStepDropsOnlyOldFinalRecords) {
  TRecord trecord(2);
  auto add = [&trecord](uint64_t seq, TxnStatus status, uint64_t time) {
    TRecordPartition& part = trecord.Partition(seq % 2);
    TxnRecord& rec = part.GetOrCreate(TxnId{1, seq});
    rec.status = status;
    part.SetTs(rec, Timestamp{time, 1});
  };
  add(1, TxnStatus::kCommitted, 100);
  add(2, TxnStatus::kAborted, 200);
  add(3, TxnStatus::kCommitted, 900);      // Newer than the watermark.
  add(4, TxnStatus::kValidatedOk, 100);    // In-flight: never trimmed.
  add(5, TxnStatus::kAcceptCommit, 100);   // In-flight consensus state: kept.

  EXPECT_EQ(TrimAllFinalBelow(trecord, Timestamp{500, 9}), 2u);
  EXPECT_EQ(trecord.TotalSize(), 3u);
  EXPECT_EQ(trecord.Partition(1).Find(TxnId{1, 1}), nullptr);
  EXPECT_EQ(trecord.Partition(0).Find(TxnId{1, 2}), nullptr);
  EXPECT_NE(trecord.Partition(1).Find(TxnId{1, 3}), nullptr);
  EXPECT_NE(trecord.Partition(0).Find(TxnId{1, 4}), nullptr);
  EXPECT_NE(trecord.Partition(1).Find(TxnId{1, 5}), nullptr);
}

TEST(TrecordCheckpointTest, TrimmedReplicaStillServesTraffic) {
  ThreadedTransport transport;
  SystemTimeSource time_source;
  QuorumConfig quorum = QuorumConfig::ForReplicas(3);
  std::vector<std::unique_ptr<MeerkatReplica>> replicas;
  for (ReplicaId r = 0; r < 3; r++) {
    // The online GC is off so the checkpoint below is the only trimmer.
    replicas.push_back(std::make_unique<MeerkatReplica>(
        r, quorum, 2, &transport, &time_source, /*group_base=*/0, RetryPolicy(),
        OverloadOptions(), GcOptions().WithEnabled(false)));
    replicas.back()->LoadKey("k", "0", Timestamp{1, 0});
  }

  SessionOptions session_options;
  session_options.quorum = quorum;
  session_options.cores_per_replica = 2;
  session_options.retry = RetryPolicy::WithTimeout(2'000'000);
  MeerkatSession session(1, &transport, &time_source, session_options, 3);
  std::mutex mu;
  std::condition_variable cv;
  // OCC: an abort is legal when a transaction validates before the previous
  // commit's write has applied on every replica core, so re-execute on abort
  // the way a real client does — this test is about checkpointing, not
  // abort-freedom.
  auto run_txn = [&](const std::string& value) {
    TxnResult result = TxnResult::kFailed;
    for (int attempt = 0; attempt < 50; attempt++) {
      bool done = false;
      TxnPlan plan;
      plan.ops.push_back(Op::Rmw("k", value));
      // ExecuteAsync outside mu: the session locks itself, and the
      // completion callback takes mu while holding that lock.
      session.ExecuteAsync(plan, [&](const TxnOutcome& o) {
        std::lock_guard<std::mutex> inner(mu);
        result = o.result;
        done = true;
        cv.notify_one();
      });
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done; });
      if (result != TxnResult::kAbort) {
        break;
      }
    }
    return result;
  };

  for (int i = 0; i < 10; i++) {
    ASSERT_EQ(run_txn(std::to_string(i)), TxnResult::kCommit);
  }
  transport.DrainForTesting();

  // Checkpoint: every finalized record goes away; the store keeps the data.
  for (auto& replica : replicas) {
    EXPECT_GT(TrimAllFinalBelow(replica->trecord(), Timestamp{UINT64_MAX, UINT32_MAX}), 0u);
    EXPECT_EQ(replica->trecord().TotalSize(), 0u);
    EXPECT_EQ(replica->store().Read("k").value, "9");
  }

  // Trimmed replicas keep processing new transactions.
  EXPECT_EQ(run_txn("after-trim"), TxnResult::kCommit);
  transport.DrainForTesting();
  EXPECT_EQ(replicas[0]->store().Read("k").value, "after-trim");
  transport.Stop();
}

// Regression for the session accessor locking fix: a poller thread reading
// the inspection accessors while the endpoint worker runs transactions must
// be data-race-free (the TSan CI job catches this if the accessors ever stop
// locking). last_read_set() is excluded: its returned reference is only
// stable while no transaction is in flight.
TEST(AccessorThreadSafetyTest, PollingAccessorsWhileExecuting) {
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat, /*cores=*/2);
  options.retry = RetryPolicy::WithTimeout(2'000'000);
  ThreadedHarness h(options);
  h.system().Load("a", "0");
  h.system().Load("b", "0");

  BlockingClient client(h.system(), 1);
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    uint64_t sink = 0;
    while (!stop.load(std::memory_order_acquire)) {
      sink += client.session().last_commit_ts().time;
      sink += client.session().last_tid().seq;
      sink += client.session().last_write_set().size();
      std::optional<std::string> v = client.session().last_read_value("a");
      sink += v.has_value() ? v->size() : 0;
    }
    (void)sink;
  });
  for (int i = 0; i < 100; i++) {
    TxnPlan plan;
    plan.ops.push_back(Op::Rmw("a", "v" + std::to_string(i)));
    plan.ops.push_back(Op::Get("b"));
    client.ExecuteWithRetry(plan);
  }
  stop.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(client.session().last_tid().seq, 0u);
}

}  // namespace
}  // namespace meerkat
