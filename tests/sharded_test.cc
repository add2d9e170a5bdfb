// Distributed-transaction tests (paper §5.2.4) on sharded Meerkat systems
// built by CreateSystem: multi-shard atomicity, cross-shard abort
// propagation, the client's decision rule for a shard whose coordinator
// failed, fault-plan, slow-path and trace coverage of the sharded commit, and
// CreateSystem's shard-count guard. Cross-shard serializability runs in
// serializability_test.cc.

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/common/trace.h"
#include "src/protocol/session.h"
#include "tests/test_util.h"

namespace meerkat {
namespace {

constexpr size_t kShards = 3;
constexpr size_t kReplicas = 3;

// The first "<prefix><i>" key that `shard` of `num_shards` owns.
std::string KeyOnShard(const std::string& prefix, size_t shard, size_t num_shards) {
  for (int i = 0; i < 10000; i++) {
    std::string key = prefix + std::to_string(i);
    if (ShardForKey(key, num_shards) == shard) {
      return key;
    }
  }
  ADD_FAILURE() << "no key on shard " << shard;
  return prefix;
}

class ShardedFixture : public ::testing::Test {
 protected:
  ShardedFixture() : h_(DefaultOptions(SystemKind::kMeerkat).WithShards(kShards)) {}

  // Runs one transaction; returns the client messages it sent and received.
  uint64_t RunCountingMessages(ClientSession& session, TxnPlan plan, TxnOutcome* outcome) {
    CoordinationStats before = h_.sim().context().stats();
    *outcome = h_.RunTxnOutcome(session, std::move(plan));
    return h_.sim().context().stats().client_msgs - before.client_msgs;
  }

  // Committed value visible at every replica of the key's shard (asserts
  // convergence); empty if absent.
  std::string CommittedValue(const std::string& key) {
    ReplicaId base = static_cast<ReplicaId>(ShardForKey(key, kShards) * kReplicas);
    ReadResult first = h_.system().ReadAtReplica(base, key);
    for (ReplicaId r = 1; r < kReplicas; r++) {
      ReadResult other = h_.system().ReadAtReplica(base + r, key);
      EXPECT_EQ(first.found, other.found) << key << " replica " << r;
      EXPECT_EQ(first.value, other.value) << key << " replica " << r;
    }
    return first.found ? first.value : std::string();
  }

  // Two keys on different shards.
  std::pair<std::string, std::string> CrossShardKeys() {
    std::string a = "key-a";
    return {a, KeyOnShard("key-b", (ShardForKey(a, kShards) + 1) % kShards, kShards)};
  }

  SimHarness h_;
};

TEST_F(ShardedFixture, SingleShardTxnCommits) {
  h_.system().Load("k", "v0");
  auto session = h_.MakeSession(1);
  TxnOutcome outcome;
  // One shard involved: GET + reply, then 3 VALIDATE + 3 replies + 3 COMMIT.
  EXPECT_EQ(RunCountingMessages(*session, Txn().Rmw("k", "v1").Build(), &outcome), 11u);
  EXPECT_EQ(outcome.result, TxnResult::kCommit);
  EXPECT_EQ(CommittedValue("k"), "v1");
}

TEST_F(ShardedFixture, CrossShardTxnCommitsAtomically) {
  auto [a, b] = CrossShardKeys();
  h_.system().Load(a, "a0");
  h_.system().Load(b, "b0");
  auto session = h_.MakeSession(1);
  TxnOutcome outcome;
  // Two shards involved: each runs its own 11-message share.
  EXPECT_EQ(RunCountingMessages(*session, Txn().Rmw(a, "a1").Rmw(b, "b1").Build(), &outcome),
            22u);
  EXPECT_EQ(outcome.result, TxnResult::kCommit);
  EXPECT_TRUE(outcome.fast_path());
  EXPECT_EQ(CommittedValue(a), "a1");
  EXPECT_EQ(CommittedValue(b), "b1");
}

TEST_F(ShardedFixture, OneShardAbortAbortsWholeTxn) {
  auto [a, b] = CrossShardKeys();
  h_.system().Load(a, "a0");
  h_.system().Load(b, "b0");
  auto session = h_.MakeSession(1);
  auto writer = h_.MakeSession(2, 7);

  // s1 reads a and b, then commits across both shards; a single-shard writer
  // of b starts 1 ns after s1 and races it. Both orders conflict on b: either
  // s1 or the writer aborts, never half of s1.
  std::optional<TxnOutcome> result;
  std::optional<TxnOutcome> writer_result;
  h_.sim().Schedule(1, h_.transport().ActorFor(Address::Client(1), 0), [&](SimContext&) {
    session->ExecuteAsync(Txn().Rmw(a, "a1").Rmw(b, "b1").Build(),
                          [&result](const TxnOutcome& o) { result = o; });
  });
  h_.sim().Schedule(2, h_.transport().ActorFor(Address::Client(2), 0), [&](SimContext&) {
    writer->ExecuteAsync(Txn().Rmw(b, "b-overwrite").Build(),
                         [&writer_result](const TxnOutcome& o) { writer_result = o; });
  });
  h_.sim().Run();

  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(writer_result.has_value());
  // Atomicity: if s1 aborted, *neither* of its writes may be visible — in
  // particular shard(a) must have backed out even though shard(a) voted OK.
  if (result->result == TxnResult::kAbort) {
    EXPECT_EQ(result->reason, AbortReason::kShardAbort);
    EXPECT_EQ(CommittedValue(a), "a0");
  } else {
    EXPECT_EQ(result->result, TxnResult::kCommit);
    EXPECT_EQ(CommittedValue(a), "a1");
  }
}

TEST_F(ShardedFixture, CrossShardCommitTraceShowsSessionSteps) {
  if (!MEERKAT_TRACE) {
    GTEST_SKIP() << "trace rings compiled out";
  }
  ResetTraces();  // Earlier tests in this process reuse the same TxnIds.
  auto [a, b] = CrossShardKeys();
  h_.system().Load(a, "a0");
  h_.system().Load(b, "b0");
  auto session = h_.MakeSession(1);
  TxnOutcome outcome = h_.RunTxnOutcome(*session, Txn().Rmw(a, "a1").Rmw(b, "b1").Build());
  ASSERT_TRUE(outcome.committed());

  std::map<TraceStep, int> steps;
  for (const TraceEvent& event : CollectTrace(outcome.tid)) {
    steps[event.step]++;
  }
  EXPECT_EQ(steps[TraceStep::kTxnStart], 1);
  EXPECT_EQ(steps[TraceStep::kGetSent], 2);  // One per network read.
  EXPECT_EQ(steps[TraceStep::kGetReply], 2);
  EXPECT_EQ(steps[TraceStep::kValidateSent], 2);  // One per involved shard.
  EXPECT_EQ(steps[TraceStep::kTxnCommitted], 1);
}

// --- Options a sharded system must honor ------------------------------------

TEST(ShardedSystemTest, DroppedValidateIsRetransmittedAcrossShards) {
  // Drops two of shard 0's three VALIDATEs (the fan-outs go out in shard
  // order). With one vote in hand its coordinator cannot fall back to the
  // slow path when the timer fires, so it must retransmit.
  ResetTraces();  // Earlier tests in this process reuse the same TxnIds.
  FaultPlan plan = FaultPlan().DropNth(MsgKind::kValidateRequest, 1, /*count=*/2);
  SimHarness h(DefaultOptions(SystemKind::kMeerkat)
                   .WithShards(2)
                   .WithRetry(RetryPolicy::WithTimeout(200'000))
                   .WithFaultPlan(plan));
  std::string a = KeyOnShard("a", 0, 2);
  std::string b = KeyOnShard("b", 1, 2);
  h.system().Load(a, "0");
  h.system().Load(b, "0");
  auto session = h.MakeSession(1);
  TxnOutcome outcome = h.RunTxnOutcome(*session, Txn().Rmw(a, "1").Rmw(b, "1").Build());
  ASSERT_NE(h.transport().fault_injector(), nullptr);
  EXPECT_GE(h.transport().fault_injector()->rule_matches(0), 2u) << "vacuous fault plan";
  EXPECT_EQ(outcome.result, TxnResult::kCommit);
  EXPECT_GE(outcome.retransmits, 1u);
  EXPECT_EQ(h.ValueAt(0, a), "1");
  EXPECT_EQ(h.ValueAt(kReplicas, b), "1");
  if (MEERKAT_TRACE) {
    // VALIDATE_SENT carries the retransmission round: one round-0 fan-out
    // per shard, then shard 0's retransmission as round 1.
    std::map<uint32_t, int> rounds;
    for (const TraceEvent& event : CollectTrace(outcome.tid)) {
      if (event.step == TraceStep::kValidateSent) {
        rounds[event.arg]++;
      }
    }
    EXPECT_EQ(rounds[0], 2);
    EXPECT_GE(rounds[1], 1);
  }
}

TEST(ShardedSystemTest, ForcedSlowPathAppliesToEveryShard) {
  SimHarness h(DefaultOptions(SystemKind::kMeerkat).WithShards(2).WithForceSlowPath(true));
  std::string a = KeyOnShard("a", 0, 2);
  std::string b = KeyOnShard("b", 1, 2);
  auto session = h.MakeSession(1);
  TxnOutcome outcome = h.RunTxnOutcome(*session, Txn().Put(a, "1").Put(b, "1").Build());
  EXPECT_EQ(outcome.result, TxnResult::kCommit);
  EXPECT_EQ(outcome.path, CommitPath::kSlow);
}

TEST(ShardedSystemDeathTest, CreateSystemRejectsUnsupportedShardCounts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (SystemKind kind : {SystemKind::kTapir, SystemKind::kMeerkatPb, SystemKind::kKuaFu}) {
    EXPECT_DEATH({ SimHarness h(DefaultOptions(kind).WithShards(2)); },
                 "num_shards 2 unsupported")
        << ToString(kind);
  }
  EXPECT_DEATH({ SimHarness h(DefaultOptions(SystemKind::kMeerkat).WithShards(0)); },
               "num_shards 0 unsupported");
}

// --- The client's decision for a shard whose coordinator failed -------------

Message ValidateReplyFrom(const TxnId& tid, ReplicaId from, TxnStatus status) {
  Message msg;
  msg.src = Address::Replica(from);
  msg.dst = Address::Client(1);
  ValidateReply reply;
  reply.tid = tid;
  reply.status = status;
  reply.from = from;
  msg.payload = std::move(reply);
  return msg;
}

Message AcceptReplyFrom(const TxnId& tid, ReplicaId from, bool ok) {
  Message msg;
  msg.src = Address::Replica(from);
  msg.dst = Address::Client(1);
  msg.payload = AcceptReply{tid, /*view=*/0, ok, from, 0};
  return msg;
}

struct SupersededShardRun {
  std::optional<TxnOutcome> outcome;
  std::vector<ReplicaId> decided;  // Replicas sent a CommitRequest, in order.
  bool any_commit = false;
};

// Drives a blind-write transaction over `num_shards` shards on a capturing
// transport. Shard 0's votes split 2-1, so its coordinator sends ACCEPT; two
// AcceptReply{ok=false} then supersede it — a backup coordinator owns shard 0
// now and may legitimately choose COMMIT. Every other shard fast-commits.
SupersededShardRun RunWithSupersededShard(size_t num_shards) {
  CapturingTransport transport;
  SystemTimeSource time_source;
  SessionOptions options;
  options.num_shards = num_shards;
  MeerkatSession session(1, &transport, &time_source, options, 7);
  TxnBuilder txn = Txn();
  for (size_t shard = 0; shard < num_shards; shard++) {
    txn.Put(KeyOnShard("w", shard, num_shards), "1");
  }
  SupersededShardRun run;
  session.ExecuteAsync(txn.Build(), [&run](const TxnOutcome& o) { run.outcome = o; });
  const TxnId tid = session.last_tid();
  EXPECT_EQ(transport.Count<ValidateRequest>(), kReplicas * num_shards);

  for (ReplicaId r = kReplicas; r < kReplicas * num_shards; r++) {
    session.Receive(ValidateReplyFrom(tid, r, TxnStatus::kValidatedOk));
  }
  session.Receive(ValidateReplyFrom(tid, 0, TxnStatus::kValidatedOk));
  session.Receive(ValidateReplyFrom(tid, 1, TxnStatus::kValidatedOk));
  session.Receive(ValidateReplyFrom(tid, 2, TxnStatus::kValidatedAbort));
  EXPECT_EQ(transport.Count<AcceptRequest>(), kReplicas);
  session.Receive(AcceptReplyFrom(tid, 0, false));
  session.Receive(AcceptReplyFrom(tid, 1, false));

  for (const Message& msg : transport.sent) {
    if (const auto* decision = std::get_if<CommitRequest>(&msg.payload)) {
      run.decided.push_back(msg.dst.id);
      run.any_commit = run.any_commit || decision->commit;
    }
  }
  return run;
}

TEST(ShardedDecisionTest, SupersededShardGetsNoClientDecision) {
  // Replicas keep whichever final status arrives first, so a client ABORT to
  // the superseded shard could race the backup's COMMIT and split its
  // replicas. Only the shard that fast-committed hears the ABORT.
  SupersededShardRun run = RunWithSupersededShard(2);
  ASSERT_TRUE(run.outcome.has_value());
  EXPECT_EQ(run.outcome->result, TxnResult::kFailed);
  EXPECT_EQ(run.outcome->reason, AbortReason::kSuperseded);
  EXPECT_EQ(run.decided, (std::vector<ReplicaId>{3, 4, 5}));
  EXPECT_FALSE(run.any_commit);
}

TEST(ShardedDecisionTest, SupersededSingleShardGetsNoClientDecision) {
  SupersededShardRun run = RunWithSupersededShard(1);
  ASSERT_TRUE(run.outcome.has_value());
  EXPECT_EQ(run.outcome->result, TxnResult::kFailed);
  EXPECT_EQ(run.outcome->reason, AbortReason::kSuperseded);
  EXPECT_TRUE(run.decided.empty());
}

}  // namespace
}  // namespace meerkat
