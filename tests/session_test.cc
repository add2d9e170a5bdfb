// Session-level behaviour tests: execute-phase mechanics (read-your-writes,
// read caching, transforms), retry/timeout behaviour under faults, stats
// accounting, and an allocation audit of the commit path — all under the
// deterministic simulator — and the order of the write phase, the completion
// callback and the transport flush, on a recording transport.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "src/protocol/replica.h"
#include "src/protocol/session.h"
#include "src/sim/sim_time_source.h"
#include "src/transport/sim_transport.h"
#include "tests/test_util.h"

// Thread-local allocation counter wired into global operator new (same
// pattern as the client-cache scratch-table audit): the simulator runs every
// actor on the test thread, so the counter sees one commit end to end.
namespace {
thread_local int64_t t_alloc_count = 0;
}  // namespace

__attribute__((noinline)) void* operator new(size_t size) {
  t_alloc_count++;
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace meerkat {
namespace {

class SessionFixture : public ::testing::Test {
 protected:
  SessionFixture() : sim_(CostModel{}), transport_(&sim_), time_source_(&sim_) {
    for (ReplicaId r = 0; r < 3; r++) {
      replicas_.push_back(std::make_unique<MeerkatReplica>(r, QuorumConfig::ForReplicas(3), 2,
                                                           &transport_, &time_source_));
    }
  }

  std::unique_ptr<MeerkatSession> MakeSession(uint64_t retry_ns = 0) {
    SessionOptions options;
    options.quorum = QuorumConfig::ForReplicas(3);
    options.cores_per_replica = 2;
    options.retry = RetryPolicy::WithTimeout(retry_ns);
    return std::make_unique<MeerkatSession>(1, &transport_, &time_source_, options, 11);
  }

  TxnResult RunTxn(MeerkatSession& session, TxnPlan plan, uint64_t horizon = 0) {
    std::optional<TxnResult> result;
    SimActor* actor = transport_.ActorFor(Address::Client(1), 0);
    sim_.Schedule(sim_.now() + 1, actor, [&](SimContext&) {
      session.ExecuteAsync(std::move(plan),
                           [&result](const TxnOutcome& o) { result = o.result; });
    });
    if (horizon == 0) {
      sim_.Run();
    } else {
      sim_.Run(sim_.now() + horizon);
    }
    return result.value_or(TxnResult::kFailed);
  }

  void Load(const std::string& key, const std::string& value) {
    for (auto& replica : replicas_) {
      replica->LoadKey(key, value, Timestamp{1, 0});
    }
  }

  Simulator sim_;
  SimTransport transport_;
  SimTimeSource time_source_;
  std::vector<std::unique_ptr<MeerkatReplica>> replicas_;
};

TEST_F(SessionFixture, ReadSetRecordsVersions) {
  Load("a", "1");
  auto session = MakeSession();
  TxnPlan plan;
  plan.ops.push_back(Op::Get("a"));
  plan.ops.push_back(Op::Get("ghost"));
  ASSERT_EQ(RunTxn(*session, plan), TxnResult::kCommit);
  const auto& reads = session->last_read_set();
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].key, "a");
  EXPECT_EQ(reads[0].read_wts, (Timestamp{1, 0}));
  EXPECT_EQ(reads[1].key, "ghost");
  EXPECT_FALSE(reads[1].read_wts.Valid());
  EXPECT_EQ(session->last_read_value("a").value_or(""), "1");
  EXPECT_EQ(session->last_read_value("ghost").value_or("x"), "");
  EXPECT_FALSE(session->last_read_value("never-touched").has_value());
}

TEST_F(SessionFixture, RepeatReadsServedFromCacheOnce) {
  Load("a", "1");
  auto session = MakeSession();
  TxnPlan plan;
  plan.ops.push_back(Op::Get("a"));
  plan.ops.push_back(Op::Get("a"));
  plan.ops.push_back(Op::Get("a"));
  ASSERT_EQ(RunTxn(*session, plan), TxnResult::kCommit);
  // One network read, one read-set entry; stats count all three app-level reads.
  EXPECT_EQ(session->last_read_set().size(), 1u);
  EXPECT_EQ(session->stats().reads, 3u);
}

TEST_F(SessionFixture, ReadYourWritesSkipsNetworkAndReadSet) {
  auto session = MakeSession();
  TxnPlan plan;
  plan.ops.push_back(Op::Put("w", "mine"));
  plan.ops.push_back(Op::Get("w"));
  ASSERT_EQ(RunTxn(*session, plan), TxnResult::kCommit);
  EXPECT_TRUE(session->last_read_set().empty());
}

TEST_F(SessionFixture, TransformComposesWithinTxn) {
  Load("n", "5");
  auto session = MakeSession();
  auto add3 = [](const std::string& v) { return std::to_string(std::stoi(v) + 3); };
  TxnPlan plan;
  plan.ops.push_back(Op::RmwFn("n", add3));  // 5 -> 8 (network read).
  plan.ops.push_back(Op::RmwFn("n", add3));  // 8 -> 11 (buffered value).
  ASSERT_EQ(RunTxn(*session, plan), TxnResult::kCommit);
  auto writes = session->last_write_set();
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].value, "11");
}

TEST_F(SessionFixture, LastWinsForRepeatedPuts) {
  auto session = MakeSession();
  TxnPlan plan;
  plan.ops.push_back(Op::Put("k", "first"));
  plan.ops.push_back(Op::Put("k", "second"));
  ASSERT_EQ(RunTxn(*session, plan), TxnResult::kCommit);
  auto writes = session->last_write_set();
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].value, "second");
}

TEST_F(SessionFixture, EmptyTxnCommits) {
  auto session = MakeSession();
  EXPECT_EQ(RunTxn(*session, TxnPlan{}), TxnResult::kCommit);
}

TEST_F(SessionFixture, GetRetriesEscapeCrashedReplica) {
  Load("k", "v");
  // Crash one replica; with retries the session re-sends its GET, randomly
  // re-picking a replica until a live one answers.
  transport_.faults().CrashReplica(1);
  auto session = MakeSession(/*retry_ns=*/100'000);
  TxnPlan plan;
  plan.ops.push_back(Op::Get("k"));
  EXPECT_EQ(RunTxn(*session, plan, /*horizon=*/100'000'000), TxnResult::kCommit);
}

TEST_F(SessionFixture, FailsCleanlyWhenMajorityDown) {
  Load("k", "v");
  transport_.faults().CrashReplica(1);
  transport_.faults().CrashReplica(2);
  auto session = MakeSession(/*retry_ns=*/100'000);
  TxnPlan plan;
  plan.ops.push_back(Op::Rmw("k", "x"));
  // Reads can still be served by replica 0, but no commit quorum exists; the
  // coordinator exhausts its retries and reports failure rather than hanging.
  EXPECT_EQ(RunTxn(*session, plan, /*horizon=*/1'000'000'000), TxnResult::kFailed);
  EXPECT_EQ(session->stats().failed, 1u);
}

TEST_F(SessionFixture, DuplicateRepliesDoNotDoubleCount) {
  Load("k", "v");
  transport_.faults().SetDuplicateProbability(1.0);  // Every message doubled.
  auto session = MakeSession();
  for (int i = 0; i < 5; i++) {
    TxnPlan plan;
    plan.ops.push_back(Op::Rmw("k", std::to_string(i)));
    ASSERT_EQ(RunTxn(*session, plan), TxnResult::kCommit);
  }
  EXPECT_EQ(session->stats().committed, 5u);
  EXPECT_EQ(replicas_[0]->store().Read("k").value, "4");
}

TEST_F(SessionFixture, StatsLatencyCountsEveryAttempt) {
  Load("k", "v");
  auto session = MakeSession();
  for (int i = 0; i < 3; i++) {
    TxnPlan plan;
    plan.ops.push_back(Op::Get("k"));
    ASSERT_EQ(RunTxn(*session, plan), TxnResult::kCommit);
  }
  EXPECT_EQ(session->stats().commit_latency.Count(), 3u);
  EXPECT_GT(session->stats().commit_latency.MeanNanos(), 0.0);
}

TEST_F(SessionFixture, SteadyStateCommitAllocationsBounded) {
  // Allocation audit of the client commit path: operator new calls per
  // steady-state single-key RMW commit, counted across the whole simulated
  // round (session, coordinator, transport, replicas). The bound, 20, is the
  // count this test measures with coordinator slots reused across
  // transactions and vote sets kept as bitmasks; nothing may make it worse.
  constexpr double kAllocsPerCommitBound = 20;
  Load("k", "v");
  auto session = MakeSession();
  auto commit_once = [&] {
    TxnPlan plan;
    plan.ops.push_back(Op::Rmw("k", "value"));
    ASSERT_EQ(RunTxn(*session, std::move(plan)), TxnResult::kCommit);
  };
  // Warm-up: grows tables, rings and per-thread slabs. The trecord reaches
  // its steady size only once the GC watermark trails the clock by a full
  // horizon, so warm up for two horizons of virtual time.
  while (sim_.now() < 2 * GcOptions().horizon_ns) {
    commit_once();
  }
  constexpr int kCommits = 100;
  int64_t before = t_alloc_count;
  for (int i = 0; i < kCommits; i++) {
    commit_once();
  }
  double per_commit = static_cast<double>(t_alloc_count - before) / kCommits;
  RecordProperty("allocs_per_commit", std::to_string(per_commit));
  std::printf("allocs per commit: %.2f\n", per_commit);
  EXPECT_LE(per_commit, kAllocsPerCommitBound);
}

// Logs, in order, each COMMIT fan-out, each Flush and (through the test's
// callback) each completion, with whether it happened inside a Receive.
class WritePhaseLog : public CapturingTransport {
 public:
  void SendMany(Message* msgs, size_t n) override {
    if (n > 0 && std::holds_alternative<CommitRequest>(msgs[0].payload)) {
      Note("commit");
    }
    CapturingTransport::SendMany(msgs, n);
  }
  void Flush() override { Note("flush"); }
  void Note(const std::string& what) {
    events.push_back(what + (in_receive ? " in Receive" : " outside Receive"));
  }

  bool in_receive = false;
  std::vector<std::string> events;
};

// The session hands its decision's COMMITs to the transport before the
// application's callback runs, and flushes the transport after it, both in
// the Receive that decided: a transport may hold the COMMITs for the
// callback's next request, and the flush sends them before the session lock
// lets another thread send.
TEST(SessionCorkTest, CommitPrecedesTheCallbackAndFlushFollowsIt) {
  WritePhaseLog transport;
  TestClock clock(1'000'000);
  SessionOptions options;
  options.quorum = QuorumConfig::ForReplicas(3);
  MeerkatSession session(1, &transport, &clock, options, 11);

  TxnPlan plan;
  plan.ops.push_back(Op::Put("k", "v"));
  std::optional<TxnResult> result;
  session.ExecuteAsync(std::move(plan), [&](const TxnOutcome& o) {
    transport.Note("callback");
    result = o.result;
  });
  ASSERT_EQ(transport.Count<ValidateRequest>(), 3u);
  for (ReplicaId r = 0; r < 3; r++) {
    Message reply;
    reply.src = Address::Replica(r);
    reply.dst = Address::Client(1);
    ValidateReply vote;
    vote.tid = session.last_tid();
    vote.status = TxnStatus::kValidatedOk;
    vote.from = r;
    reply.payload = vote;
    transport.in_receive = true;
    session.Receive(std::move(reply));
    transport.in_receive = false;
  }

  ASSERT_EQ(result, TxnResult::kCommit);
  EXPECT_EQ(transport.Count<CommitRequest>(), 3u);
  const std::vector<std::string> expected = {"commit in Receive", "callback in Receive",
                                             "flush in Receive"};
  EXPECT_EQ(transport.events, expected);
}

}  // namespace
}  // namespace meerkat
