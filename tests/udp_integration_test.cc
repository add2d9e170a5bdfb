// End-to-end integration over the loopback-UDP transport: every protocol
// message crosses a real socket, gets serialized/deserialized, and is
// kernel-steered to its destination core's poller thread. All four system
// kinds must stay serializable, survive genuine + injected datagram loss,
// and (via tests/zcp_conformance.h) produce zero DAP violations while doing
// so — the wire runtime preserves the same zero-coordination structure as
// the in-process runtimes. The UdpCorkTest suite pins the write-phase cork:
// a decision's COMMITs ride with the client's next request, and nothing the
// client sends afterwards overtakes them.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "src/api/blocking_client.h"
#include "src/common/metrics.h"
#include "src/workload/driver.h"
#include "src/workload/ycsb_t.h"
#include "tests/serializability_checker.h"
#include "tests/test_util.h"
#include "tests/trace_dump_on_failure.h"
#include "tests/zcp_conformance.h"

namespace meerkat {
namespace {

// Runs a short concurrent YCSB-T workload over UDP and checks the committed
// history for serializability. Shared by the per-kind and lossy suites.
void RunWorkloadOverUdp(UdpHarness& h, int num_clients, int duration_ms,
                        const char* context) {
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
  run.num_clients = num_clients;
  run.duration_ms = duration_ms;
  run.load_initial_keys = false;
  run.on_txn_done = [&checker](ClientSession& session, const TxnOutcome& outcome) {
    if (outcome.committed()) {
      checker.RecordCommit(session);
    }
  };
  RunResult result = RunThreadedWorkload(h.system(), workload, run);

  EXPECT_GT(result.stats.committed, 5u) << "no progress over UDP (" << context << ")";
  std::vector<std::string> violations = checker.Check();
  for (const std::string& v : violations) {
    ADD_FAILURE() << context << ": " << v;
  }
}

// All four system kinds run the same workload over the wire.
class UdpAllKindsTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(UdpAllKindsTest, ServesSerializableTrafficOverLoopback) {
  SystemOptions options = DefaultOptions(GetParam(), /*cores=*/2);
  options.retry = RetryPolicy::WithTimeout(2'000'000);
  UdpHarness h(options);

  uint64_t sent_before = SnapshotMetrics().CounterValue("udp.sent_datagrams");
  RunWorkloadOverUdp(h, /*num_clients=*/3, /*duration_ms=*/250, ToString(GetParam()));

  // The traffic really took the wire path: datagrams were sent and received.
  // Stop the transport first (idempotent; the harness destructor repeats it):
  // histogram snapshots are only race-free at quiescent points (metrics.cc),
  // and the timer thread records wire histograms for as long as it runs.
  h.transport().Stop();
  MetricsSnapshot snap = SnapshotMetrics();
  EXPECT_GT(snap.CounterValue("udp.sent_datagrams"), sent_before);
  EXPECT_EQ(snap.CounterValue("udp.missteered_drops"), 0u)
      << "kernel steering delivered a datagram to the wrong core's socket";
}

INSTANTIATE_TEST_SUITE_P(AllKinds, UdpAllKindsTest,
                         ::testing::Values(SystemKind::kMeerkat, SystemKind::kMeerkatPb,
                                           SystemKind::kTapir, SystemKind::kKuaFu),
                         [](const ::testing::TestParamInfo<SystemKind>& info) {
                           switch (info.param) {
                             case SystemKind::kMeerkat:
                               return std::string("Meerkat");
                             case SystemKind::kMeerkatPb:
                               return std::string("MeerkatPb");
                             case SystemKind::kTapir:
                               return std::string("Tapir");
                             case SystemKind::kKuaFu:
                               return std::string("KuaFu");
                           }
                           return std::string("Unknown");
                         });

// Injected drop/duplicate probability on top of genuine UDP loss: the
// protocol must mask both with retransmissions and stay serializable.
class UdpLossyNetworkTest : public ::testing::TestWithParam<double> {};

TEST_P(UdpLossyNetworkTest, MeerkatSurvivesDropsOverUdp) {
  double drop = GetParam();
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat, /*cores=*/2);
  options.retry = RetryPolicy::WithTimeout(2'000'000);
  UdpHarness h(options);
  h.transport().faults().SetDropProbability(drop);
  h.transport().faults().SetDuplicateProbability(drop);
  h.transport().faults().SetMaxExtraDelay(1'000'000);

  RunWorkloadOverUdp(h, /*num_clients=*/3, /*duration_ms=*/250,
                     ("drop=" + std::to_string(drop)).c_str());
}

INSTANTIATE_TEST_SUITE_P(DropRates, UdpLossyNetworkTest, ::testing::Values(0.01, 0.05, 0.15),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "drop" + std::to_string(static_cast<int>(info.param * 100));
                         });

// Delayed delivery rides the transport's timer heap rather than the direct
// sendmmsg path; the protocol must tolerate the induced reordering.
TEST(UdpDelayTest, ReorderingUnderBaseDelay) {
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat, /*cores=*/2);
  options.retry = RetryPolicy::WithTimeout(2'000'000);
  UdpTransport::Options udp;
  udp.base_delay_ns = 200'000;  // 0.2 ms each way.
  UdpHarness h(options, udp);
  h.transport().faults().SetMaxExtraDelay(500'000);

  RunWorkloadOverUdp(h, /*num_clients=*/2, /*duration_ms=*/200, "base_delay");
}

TEST(UdpFiveReplicaTest, FastAndSlowPathQuorumsOverUdp) {
  // n=5 (f=2) over the wire: fast path needs 4 matching votes; with two
  // replicas crashed the slow path (3 votes) must still commit.
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat, /*cores=*/2, /*replicas=*/5);
  options.retry = RetryPolicy::WithTimeout(2'000'000);
  UdpHarness h(options);
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
  EXPECT_GE(client.session().stats().slow_path_commits, 1u);
  h.transport().DrainForTesting();
  EXPECT_EQ(h.system().ReadAtReplica(0, "k").value, "v3");
}

// The distinct-port fallback must be a drop-in: same protocol behavior when
// every (replica, core) endpoint has its own port instead of a cBPF-steered
// reuseport group.
TEST(UdpFallbackModeTest, DistinctPortsServeSerializableTraffic) {
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat, /*cores=*/2);
  options.retry = RetryPolicy::WithTimeout(2'000'000);
  UdpTransport::Options udp;
  udp.force_distinct_ports = true;
  UdpHarness h(options, udp);
  EXPECT_FALSE(h.transport().reuseport_steering());

  RunWorkloadOverUdp(h, /*num_clients=*/3, /*duration_ms=*/200, "distinct_ports");
}

// --- The write-phase cork -----------------------------------------------

// Counts of a closed loop's outcomes.
struct LoopTally {
  int committed = 0;
  int aborted = 0;
  int failed = 0;
};

// A closed loop's state, shared with the callbacks in flight so a late one
// never outlives it.
struct CallbackLoop {
  ClientSession* session = nullptr;
  int n = 0;
  std::function<TxnPlan(int)> make;
  LoopTally tally;
  std::promise<void> finished;
};

void StartFromLoop(const std::shared_ptr<CallbackLoop>& loop, int t) {
  loop->session->ExecuteAsync(loop->make(t), [loop, t](const TxnOutcome& o) {
    loop->tally.committed += o.committed() ? 1 : 0;
    loop->tally.aborted += o.result == TxnResult::kAbort ? 1 : 0;
    loop->tally.failed += o.result == TxnResult::kFailed ? 1 : 0;
    if (t < loop->n) {
      StartFromLoop(loop, t + 1);
    } else {
      loop->finished.set_value();
    }
  });
}

// Runs plans made by `make(t)` for t = 1..n back to back on `session`, each
// started from the previous one's completion callback — the client's endpoint
// thread, inside the delivery that decided the previous transaction. Fails
// the test if the loop stalls (no retries: a lost datagram stops it).
LoopTally RunFromCallbacks(ClientSession& session, int n, std::function<TxnPlan(int)> make) {
  auto loop = std::make_shared<CallbackLoop>();
  loop->session = &session;
  loop->n = n;
  loop->make = std::move(make);
  std::future<void> finished = loop->finished.get_future();
  StartFromLoop(loop, 1);
  if (finished.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    ADD_FAILURE() << "closed loop stalled";
    return LoopTally{};
  }
  return loop->tally;
}

// Reads "k", writes it back plus one.
TxnPlan IncrementPlan() {
  TxnPlan plan;
  plan.ops.push_back(
      Op::RmwFn("k", [](const std::string& v) { return std::to_string(std::stoll(v) + 1); }));
  return plan;
}

uint64_t SentDatagrams() { return SnapshotMetrics().CounterValue("udp.sent_datagrams"); }

// Every increment reads "k" from a random replica right after the previous
// increment decided. The previous COMMIT rides ahead of that GET in one
// datagram, so the replica applies it first: no read is stale and nothing
// aborts. Per transaction the wire carries the GET and its reply, three
// VALIDATEs and three replies, and two COMMIT datagrams (the third shares the
// next GET's); the last transaction's three leave at the session's Flush:
// 10 per transaction plus one, against 11 with every COMMIT on its own.
TEST(UdpCorkTest, CommitRidesAheadOfTheNextGetInOneDatagram) {
  constexpr int kTxns = 200;
  // Snapshot while no endpoint thread records (metrics.h): before the
  // harness starts any, and after Stop.
  const uint64_t before = SentDatagrams();
  UdpHarness h(DefaultOptions(SystemKind::kMeerkat, /*cores=*/1));
  h.system().Load("k", "0");
  auto session = h.MakeSession(1);

  const LoopTally tally = RunFromCallbacks(*session, kTxns, [](int) { return IncrementPlan(); });
  h.transport().DrainForTesting();
  h.transport().Stop();
  const uint64_t sent = SentDatagrams() - before;

  EXPECT_EQ(tally.committed, kTxns);
  EXPECT_EQ(tally.aborted, 0) << "a GET overtook the COMMIT it should have followed";
  EXPECT_EQ(tally.failed, 0);
  for (ReplicaId r = 0; r < 3; r++) {
    EXPECT_EQ(h.system().ReadAtReplica(r, "k").value, std::to_string(kTxns)) << "replica " << r;
  }
  EXPECT_EQ(sent, 10u * kTxns + 1);
}

// The same increments from an application thread, through BlockingClient:
// the callback wakes that thread, whose next GET leaves from its own socket.
// The session flushes the held COMMITs before it releases its lock, and
// ExecuteAsync waits for that lock, so the GET still cannot overtake them.
TEST(UdpCorkTest, BlockingClientNextReadSeesEveryCommit) {
  constexpr int kTxns = 200;
  UdpHarness h(DefaultOptions(SystemKind::kMeerkat, /*cores=*/1));
  h.system().Load("k", "0");
  BlockingClient client(h.system(), 1);

  int committed = 0;
  int aborted = 0;
  for (int t = 0; t < kTxns; t++) {
    const TxnOutcome outcome = client.Execute(IncrementPlan());
    committed += outcome.committed() ? 1 : 0;
    aborted += outcome.result == TxnResult::kAbort ? 1 : 0;
  }
  EXPECT_EQ(committed, kTxns);
  EXPECT_EQ(aborted, 0) << "a GET overtook a COMMIT the session had not flushed";
  h.transport().DrainForTesting();
  for (ReplicaId r = 0; r < 3; r++) {
    EXPECT_EQ(h.system().ReadAtReplica(r, "k").value, std::to_string(kTxns)) << "replica " << r;
  }
}

// Faults are judged per logical COMMIT when the coordinator sends it, not
// when the cork releases it: dropping the 8th COMMIT loses exactly
// transaction 3's COMMIT to replica 1 (fan-outs go to replicas 0, 1, 2 in
// order), and every other COMMIT, held and merged or not, lands.
TEST(UdpCorkTest, DropNthCommitHitsThatLogicalCommit) {
  constexpr int kTxns = 12;
  constexpr uint64_t kNth = 8;
  SystemOptions options = DefaultOptions(SystemKind::kMeerkat, /*cores=*/1);
  options.WithFaultPlan(FaultPlan().DropNth(MsgKind::kCommitRequest, kNth));
  UdpHarness h(options);
  auto session = h.MakeSession(1);

  // Blind writes of distinct keys: VALIDATE fan-outs carry the held COMMITs.
  const LoopTally tally = RunFromCallbacks(*session, kTxns, [](int t) {
    TxnPlan plan;
    plan.ops.push_back(Op::Put("key-" + std::to_string(t), "v"));
    return plan;
  });
  h.transport().DrainForTesting();

  EXPECT_EQ(tally.committed, kTxns);
  EXPECT_EQ(h.transport().fault_injector()->rule_matches(0), 3u * kTxns);
  for (int t = 1; t <= kTxns; t++) {
    for (ReplicaId r = 0; r < 3; r++) {
      const bool dropped = static_cast<uint64_t>(3 * (t - 1) + r + 1) == kNth;
      EXPECT_EQ(h.system().ReadAtReplica(r, "key-" + std::to_string(t)).found, !dropped)
          << "transaction " << t << " at replica " << r;
    }
  }
}

}  // namespace
}  // namespace meerkat
