// End-to-end serializability tests.
//
// Two flavours:
//  * Simulator runs: hundreds of concurrent clients hammering a small hot
//    keyspace deterministically; every committed transaction is recorded and
//    the full history replayed by the checker.
//  * Threaded runs: real threads and real locks, including runs under message
//    drop/delay/duplication (Meerkat's asynchronous-network assumption).
//
// All four systems must produce one-copy-serializable histories on all seeds,
// and so must a sharded Meerkat deployment whose transactions span shards.

#include <gtest/gtest.h>

#include "src/workload/driver.h"
#include "src/workload/ycsb_t.h"
#include "tests/serializability_checker.h"
#include "tests/test_util.h"
#include "tests/zcp_conformance.h"

namespace meerkat {
namespace {

// Closed loops under the simulator, wired manually so every commit routes
// through the checker; fails on any violation in the resulting history.
void CheckSimHistory(const SystemOptions& sys, const YcsbTOptions& y, uint64_t seed) {
  Simulator sim(sys.cost);
  SimTransport transport(&sim);
  // Jitter reorders messages so replicas validate in different orders —
  // the adversarial case for decentralized OCC.
  transport.faults().SetMaxExtraDelay(3000);
  SimTimeSource time_source(&sim);
  auto system = CreateSystem(sys, &transport, &time_source);

  YcsbTWorkload workload(y);

  SerializabilityChecker checker;
  workload.ForEachInitialKey([&](const std::string& key, const std::string& value) {
    system->Load(key, value);
    checker.RecordLoadedKey(key);
  });

  SimRunOptions run;
  run.num_clients = 24;
  run.warmup_ns = 0;
  run.measure_ns = 20'000'000;  // 20 ms of virtual time.
  run.seed = seed;
  run.load_initial_keys = false;

  std::vector<std::unique_ptr<ClientSession>> sessions;
  std::vector<Rng> rngs;
  struct Loop {
    ClientSession* session;
    Rng* rng;
    YcsbTWorkload* workload;
    SerializabilityChecker* checker;
    void Next() {
      session->ExecuteAsync(workload->NextTxn(*rng), [this](const TxnOutcome& outcome) {
        if (outcome.committed()) {
          checker->RecordCommit(*session);
        }
        Next();
      });
    }
  };
  std::vector<std::unique_ptr<Loop>> loops;
  for (size_t i = 0; i < run.num_clients; i++) {
    sessions.push_back(system->CreateSession(static_cast<uint32_t>(i + 1), seed * 131 + i));
    rngs.emplace_back(seed * 17 + i);
  }
  for (size_t i = 0; i < run.num_clients; i++) {
    auto loop = std::make_unique<Loop>();
    loop->session = sessions[i].get();
    loop->rng = &rngs[i];
    loop->workload = &workload;
    loop->checker = &checker;
    SimActor* actor = transport.ActorFor(Address::Client(static_cast<uint32_t>(i + 1)), 0);
    Loop* raw = loop.get();
    sim.Schedule(i * 70 + 1, actor, [raw](SimContext&) { raw->Next(); });
    loops.push_back(std::move(loop));
  }
  sim.Run(run.measure_ns);
  sim.Clear();

  ASSERT_GT(checker.CommittedCount(), 100u) << "history too small to be meaningful";
  std::vector<std::string> violations = checker.Check();
  for (const std::string& v : violations) {
    ADD_FAILURE() << v;
  }
  EXPECT_TRUE(violations.empty()) << checker.CommittedCount() << " committed txns";
}

// Adversarial cache configuration: leases far longer than the run so every
// entry that CAN go stale DOES serve stale, and commit-time OCC validation is
// the only thing standing between a stale read and a committed violation (the
// checker would report it).
CacheOptions StaleProneCache() {
  return CacheOptions().WithEnabled(true).WithLease(1'000'000'000);
}

// Tiny keyspace = constant conflicts.
YcsbTOptions HotKeyspace(double theta, size_t rmws_per_txn) {
  YcsbTOptions y;
  y.num_keys = 16;
  y.zipf_theta = theta;
  y.key_size = 8;
  y.value_size = 8;
  y.rmws_per_txn = rmws_per_txn;
  return y;
}

class SerializabilitySimTest
    : public ::testing::TestWithParam<std::tuple<SystemKind, double, uint64_t, bool>> {};

TEST_P(SerializabilitySimTest, HotKeyspaceHistoryIsSerializable) {
  auto [kind, theta, seed, cache_on] = GetParam();
  SystemOptions sys = DefaultOptions(kind, /*cores=*/4);
  if (cache_on) {
    sys.cache = StaleProneCache();
  }
  CheckSimHistory(sys, HotKeyspace(theta, /*rmws_per_txn=*/1), seed);
}

INSTANTIATE_TEST_SUITE_P(
    Contended, SerializabilitySimTest,
    ::testing::Combine(::testing::Values(SystemKind::kMeerkat, SystemKind::kMeerkatPb,
                                         SystemKind::kTapir, SystemKind::kKuaFu),
                       ::testing::Values(0.0, 0.9), ::testing::Values<uint64_t>(1, 2, 3),
                       ::testing::Values(false)));

// Cache-enabled re-run on the kinds that honor SystemOptions::cache. The
// stale-read safety argument (DESIGN.md §13) is only as good as validation:
// these cells prove a hot, constantly-stale shared cache never commits a
// stale read on any seed.
INSTANTIATE_TEST_SUITE_P(
    ContendedCacheEnabled, SerializabilitySimTest,
    ::testing::Combine(::testing::Values(SystemKind::kMeerkat, SystemKind::kTapir),
                       ::testing::Values(0.9), ::testing::Values<uint64_t>(1, 2, 3),
                       ::testing::Values(true)));

// Cross-shard cells (paper §5.2.4): three Meerkat shards and two RMWs per
// transaction, so most commits span shards and run the atomic-commitment
// step, with the shared cache off and on.
TEST(SerializabilityShardedTest, SimCrossShardHistoryIsSerializable) {
  CheckSimHistory(DefaultOptions(SystemKind::kMeerkat, /*cores=*/4).WithShards(3),
                  HotKeyspace(/*theta=*/0.0, /*rmws_per_txn=*/2), /*seed=*/1);
}

TEST(SerializabilityShardedTest, SimCachedCrossShardHistoryIsSerializable) {
  SystemOptions sys = DefaultOptions(SystemKind::kMeerkat, /*cores=*/4).WithShards(3);
  sys.cache = StaleProneCache();
  CheckSimHistory(sys, HotKeyspace(/*theta=*/0.0, /*rmws_per_txn=*/2), /*seed=*/1);
}

// Threaded runtime: real concurrency, optional fault injection.
struct ThreadedCase {
  SystemKind kind;
  double drop_probability;
  uint64_t max_extra_delay_ns;
  bool cache = false;
};

class SerializabilityThreadedTest : public ::testing::TestWithParam<ThreadedCase> {};

// Threaded closed loops (the workload driver) with optional loss, delay and
// duplication; fails on any violation in the resulting history.
void CheckThreadedHistory(SystemOptions sys, const YcsbTOptions& y, double drop_probability,
                          uint64_t max_extra_delay_ns) {
  // Retries are required under drops.
  sys.retry = RetryPolicy::WithTimeout(3'000'000);  // 3 ms.
  ThreadedHarness h(sys);
  h.transport().faults().SetDropProbability(drop_probability);
  h.transport().faults().SetMaxExtraDelay(max_extra_delay_ns);
  h.transport().faults().SetDuplicateProbability(drop_probability / 2);

  YcsbTWorkload workload(y);

  SerializabilityChecker checker;
  workload.ForEachInitialKey([&](const std::string& key, const std::string& value) {
    h.system().Load(key, value);
    checker.RecordLoadedKey(key);
  });

  ThreadedRunOptions run;
  run.num_clients = 4;
  run.duration_ms = 300;
  run.seed = 42;
  run.load_initial_keys = false;
  run.on_txn_done = [&checker](ClientSession& session, const TxnOutcome& outcome) {
    if (outcome.committed()) {
      checker.RecordCommit(session);
    }
  };
  RunResult result = RunThreadedWorkload(h.system(), workload, run);

  EXPECT_GT(result.stats.committed, 20u);
  std::vector<std::string> violations = checker.Check();
  for (const std::string& v : violations) {
    ADD_FAILURE() << v;
  }
  EXPECT_TRUE(violations.empty()) << checker.CommittedCount() << " committed txns";
}

YcsbTOptions ThreadedKeyspace(size_t rmws_per_txn) {
  YcsbTOptions y;
  y.num_keys = 12;
  y.zipf_theta = 0.0;
  y.key_size = 8;
  y.value_size = 8;
  y.rmws_per_txn = rmws_per_txn;
  return y;
}

TEST_P(SerializabilityThreadedTest, ConcurrentHistoryIsSerializable) {
  ThreadedCase param = GetParam();
  SystemOptions sys = DefaultOptions(param.kind, /*cores=*/2);
  if (param.cache) {
    sys.cache = StaleProneCache();
  }
  CheckThreadedHistory(sys, ThreadedKeyspace(/*rmws_per_txn=*/1), param.drop_probability,
                       param.max_extra_delay_ns);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, SerializabilityThreadedTest,
    ::testing::Values(ThreadedCase{SystemKind::kMeerkat, 0.0, 0},
                      ThreadedCase{SystemKind::kMeerkat, 0.02, 500'000},
                      ThreadedCase{SystemKind::kTapir, 0.0, 0},
                      ThreadedCase{SystemKind::kMeerkatPb, 0.0, 0},
                      ThreadedCase{SystemKind::kKuaFu, 0.0, 0},
                      // Cache-enabled cells: a shared stale-prone cache under
                      // real threads, including message loss/delay/duplication
                      // (delayed GetReplies insert stale versions; validation
                      // must still keep every commit fresh).
                      ThreadedCase{SystemKind::kMeerkat, 0.0, 0, /*cache=*/true},
                      ThreadedCase{SystemKind::kMeerkat, 0.02, 500'000, /*cache=*/true},
                      ThreadedCase{SystemKind::kTapir, 0.0, 0, /*cache=*/true}),
    [](const ::testing::TestParamInfo<ThreadedCase>& info) {
      std::string name = ToString(info.param.kind);
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      if (info.param.drop_probability > 0) {
        name += "_lossy";
      }
      if (info.param.cache) {
        name += "_cache";
      }
      return name;
    });

// Cross-shard cell on real threads, without loss: if a decision is lost at a
// majority of one shard, that shard's orphan sweep decides alone — a
// documented limitation (DESIGN.md §7) — so the lossy cells stay single-shard.
TEST(SerializabilityShardedTest, ThreadedCrossShardHistoryIsSerializable) {
  CheckThreadedHistory(DefaultOptions(SystemKind::kMeerkat, /*cores=*/2).WithShards(3),
                       ThreadedKeyspace(/*rmws_per_txn=*/2), /*drop_probability=*/0.0,
                       /*max_extra_delay_ns=*/0);
}

}  // namespace
}  // namespace meerkat
