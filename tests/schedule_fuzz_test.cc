// Schedule fuzzing: small-scope exploration of message-delivery orders.
//
// A scheduling transport buffers every in-flight message and delivers them
// one at a time in an order chosen by a seeded RNG — every seed is a
// different, fully deterministic interleaving, including pathological ones a
// timing-based network never produces (e.g. one replica processing a
// transaction's entire lifetime before another sees its VALIDATE).
//
// For each schedule the suite runs a small set of conflicting transactions to
// quiescence and checks the protocol's core invariants:
//   * agreement: no transaction is COMMITTED on one replica and ABORTED on
//     another;
//   * serializability: committed results are consistent with the timestamp
//     order (per-pair conflict exclusion);
//   * convergence: after all commit messages drain, replicas that finalized
//     a transaction agree on the key's value/version history.

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/client_cache.h"
#include "src/common/gc.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/protocol/replica.h"
#include "src/protocol/session.h"

namespace meerkat {
namespace {

// Delivers buffered messages in RNG order. Single-threaded: Deliver pumps
// until quiescence.
class SchedulingTransport : public Transport {
 public:
  explicit SchedulingTransport(uint64_t seed) : rng_(seed) {}

  void RegisterReplica(ReplicaId replica, CoreId core, TransportReceiver* receiver) override {
    replica_receivers_[{replica, core}] = receiver;
  }
  void RegisterClient(uint32_t client_id, TransportReceiver* receiver) override {
    client_receivers_[client_id] = receiver;
  }
  void UnregisterClient(uint32_t client_id) override { client_receivers_.erase(client_id); }
  void SetTimer(const Address&, CoreId, uint64_t, uint64_t) override {
    // No timers: fuzz schedules are loss-free, so retries are unnecessary.
  }

  void Send(Message msg) override { pending_.push_back(std::move(msg)); }

  // Delivers pending messages in random order until none remain.
  void RunToQuiescence() {
    while (!pending_.empty()) {
      size_t pick = rng_.NextBounded(pending_.size());
      Message msg = std::move(pending_[pick]);
      pending_[pick] = std::move(pending_.back());
      pending_.pop_back();
      Dispatch(std::move(msg));
    }
  }

 private:
  void Dispatch(Message&& msg) {
    if (msg.dst.kind == Address::Kind::kReplica) {
      auto it = replica_receivers_.find({msg.dst.id, msg.core});
      if (it != replica_receivers_.end()) {
        it->second->Receive(std::move(msg));
      }
      return;
    }
    auto it = client_receivers_.find(msg.dst.id);
    if (it != client_receivers_.end()) {
      it->second->Receive(std::move(msg));
    }
  }

  Rng rng_;
  std::vector<Message> pending_;
  std::map<std::pair<ReplicaId, CoreId>, TransportReceiver*> replica_receivers_;
  std::map<uint32_t, TransportReceiver*> client_receivers_;
};

struct FuzzOutcome {
  // (client id, txn seq) -> outcome.
  std::map<std::pair<uint32_t, uint32_t>, TxnResult> results;
  std::vector<std::string> violations;
  size_t live_records = 0;  // Sum of trecord sizes across replicas at the end.
};

// Runs `txns_per_client` back-to-back single-RMW transactions per client on
// one hot key under one delivery schedule and checks invariants. Each
// client's next transaction is launched from the previous completion
// callback, so its watermark stamp advances mid-schedule.
FuzzOutcome RunSchedule(uint64_t seed, int num_clients, int txns_per_client = 1,
                        GcOptions gc = GcOptions(), CacheOptions cache = CacheOptions()) {
  SchedulingTransport transport(seed);
  SystemTimeSource time_source;
  QuorumConfig quorum = QuorumConfig::ForReplicas(3);

  std::vector<std::unique_ptr<MeerkatReplica>> replicas;
  for (ReplicaId r = 0; r < 3; r++) {
    replicas.push_back(std::make_unique<MeerkatReplica>(r, quorum, /*num_cores=*/1, &transport,
                                                        /*group_base=*/0, RetryPolicy(),
                                                        OverloadOptions(), gc, cache));
    replicas.back()->LoadKey("hot", "0", Timestamp{1, 0});
  }

  // Shared across all clients, as in a real System (cross-session reuse is
  // part of what the schedules must not be able to corrupt).
  ClientCache shared_cache(cache);

  SessionOptions options;
  options.quorum = quorum;
  options.cores_per_replica = 1;
  options.retry = RetryPolicy::WithTimeout(0);  // Loss-free schedules need no retries.
  options.cache = &shared_cache;

  std::vector<std::unique_ptr<MeerkatSession>> sessions;
  FuzzOutcome outcome;
  for (int c = 1; c <= num_clients; c++) {
    sessions.push_back(std::make_unique<MeerkatSession>(static_cast<uint32_t>(c), &transport,
                                                        &time_source, options,
                                                        seed * 31 + static_cast<uint64_t>(c)));
  }
  std::function<void(uint32_t, uint32_t)> launch = [&](uint32_t client, uint32_t t) {
    TxnPlan plan;
    plan.ops.push_back(
        Op::Rmw("hot", "from-" + std::to_string(client) + "-" + std::to_string(t)));
    sessions[client - 1]->ExecuteAsync(plan, [&, client, t](const TxnOutcome& o) {
      outcome.results[{client, t}] = o.result;
      if (t < static_cast<uint32_t>(txns_per_client)) {
        launch(client, t + 1);
      }
    });
  };
  for (int c = 1; c <= num_clients; c++) {
    launch(static_cast<uint32_t>(c), 1);
  }
  transport.RunToQuiescence();

  // Every transaction must have completed (no lost messages, no timers
  // needed).
  for (int c = 1; c <= num_clients; c++) {
    for (int t = 1; t <= txns_per_client; t++) {
      if (outcome.results.count({static_cast<uint32_t>(c), static_cast<uint32_t>(t)}) == 0) {
        outcome.violations.push_back("client " + std::to_string(c) + " txn " +
                                     std::to_string(t) + " never completed");
      }
    }
  }

  std::vector<TxnId> all_tids;
  for (int c = 1; c <= num_clients; c++) {
    for (int t = 1; t <= txns_per_client; t++) {
      all_tids.push_back({static_cast<uint32_t>(c), static_cast<uint32_t>(t)});
    }
  }

  // Agreement: per transaction, replicas that reached a final status agree.
  // A trimmed record is indistinguishable from "never saw it" here; the GC
  // only trims finalized records, so trimming cannot mask divergence that the
  // surviving replicas would reveal.
  for (const TxnId& tid : all_tids) {
    std::optional<TxnStatus> final_status;
    for (auto& replica : replicas) {
      TxnRecord* rec = replica->trecord().Partition(0).Find(tid);
      if (rec == nullptr || !IsFinal(rec->status)) {
        continue;
      }
      if (final_status.has_value() && *final_status != rec->status) {
        outcome.violations.push_back("divergent finalization for txn " + tid.ToString());
      }
      final_status = rec->status;
    }
    // The client-visible outcome matches any replica finalization.
    auto it = outcome.results.find({tid.client_id, static_cast<uint32_t>(tid.seq)});
    if (final_status.has_value() && it != outcome.results.end() &&
        it->second != TxnResult::kFailed) {
      bool committed = *final_status == TxnStatus::kCommitted;
      if (committed != (it->second == TxnResult::kCommit)) {
        outcome.violations.push_back("client/replica outcome mismatch for txn " +
                                     tid.ToString());
      }
    }
  }

  // Registration hygiene: after quiescence nothing is left pending.
  for (auto& replica : replicas) {
    KeyEntry* entry = replica->store().Find("hot");
    if (entry != nullptr && (!entry->readers.empty() || !entry->writers.empty())) {
      // Pending registrations may legitimately remain only for transactions
      // that are still undecided at this replica (it missed the commit).
      // With a loss-free schedule every broadcast drains, so leftovers for
      // *finalized* transactions are leaks.
      for (const Timestamp& ts : entry->writers) {
        for (const TxnId& tid : all_tids) {
          TxnRecord* rec = replica->trecord().Partition(0).Find(tid);
          if (rec != nullptr && rec->ts == ts && IsFinal(rec->status)) {
            outcome.violations.push_back("leaked writer registration at replica " +
                                         std::to_string(replica->id()));
          }
        }
      }
    }
  }

  // Serial-order check: committed writers must have strictly ordered
  // timestamps, and the final value on each replica must be the write of the
  // highest-timestamp committed transaction *it finalized*.
  Timestamp max_ts = kInvalidTimestamp;
  std::string expected_value = "0";
  for (const TxnId& tid : all_tids) {
    if (outcome.results[{tid.client_id, static_cast<uint32_t>(tid.seq)}] != TxnResult::kCommit) {
      continue;
    }
    for (auto& replica : replicas) {
      TxnRecord* rec = replica->trecord().Partition(0).Find(tid);
      if (rec != nullptr && rec->ts.Valid() && rec->ts > max_ts) {
        max_ts = rec->ts;
        expected_value = "from-" + std::to_string(tid.client_id) + "-" +
                         std::to_string(static_cast<uint32_t>(tid.seq));
      }
    }
  }
  for (auto& replica : replicas) {
    ReadResult read = replica->store().Read("hot");
    if (read.wts == max_ts && read.value != expected_value) {
      outcome.violations.push_back("replica " + std::to_string(replica->id()) +
                                   " installed wrong value for ts " + max_ts.ToString());
    }
    outcome.live_records += replica->trecord().Partition(0).Size();
  }
  return outcome;
}

TEST(ScheduleFuzzTest, TwoConflictingTxnsAllSchedules) {
  int commits_seen = 0;
  int aborts_seen = 0;
  for (uint64_t seed = 0; seed < 400; seed++) {
    FuzzOutcome outcome = RunSchedule(seed, 2);
    for (const std::string& v : outcome.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << v;
    }
    for (auto& [client, result] : outcome.results) {
      (void)client;
      if (result == TxnResult::kCommit) {
        commits_seen++;
      } else if (result == TxnResult::kAbort) {
        aborts_seen++;
      }
    }
  }
  // Across schedules, both outcomes must actually occur (the fuzz is not
  // degenerate). Note that under adversarial interleavings *both* of a
  // conflicting pair may abort (each registered first at a different
  // replica), so the commit count is well below 2 per run.
  EXPECT_GT(commits_seen, 200);
  EXPECT_GT(aborts_seen, 0);
}

TEST(ScheduleFuzzTest, FourWayContentionAllSchedules) {
  for (uint64_t seed = 0; seed < 150; seed++) {
    FuzzOutcome outcome = RunSchedule(seed + 1000, 4);
    for (const std::string& v : outcome.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << v;
    }
  }
}

// Trim-interleaving variant: the watermark GC runs a trim step after every
// delivered message, and each client chains two transactions so its second
// VALIDATE/COMMIT carries a stamp above its first transaction — making the
// first's finalized record trimmable while other messages for it (and for
// its conflicting peers) are still buffered. Every invariant must hold with
// trims spliced between arbitrary delivery points, and across the seed sweep
// trimming must actually occur (otherwise the variant is vacuous).
TEST(ScheduleFuzzTest, ConflictingChainsWithTrimInterleaved) {
  GcOptions aggressive = GcOptions().WithIntervalDispatches(1).WithTrimBudget(64);
  const size_t untrimmed_total = 3u /*replicas*/ * 2u /*clients*/ * 2u /*txns*/;
  bool trimmed_somewhere = false;
  for (uint64_t seed = 0; seed < 150; seed++) {
    FuzzOutcome outcome = RunSchedule(seed + 2000, 2, /*txns_per_client=*/2, aggressive);
    for (const std::string& v : outcome.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << v;
    }
    if (outcome.live_records < untrimmed_total) {
      trimmed_somewhere = true;
    }
  }
  EXPECT_TRUE(trimmed_somewhere) << "no schedule ever trimmed a record — vacuous variant";
}

// Cache-enabled variant: every client serves its second transaction's read of
// "hot" from the shared cache (read-your-own-writes populates it on the first
// commit, and a never-expiring lease keeps it servable), so the cached wts is
// stale whenever a conflicting peer committed in between — under *every*
// delivery schedule the OCC validation must turn that staleness into an
// abort, never a committed stale read (the serial-order check would flag it).
TEST(ScheduleFuzzTest, ConflictingChainsWithCacheEnabled) {
  CacheOptions cache = CacheOptions().WithEnabled(true).WithLease(1'000'000'000'000ULL);
  uint64_t hits_before = SnapshotMetrics().CounterValue("cache.hit");
  for (uint64_t seed = 0; seed < 150; seed++) {
    FuzzOutcome outcome = RunSchedule(seed + 3000, 2, /*txns_per_client=*/2, GcOptions(), cache);
    for (const std::string& v : outcome.violations) {
      ADD_FAILURE() << "seed " << seed << ": " << v;
    }
  }
  uint64_t hits_after = SnapshotMetrics().CounterValue("cache.hit");
  EXPECT_GT(hits_after, hits_before) << "no schedule ever served a cached read — vacuous variant";
}

}  // namespace
}  // namespace meerkat
