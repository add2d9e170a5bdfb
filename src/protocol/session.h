// MeerkatSession: one logical Meerkat (or TAPIR) client — the execute phase
// (paper §5.2.1) plus ownership of the per-shard CommitCoordinators.
//
// Data is hash-partitioned into SessionOptions::num_shards shards; each shard
// is an independent Meerkat replica group of n = 2f+1 replicas, and a single
// shard is the plain replicated deployment. Meerkat's validation phase
// already has the structure of an atomic-commitment prepare (decentralized
// validation with a persistent, recoverable vote), so distributing a
// transaction only requires running the validation phase in every involved
// shard *in parallel* and committing iff every shard's validation round
// decides commit (paper §5.2.4):
//
//   client --VALIDATE--> shard A replicas  -.
//          --VALIDATE--> shard B replicas  --> per-shard decision
//          <-----------------------------------'
//   final = AND(shard decisions); ---COMMIT/ABORT---> all involved shards
//
// Each involved shard runs a deferred CommitCoordinator, kept in a per-shard
// slot and reused across transactions: it decides (fast or slow path) but
// withholds the write-phase broadcast until the conjunction is known. A shard
// that voted to commit while another aborts receives ABORT, and its replicas
// back out their readers/writers registrations — standard OCC 2PC semantics
// on top of the unchanged replica code. A shard whose coordinator failed
// (retries exhausted, or superseded by a backup coordinator that may decide
// either way) receives no decision from the client: its fate belongs to
// recovery, whose limits for multi-shard transactions DESIGN.md §7 lists.
//
// The session is an event-driven state machine so the same code runs under
// the simulator (as a client actor) and under the threaded runtime (fed by
// its endpoint's worker thread). The blocking convenience API for
// applications lives in src/api/blocking_client.h.

#ifndef MEERKAT_SRC_PROTOCOL_SESSION_H_
#define MEERKAT_SRC_PROTOCOL_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/api/client_session.h"
#include "src/common/annotations.h"
#include "src/common/client_cache.h"
#include "src/common/clock.h"
#include "src/common/retry.h"
#include "src/common/rng.h"
#include "src/protocol/coordinator.h"
#include "src/protocol/quorum.h"
#include "src/protocol/read_scratch.h"

namespace meerkat {

struct SessionOptions {
  QuorumConfig quorum;
  size_t cores_per_replica = 1;
  // Hash partitions of the key space; shard s is the replica group of global
  // ids [s*n, (s+1)*n) (quorum.h ShardForKey).
  size_t num_shards = 1;
  // Retransmission/backoff policy; a disabled policy (the default) never
  // retransmits (fault-free benchmark runs).
  RetryPolicy retry;
  // Clock-synchronization quality of this client (paper §3: correctness never
  // depends on these; performance does).
  int64_t clock_skew_ns = 0;
  uint64_t clock_jitter_ns = 0;
  // Ablation: bypass the fast path (always run the ACCEPT round).
  bool force_slow_path = false;
  // Inter-transaction read cache shared with the other sessions of this
  // client's System (DESIGN.md §13); null (the default) disables caching.
  ClientCache* cache = nullptr;
};

class MeerkatSession : public ClientSession {
 public:
  MeerkatSession(uint32_t client_id, Transport* transport, TimeSource* time_source,
                 const SessionOptions& options, uint64_t seed);
  ~MeerkatSession() override;

  MeerkatSession(const MeerkatSession&) = delete;
  MeerkatSession& operator=(const MeerkatSession&) = delete;

  void ExecuteAsync(TxnPlan plan, TxnCallback cb) override;
  void Receive(Message&& msg) override;

  uint32_t client_id() const override { return client_id_; }
  RunStats& stats() override { return stats_; }

  // The timestamp the last commit attempt proposed (tests use this to check
  // serialization order). These accessors lock: callers may poll from a
  // different thread than the endpoint worker mutating the fields. The
  // reference returned by last_read_set() is only stable while no transaction
  // is in flight (quiesced inspection).
  Timestamp last_commit_ts() const override {
    RecursiveMutexLock lock(mu_);
    return last_ts_;
  }
  TxnId last_tid() const override {
    RecursiveMutexLock lock(mu_);
    return last_tid_;
  }
  const std::vector<ReadSetEntry>& last_read_set() const override {
    RecursiveMutexLock lock(mu_);
    return read_set_;
  }
  std::vector<WriteSetEntry> last_write_set() const override {
    RecursiveMutexLock lock(mu_);
    std::vector<WriteSetEntry> out;
    out.reserve(write_buffer_.size());
    for (const auto& [key, value] : write_buffer_) {
      out.push_back(WriteSetEntry{key, value});
    }
    return out;
  }
  std::optional<std::string> last_read_value(const std::string& key) const override {
    RecursiveMutexLock lock(mu_);
    const std::string* value = read_values_.Find(key);
    if (value == nullptr) {
      return std::nullopt;
    }
    return *value;
  }

 private:
  // Timer-id space: low ids are execute-phase (GET retry) timers keyed by the
  // get sequence number; coordinator timers live above kCoordTimerBase, four
  // ids per (transaction, shard): kCoordTimerBase + (txn_seq * num_shards +
  // shard) * 4 + phase.
  static constexpr uint64_t kCoordTimerBase = 1ULL << 62;

  // Slot s drives replica group s. The slices hold this commit's share of
  // the read/write sets between partitioning and the coordinator's Start.
  struct ShardSlot {
    std::unique_ptr<CommitCoordinator> coordinator;
    std::vector<ReadSetEntry> reads;
    std::vector<WriteSetEntry> writes;
  };

  void IssueNextOp() REQUIRES(mu_);
  void SendGet(const std::string& key) REQUIRES(mu_);
  void StartCommit() REQUIRES(mu_);
  // Commit phase only (involved_ non-empty): once every involved shard has
  // decided, broadcasts the conjunction and folds the shard outcomes into the
  // transaction's outcome.
  void MaybeFinishCommit() REQUIRES(mu_);
  void OnCommitDone(TxnOutcome out) REQUIRES(mu_);
  // Terminates the attempt without a coordinator decision (GET retransmission
  // budget exhausted, or the per-attempt deadline passed).
  void FailTxn(AbortReason reason) REQUIRES(mu_);
  void FinishTxn(const TxnOutcome& outcome) REQUIRES(mu_);
  bool DeadlineExceeded() const REQUIRES(mu_);

  // ExecuteAsync runs on the application thread while Receive runs on the
  // endpoint's worker thread (threaded runtime); this lock serializes their
  // access to the per-transaction state below. Recursive because a completion
  // callback may synchronously start the next transaction (sim drivers do).
  mutable RecursiveMutex mu_;

  const uint32_t client_id_;
  Transport* const transport_;
  const SessionOptions options_;
  const RetryPolicy retry_;
  const Address self_;
  LooselySyncedClock clock_ GUARDED_BY(mu_);
  Rng rng_ GUARDED_BY(mu_);
  TimeSource* const time_source_;

  RunStats stats_;

  // Per-transaction state.
  bool active_ GUARDED_BY(mu_) = false;
  TxnPlan plan_ GUARDED_BY(mu_);
  TxnCallback callback_ GUARDED_BY(mu_);
  size_t next_op_ GUARDED_BY(mu_) = 0;
  CoreId core_ GUARDED_BY(mu_) = 0;
  uint64_t txn_seq_ GUARDED_BY(mu_) = 0;
  uint64_t txn_start_ns_ GUARDED_BY(mu_) = 0;
  TxnId last_tid_ GUARDED_BY(mu_);
  Timestamp last_ts_ GUARDED_BY(mu_);

  std::vector<ReadSetEntry> read_set_ GUARDED_BY(mu_);
  ReadValueScratch read_values_ GUARDED_BY(mu_);  // Per-txn repeat-read table (reused).
  std::map<std::string, std::string> write_buffer_ GUARDED_BY(mu_);  // Buffered writes, last-wins.

  // Inter-transaction read cache (null when disabled). The object itself is
  // internally synchronized and shared across sessions; the pointer is const.
  ClientCache* const cache_;

  // Outstanding GET (one at a time; interactive transactions).
  bool get_outstanding_ GUARDED_BY(mu_) = false;
  uint64_t get_seq_ GUARDED_BY(mu_) = 0;
  std::string get_key_ GUARDED_BY(mu_);
  uint32_t get_retries_ GUARDED_BY(mu_) = 0;      // Retransmissions of the outstanding GET.
  uint64_t txn_retransmits_ GUARDED_BY(mu_) = 0;  // All execute-phase re-sends this attempt.

  // One slot per shard, built once (no per-commit coordinator allocation).
  std::vector<ShardSlot> shards_ GUARDED_BY(mu_);
  // Shards the in-flight commit touches, ascending; empty outside the
  // commit phase.
  std::vector<uint32_t> involved_ GUARDED_BY(mu_);
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_PROTOCOL_SESSION_H_
