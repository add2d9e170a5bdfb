// Primary-backup baselines (paper §6.1, Table 1):
//
//  * KuaFu++ — the classic log-based design: the primary orders committed
//    transactions with a shared atomic counter, validates them with OCC, and
//    appends them to a shared log; backups consume the log concurrently, but
//    every log access is a cross-core serialization point. Violates both ZCP
//    rules (cross-core: counter + log; cross-replica: primary -> backup
//    round).
//
//  * Meerkat-PB — Meerkat's data structures (per-key locks, per-core matched
//    state) with primary-backup replication: clients submit timestamped
//    transactions to the primary, only the primary validates, and each backup
//    core applies the transactions of its matched primary core. Satisfies DAP
//    but violates the cross-replica rule — isolating the cost of
//    cross-replica coordination.
//
// Both share this implementation, differing in a mode flag: ordering source
// (counter vs client timestamp) and whether shared-log costs are paid.

#ifndef MEERKAT_SRC_BASELINES_PRIMARY_BACKUP_H_
#define MEERKAT_SRC_BASELINES_PRIMARY_BACKUP_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/api/client_session.h"
#include "src/common/annotations.h"
#include "src/common/clock.h"
#include "src/common/retry.h"
#include "src/common/rng.h"
#include "src/protocol/quorum.h"
#include "src/sim/primitives.h"
#include "src/store/vstore.h"
#include "src/transport/transport.h"

namespace meerkat {

enum class PbMode : uint8_t {
  kKuaFu,      // Counter-ordered, shared-log replicated.
  kMeerkatPb,  // Client-timestamped, per-core matched replication.
};

struct PbCosts {
  uint64_t atomic_counter_ns = 120;
  uint64_t shared_log_append_ns = 350;
};

// Bounded in-memory replication log: a real deployment truncates entries once
// every backup has applied them; we keep a fixed window. What matters for the
// evaluation is the mutex serialization, modelled by SharedMutex.
class SharedLog {
 public:
  struct Entry {
    TxnId tid;
    Timestamp ts;
    uint64_t index = 0;
  };

  explicit SharedLog(uint64_t append_service_ns, size_t capacity = 4096)
      : mutex_(append_service_ns), capacity_(capacity) {}

  // Appends and returns the entry's log index.
  uint64_t Append(const TxnId& tid, Timestamp ts);

  size_t SizeForTesting() const {
    LockGuard<SharedMutex> lock(mutex_);
    return entries_.size();
  }
  uint64_t mutex_acquisitions() const { return mutex_.acquisitions(); }

 private:
  // mutable so const accessors (SizeForTesting) can lock.
  mutable SharedMutex mutex_;
  const size_t capacity_;
  std::deque<Entry> entries_ GUARDED_BY(mutex_);
  uint64_t next_index_ GUARDED_BY(mutex_) = 0;
};

class PrimaryBackupReplica {
 public:
  // Replica 0 is the primary by convention.
  PrimaryBackupReplica(ReplicaId id, PbMode mode, const QuorumConfig& quorum, size_t num_cores,
                       Transport* transport, const PbCosts& costs);

  PrimaryBackupReplica(const PrimaryBackupReplica&) = delete;
  PrimaryBackupReplica& operator=(const PrimaryBackupReplica&) = delete;

  ~PrimaryBackupReplica();

  ReplicaId id() const { return id_; }
  bool is_primary() const { return id_ == 0; }
  VStore& store() { return store_; }

  void LoadKey(const std::string& key, const std::string& value, Timestamp wts) {
    store_.LoadKey(key, value, wts);
  }

  uint64_t counter_value() const { return order_counter_.Load(); }

  // --- Failure drills (simulator-driven; see docs/FAILURES.md) ---
  //
  // Crash-restarts a *backup*, wiping its volatile state. While recovering_
  // the backup refuses reads (an empty store would serve stale not-found
  // results) but still applies ReplicateRequests — versioned storage makes
  // out-of-order application safe. Primaries are never crashed in drills:
  // primary fail-over is a reconfiguration this baseline does not model.
  void CrashAndRestart();
  bool recovering() const { return recovering_.load(std::memory_order_acquire); }
  // Completes recovery after the caller transferred committed state into the
  // store (VStore::LoadKey applies the Thomas write rule, so transfer and
  // concurrent replication compose).
  void FinishRecovery() { recovering_.store(false, std::memory_order_release); }

  // Primary-side reconfiguration: a down backup is excluded from the
  // replication quorum, so pending transactions finalize without its ack; on
  // MarkBackupUp it rejoins (after state transfer). Finalization of
  // already-pending transactions happens lazily, on the client's
  // PrimaryCommitRequest retransmission.
  // acq_rel: the release half orders the caller's state-transfer writes
  // before the mask update; the acquire half pairs with BackupDown's acquire
  // load so a primary that observes the flip also observes those writes.
  // Replica ids index a 64-bit mask: CreateSystem caps groups at
  // kMaxGroupReplicas.
  void MarkBackupDown(ReplicaId r) {
    down_mask_.fetch_or(uint64_t{1} << r, std::memory_order_acq_rel);
  }
  void MarkBackupUp(ReplicaId r) {
    down_mask_.fetch_and(~(uint64_t{1} << r), std::memory_order_acq_rel);
  }
  ZCP_FAST_PATH bool BackupDown(ReplicaId r) const {
    return (down_mask_.load(std::memory_order_acquire) & (uint64_t{1} << r)) != 0;
  }

 private:
  class CoreReceiver : public TransportReceiver {
   public:
    CoreReceiver(PrimaryBackupReplica* replica, CoreId core) : replica_(replica), core_(core) {}
    void Receive(Message&& msg) override { replica_->Dispatch(core_, std::move(msg)); }

   private:
    PrimaryBackupReplica* replica_;
    CoreId core_;
  };

  // A validated transaction waiting for backup acknowledgments. Its OCC
  // registrations stay in the vstore until it finalizes, so conflicting
  // transactions keep aborting meanwhile. Acks are tracked per-replica (a
  // duplicated ReplicateReply must not double-count toward the quorum).
  struct PendingTxn {
    Address client;
    Timestamp ts;
    std::vector<ReadSetEntry> read_set;
    std::vector<WriteSetEntry> write_set;
    std::set<ReplicaId> acked;
  };

  void Dispatch(CoreId core, Message&& msg);
  void HandleGet(CoreId core, const Address& from, const GetRequest& req);
  void HandlePrimaryCommit(CoreId core, const Address& from, const PrimaryCommitRequest& req);
  void HandleReplicate(CoreId core, const Address& from, const ReplicateRequest& req);
  void HandleReplicateReply(CoreId core, const ReplicateReply& rep);
  void SendReplicate(CoreId core, ReplicaId to, const TxnId& tid, const PendingTxn& txn);
  // Finalizes the pending transaction if every live backup has acked.
  void TryFinalize(CoreId core, const TxnId& tid);
  void Reply(const Address& to, CoreId core, Payload payload);

  const ReplicaId id_;
  const PbMode mode_;
  const QuorumConfig quorum_;
  Transport* const transport_;

  std::atomic<bool> recovering_{false};
  std::atomic<uint64_t> down_mask_{0};

  VStore store_;
  // KuaFu++'s cross-core shared structures. Meerkat-PB never touches them.
  SharedCounter order_counter_;
  SharedLog log_;

  // Per-core pending/completed tables (DAP-preserving; matched cores).
  std::vector<std::unordered_map<TxnId, PendingTxn, TxnIdHash>> pending_;
  std::vector<std::unordered_map<TxnId, bool, TxnIdHash>> completed_;

  std::vector<std::unique_ptr<CoreReceiver>> receivers_;
};

// Client session for both primary-backup systems: the execute phase reads
// from any replica (OCC validation at the primary catches stale backup
// reads, paper §6.1); commit is a single round to the primary.
class PrimaryBackupSession : public ClientSession {
 public:
  struct Options {
    QuorumConfig quorum;
    size_t cores_per_replica = 1;
    PbMode mode = PbMode::kMeerkatPb;
    // Retransmission/backoff policy; a disabled policy never retransmits.
    RetryPolicy retry;
    int64_t clock_skew_ns = 0;
    uint64_t clock_jitter_ns = 0;
  };

  PrimaryBackupSession(uint32_t client_id, Transport* transport, TimeSource* time_source,
                       const Options& options, uint64_t seed);
  ~PrimaryBackupSession() override;

  void ExecuteAsync(TxnPlan plan, TxnCallback cb) override;
  void Receive(Message&& msg) override;

  uint32_t client_id() const override { return client_id_; }
  RunStats& stats() override { return stats_; }

  // Accessors lock: tests may poll from a different thread than the endpoint
  // worker. The reference returned by last_read_set() is only stable while no
  // transaction is in flight (quiesced inspection).
  TxnId last_tid() const override {
    RecursiveMutexLock lock(mu_);
    return tid_;
  }
  // For KuaFu++ this is the counter-derived timestamp the primary reported;
  // for Meerkat-PB it is the client-proposed timestamp the primary used.
  Timestamp last_commit_ts() const override {
    RecursiveMutexLock lock(mu_);
    return last_commit_ts_;
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
    auto it = read_values_.find(key);
    if (it == read_values_.end()) {
      return std::nullopt;
    }
    return it->second;
  }

 private:
  static constexpr uint64_t kCommitTimerBase = 1ULL << 62;

  void IssueNextOp() REQUIRES(mu_);
  void SendGet(const std::string& key) REQUIRES(mu_);
  void StartCommit() REQUIRES(mu_);
  void SendCommitRequest() REQUIRES(mu_);
  void FailTxn(AbortReason reason) REQUIRES(mu_);
  void FinishTxn(TxnResult result, AbortReason reason) REQUIRES(mu_);
  bool DeadlineExceeded() const REQUIRES(mu_);

  // Same threading contract as MeerkatSession: ExecuteAsync (app thread) and
  // Receive (endpoint worker) both mutate per-transaction state; recursive
  // because completion callbacks may start the next transaction synchronously.
  mutable RecursiveMutex mu_;

  const uint32_t client_id_;
  Transport* const transport_;
  const Options options_;
  const RetryPolicy retry_;
  const Address self_;
  LooselySyncedClock clock_ GUARDED_BY(mu_);
  Rng rng_ GUARDED_BY(mu_);
  TimeSource* const time_source_;

  RunStats stats_;

  bool active_ GUARDED_BY(mu_) = false;
  bool committing_ GUARDED_BY(mu_) = false;
  TxnPlan plan_ GUARDED_BY(mu_);
  TxnCallback callback_ GUARDED_BY(mu_);
  size_t next_op_ GUARDED_BY(mu_) = 0;
  CoreId core_ GUARDED_BY(mu_) = 0;
  uint64_t txn_seq_ GUARDED_BY(mu_) = 0;
  uint64_t txn_start_ns_ GUARDED_BY(mu_) = 0;
  TxnId tid_ GUARDED_BY(mu_);
  Timestamp ts_ GUARDED_BY(mu_);
  Timestamp last_commit_ts_ GUARDED_BY(mu_);

  std::vector<ReadSetEntry> read_set_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::string> read_values_ GUARDED_BY(mu_);
  std::map<std::string, std::string> write_buffer_ GUARDED_BY(mu_);

  bool get_outstanding_ GUARDED_BY(mu_) = false;
  uint64_t get_seq_ GUARDED_BY(mu_) = 0;
  std::string get_key_ GUARDED_BY(mu_);
  uint32_t get_retries_ GUARDED_BY(mu_) = 0;
  uint32_t commit_retries_ GUARDED_BY(mu_) = 0;
  uint64_t txn_retransmits_ GUARDED_BY(mu_) = 0;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_BASELINES_PRIMARY_BACKUP_H_
