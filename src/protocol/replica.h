// MeerkatReplica: one replica's instance of the Meerkat multicore
// transactional database (paper §4.1) — versioned storage layer (VStore),
// concurrency-control layer (OCC checks), and replication layer (trecord +
// message handlers), plus the epoch-change machinery for recovery.
//
// Each core of the replica is registered as a separate transport endpoint;
// the transport guarantees per-(replica, core) serial delivery, so a trecord
// partition is only ever touched by its own core. The vstore is shared across
// cores and protected by per-key locks only — the replica has no other shared
// mutable state on the transaction-processing path (ZCP rule 1).

#ifndef MEERKAT_SRC_PROTOCOL_REPLICA_H_
#define MEERKAT_SRC_PROTOCOL_REPLICA_H_

#include <atomic>
#include <memory>
#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/client_cache.h"
#include "src/common/clock.h"
#include "src/common/dap_check.h"
#include "src/common/gc.h"
#include "src/common/overload.h"
#include "src/common/retry.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/protocol/coordinator.h"
#include "src/protocol/quorum.h"
#include "src/store/occ.h"
#include "src/store/trecord.h"
#include "src/store/vstore.h"
#include "src/transport/transport.h"

namespace meerkat {

class MeerkatReplica {
 public:
  // `id` is the replica's global transport id; its group spans
  // [group_base, group_base + quorum.n). Single-group deployments use the
  // default base 0 with ids 0..n-1; shard s of a sharded deployment uses
  // base s*n (paper §5.2.4).
  //
  // `recovery_retry` drives replica-side retransmission: epoch-change
  // request/complete rounds led by this replica and hosted backup
  // coordinators. A disabled policy (the default) sends each recovery
  // message once — lossless-network deployments and unit tests.
  //
  // `overload` configures per-core load shedding (disabled by default):
  // past the inflight/queue watermarks a core fast-rejects fresh VALIDATEs
  // with kRetryLater instead of running OCC. The signals are per-core
  // relaxed counters only — shedding adds no cross-core coordination.
  //
  // `clock` is the TimeSource the deployment's client timestamps come from
  // (the System's; not owned). Each core reads it at every GC step to derive
  // its watermark W = now − gc.horizon_ns, so a replica built on a clock its
  // traffic is not stamped in answers that traffic from W.
  //
  // `gc` configures the online trecord watermark GC (enabled by default):
  // each core incrementally trims finalized records of its own partition
  // strictly below its clock-derived watermark (DESIGN.md §12). Like
  // shedding, GC state is per-core with relaxed single-writer atomics only.
  //
  // `cache` configures the replica-side half of the client read cache
  // (DESIGN.md §13): when enabled with hint_ring > 0, each core remembers its
  // recently committed writes in a small ring and piggybacks up to
  // kHintsPerReply (key_hash, wts) invalidation hints on validate replies.
  // The ring is plain per-core state (pushed and drained only by the owning
  // core's worker) — no cross-core coordination.
  MeerkatReplica(ReplicaId id, const QuorumConfig& quorum, size_t num_cores,
                 Transport* transport, TimeSource* clock, ReplicaId group_base = 0,
                 RetryPolicy recovery_retry = RetryPolicy(),
                 OverloadOptions overload = OverloadOptions(), GcOptions gc = GcOptions(),
                 CacheOptions cache = CacheOptions());

  MeerkatReplica(const MeerkatReplica&) = delete;
  MeerkatReplica& operator=(const MeerkatReplica&) = delete;

  // Detaches every core endpoint before the receivers are destroyed (epoch
  // watchdog timers target them until the transport stops).
  ~MeerkatReplica();

  ReplicaId id() const { return id_; }
  EpochNum epoch() const { return epoch_.load(std::memory_order_acquire); }
  VStore& store() { return store_; }
  TRecord& trecord() { return trecord_; }

  // Bulk-load a committed key (database population; bypasses the protocol).
  void LoadKey(const std::string& key, const std::string& value, Timestamp wts) {
    store_.LoadKey(key, value, wts);
  }

  // Starts an epoch change with this replica acting as recovery coordinator
  // (paper §5.3.1). Replicas pause validation, ship their trecords; this
  // replica merges them and distributes the authoritative state. Invoked by
  // the operator / failure detector; tests and examples call it directly
  // after a replica restart.
  void InitiateEpochChange();

  // Simulates a crash-restart that lost all volatile state. The replica
  // rejoins with an empty store and trecord and must not process transactions
  // until an epoch change completes (`waiting_recovery` set).
  void CrashAndRestart();

  bool waiting_recovery() const { return waiting_recovery_.load(std::memory_order_acquire); }
  bool epoch_change_in_progress() const {
    return epoch_change_.load(std::memory_order_acquire);
  }

  // Coordinator-failure handling (paper §5.3.2: "each replica can run a
  // backup coordinator process... a replica can initiate a coordinator
  // change"): scans this replica's trecord for transactions stuck in a
  // non-final state with timestamps at or below `older_than` and hosts a
  // BackupCoordinator for each. The backup's view is the smallest view above
  // the record's current view for which this replica is the designated
  // proposer (view mod n == id). Returns the number of recoveries started.
  // Invoked by the operator / failure detector; per-core routing keeps the
  // hosted coordinators DAP-clean.
  size_t RecoverOrphanedTransactions(Timestamp older_than);

  size_t hosted_backup_count() const;

  const OverloadOptions& overload_options() const { return overload_; }
  const GcOptions& gc_options() const { return gc_; }
  const CacheOptions& cache_options() const { return cache_; }

  // Total writes pushed into the per-core recent-writes rings (observability;
  // exact only when the cores are quiescent, like shed_total).
  uint64_t recent_writes_total() const {
    uint64_t n = 0;
    for (const CoreRecentWrites& rw : core_recent_writes_) {
      n += rw.total;
    }
    return n;
  }

  // Observability accessors for the per-core load signals (tests, metrics
  // export). Relaxed reads: exact on the owning core, approximate elsewhere.
  uint32_t core_inflight(CoreId core) const {
    return core_load_[core % core_load_.size()].inflight.load(std::memory_order_relaxed);
  }
  uint64_t shed_total() const {
    uint64_t n = 0;
    for (const CoreLoad& load : core_load_) {
      n += load.shed.load(std::memory_order_relaxed);
    }
    return n;
  }

  // The GC watermark `core` trims below and answers stale messages from
  // (invalid until the core's first GC step past the horizon). Relaxed read:
  // exact on the owning core, possibly stale elsewhere (observability).
  Timestamp core_watermark(CoreId core) const {
    return Timestamp{
        core_gc_[core % core_gc_.size()].watermark_time.load(std::memory_order_relaxed), 0};
  }
  uint64_t gc_trim_passes() const {
    uint64_t n = 0;
    for (const CoreGc& gc : core_gc_) {
      n += gc.trim_passes.load(std::memory_order_relaxed);
    }
    return n;
  }

 private:
  // Per-core load signals for shedding, cache-line aligned like CoreScratch.
  // Single-writer (the owning core's worker) with relaxed atomics so
  // external observers can read without coordination (ZCP: no cross-core
  // synchronization on the validate path).
  struct alignas(64) CoreLoad {
    // Non-final transactions this core's trecord partition tracks
    // (validated/accepted but not yet committed or aborted).
    std::atomic<uint32_t> inflight{0};
    // EWMA of drained-batch width (fixed point, kEwmaScale), a proxy for the
    // core's queue backlog.
    std::atomic<uint64_t> queue_ewma{0};
    // Total VALIDATEs shed by this core (observability only).
    std::atomic<uint64_t> shed{0};
  };

  // Per-core watermark-GC state (DESIGN.md §12), cache-line aligned like
  // CoreLoad. The published watermark is single-writer (the owning core's
  // worker) with relaxed atomics; everything else is plain state only ever
  // touched by the owning core, so GC adds no cross-core coordination.
  struct alignas(64) CoreGc {
    // Published watermark time (W = Timestamp{watermark_time, 0}; 0 = none
    // yet). Monotonically non-decreasing: once records below W are trimmed,
    // duplicates must keep being answered from W even if the clock steps
    // back.
    std::atomic<uint64_t> watermark_time{0};
    std::atomic<uint64_t> trim_passes{0};
    // Reused orphan-collection buffer (capacity stays warm across steps).
    std::vector<std::pair<TxnId, ViewNum>> orphans;
    // Recently swept orphans and the clock time each one's cooldown ends, one
    // orphan_grace_ns after its sweep. A finished backup's COMMIT is still in
    // flight when the backup retires, and re-sweeping inside that window
    // starts a second recovery of a transaction that is already decided.
    // Keyed by tid, not kept on the record: a competing backup's late
    // CoordChange or ACCEPT re-creates a trimmed record, undecided, below
    // the orphan threshold. A genuinely lost COMMIT is re-swept once the
    // cooldown ends.
    std::vector<std::pair<TxnId, uint64_t>> cooldown;
  };

  // Per-core recent-writes ring feeding client-cache invalidation hints
  // (DESIGN.md §13). Plain fields, no atomics: pushes (HandleCommit) and
  // drains (validate-reply hint attachment) both run on the owning core's
  // worker thread — single writer AND single reader, like CoreGc's plain
  // fields. Draining is non-destructive (a copy of the newest entries), so a
  // write is advertised to every client that validates within the ring's
  // lifetime, not just the first.
  struct alignas(64) CoreRecentWrites {
    std::vector<WriteHint> ring;  // Fixed capacity cache_.hint_ring; overwrite-oldest.
    size_t next = 0;              // Ring cursor: slot the next push overwrites.
    uint64_t total = 0;           // Monotone push count (observability / drain bound).
  };

  class CoreReceiver : public TransportReceiver {
   public:
    CoreReceiver(MeerkatReplica* replica, CoreId core) : replica_(replica), core_(core) {}
    void Receive(Message&& msg) override { replica_->DispatchBatch(core_, &msg, 1); }
    void ReceiveBatch(Message* msgs, size_t n) override {
      replica_->DispatchBatch(core_, msgs, n);
    }

   private:
    MeerkatReplica* replica_;
    CoreId core_;
  };

  // In the threaded runtime, epoch change must quiesce all cores before
  // aggregating trecord partitions; handlers hold the gate shared, the epoch
  // machinery holds it exclusively. Under the simulator execution is already
  // serial, so the gate is a no-op (and costs nothing, preserving the ZCP
  // cost profile: the gate is never contended outside recovery).
  class CAPABILITY("EpochGate") EpochGate {
   public:
    void LockShared() ACQUIRE_SHARED();
    void UnlockShared() RELEASE_SHARED();
    void LockExclusive() ACQUIRE();
    void UnlockExclusive() RELEASE();

   private:
    std::shared_mutex mu_;
  };

  // Replica-side timer-id space (disjoint by construction: epoch timer is a
  // single reserved id; hosted backup coordinators get bases spaced 4 apart
  // below it, and their phase offsets are only ever 0 or 1).
  static constexpr uint64_t kEpochTimerId = 1ULL << 62;
  static constexpr uint64_t kBackupTimerBase = 1ULL << 61;

  struct CoreScratch;  // Defined with the members below.

  void Dispatch(CoreId core, Message&& msg);

  // Batched dispatch: processes msgs[0..n) in FIFO order under ONE
  // DapCoreScope and (for transaction-processing messages) one shared
  // epoch-gate acquisition; consecutive runs of ValidateRequests are
  // validated as one OccValidateBatch sweep and every fast-path reply is
  // staged into per-core scratch and flushed through Transport::SendMany
  // after the gate is released. Maintenance traffic (epoch machinery, timers,
  // hosted-backup replies) is handled per message outside the gate, exactly
  // like Dispatch. Message order is never changed relative to arrival.
  void DispatchBatch(CoreId core, Message* msgs, size_t n);

  // Hands the staged replies to the transport in one SendMany, leaving the
  // scratch quiescent (and its capacity warm) before the transport runs.
  void FlushStagedReplies(CoreScratch& scratch);

  // Transaction-processing handlers run under the shared gate: concurrent
  // across cores, excluded only by the epoch machinery.
  void HandleGet(CoreId core, const Address& from, const GetRequest& req)
      REQUIRES_SHARED(gate_);
  void HandleAccept(CoreId core, const Address& from, const AcceptRequest& req)
      REQUIRES_SHARED(gate_);
  void HandleCommit(CoreId core, const Address& from, const CommitRequest& req)
      REQUIRES_SHARED(gate_);
  void HandleCoordChange(CoreId core, const Address& from, const CoordChangeRequest& req)
      REQUIRES_SHARED(gate_);

  // Load-shedding decision for a fresh VALIDATE on this core, and the
  // backoff hint to piggyback when shedding (scales with how deep past the
  // watermark the core is). Relaxed per-core reads only.
  bool ShouldShed(const CoreLoad& load) const;
  uint64_t ShedHintNanos(const CoreLoad& load) const;

  // --- Client-cache hints (DESIGN.md §13) ----------------------------------
  // Records a committed write in this core's recent-writes ring (no-op when
  // hint production is disabled). Owning-core worker only.
  void NoteRecentWrites(CoreId core, const std::vector<WriteSetEntry>& write_set, Timestamp ts);
  // Copies the newest <= kHintsPerReply ring entries into reply->hints.
  // Non-destructive; owning-core worker only.
  void AttachHints(CoreId core, ValidateReply* reply);

  // Rebuilds every core's inflight count from the trecord (recovery paths:
  // adopted epoch state replaces the partitions wholesale).
  void RecomputeLoadCounters() REQUIRES(gate_);

  // --- Watermark GC (DESIGN.md §12) ---------------------------------------
  // Called at the end of every DispatchBatch; runs RunGcStep when GC is on.
  void MaybeRunGc(CoreId core);
  // One GC step: advance the published watermark to now − horizon, trim the
  // records of this core's partition that crossed it under the shared epoch
  // gate, and start backup coordinators for orphans stuck below the grace
  // threshold.
  void RunGcStep(CoreId core, CoreGc& gc);
  // Hosts a BackupCoordinator for each (tid, view) not already being
  // recovered; shared by RunGcStep's orphan sweep and
  // RecoverOrphanedTransactions. Returns the number started.
  size_t StartOrphanRecoveries(CoreId core, const std::vector<std::pair<TxnId, ViewNum>>& orphans);

  void HandleHostedBackupReply(CoreId core, const Message& msg);
  void HandleEpochChangeRequest(const Address& from, const EpochChangeRequest& req);
  void HandleEpochChangeAck(const EpochChangeAck& ack);
  void HandleEpochChangeComplete(const Address& from, const EpochChangeComplete& msg);
  void HandleEpochChangeCompleteAck(const EpochChangeCompleteAck& ack);
  void HandleTimer(CoreId core, uint64_t timer_id);
  // Retransmits whichever epoch-change phase this replica is leading (the
  // request round until the merge quorum forms, then the complete round until
  // every replica confirmed adoption).
  void HandleEpochTimer();
  void ArmEpochTimer();

  // Builds this replica's contribution to an epoch change: all trecord
  // partitions plus committed store state. Caller holds the gate exclusively.
  EpochChangeAck BuildEpochAck(EpochNum epoch) REQUIRES(gate_);

  // Adopts merged epoch state. Caller holds the gate exclusively.
  void AdoptEpochState(EpochNum epoch, const std::vector<TxnRecordSnapshot>& records,
                       const std::vector<WriteSetEntry>& store_state,
                       const std::vector<Timestamp>& store_versions) REQUIRES(gate_);

  void Reply(const Address& to, CoreId core, Payload payload);

  const ReplicaId id_;
  const QuorumConfig quorum_;
  const size_t num_cores_;
  const ReplicaId group_base_;
  const RetryPolicy recovery_retry_;
  const OverloadOptions overload_;
  const GcOptions gc_;
  const CacheOptions cache_;
  Transport* const transport_;
  TimeSource* const clock_;

  VStore store_;
  TRecord trecord_;
  std::vector<std::unique_ptr<CoreReceiver>> receivers_;

  // Per-core reusable scratch for DispatchBatch, indexed core % size like the
  // trecord partitions — each core's worker is the only toucher, so this is
  // DAP-clean unshared state. Vectors keep their capacity across batches; a
  // warm batch dispatch performs no allocations. Cache-line aligned so two
  // cores' scratch never false-share.
  struct alignas(64) CoreScratch {
    std::vector<Message> replies;          // Staged fast-path replies.
    std::vector<ValidateBatchItem> items;  // Fresh validates in the current run.
    std::vector<TxnRecord*> records;       // Parallel to items: where status lands.
    std::vector<uint32_t> reply_idx;       // Parallel to items: staged reply to patch.
    OccBatchScratch occ;
  };
  std::vector<CoreScratch> scratch_;
  std::vector<CoreLoad> core_load_;
  std::vector<CoreGc> core_gc_;
  std::vector<CoreRecentWrites> core_recent_writes_;

  EpochGate gate_;
  std::atomic<EpochNum> epoch_{0};
  std::atomic<bool> epoch_change_{false};
  std::atomic<bool> waiting_recovery_{false};

  // Recovery-coordinator state (only used while this replica leads an epoch
  // change). Guarded by ec_mu_ because acks arrive on core-0's worker while
  // InitiateEpochChange may run on an external thread.
  Mutex ec_mu_;
  bool ec_leading_ GUARDED_BY(ec_mu_) = false;
  EpochNum ec_epoch_ GUARDED_BY(ec_mu_) = 0;
  std::vector<EpochChangeAck> ec_acks_ GUARDED_BY(ec_mu_);
  // Complete-round retransmission state: the merged payload is kept until
  // every replica confirmed adoption (EpochChangeCompleteAck) or the retry
  // budget runs out.
  bool ec_complete_pending_ GUARDED_BY(ec_mu_) = false;
  EpochChangeComplete ec_complete_ GUARDED_BY(ec_mu_);
  std::set<ReplicaId> ec_complete_acked_ GUARDED_BY(ec_mu_);
  uint32_t ec_retries_ GUARDED_BY(ec_mu_) = 0;
  Rng ec_rng_ GUARDED_BY(ec_mu_);

  // Replica-hosted backup coordinators, partitioned by core like the trecord
  // (replies for a transaction arrive on its core, so each map is
  // single-core in steady state). All access takes backups_mu_ regardless:
  // RecoverOrphanedTransactions scans every partition from an external
  // thread, CrashAndRestart wipes them, and HandleTimer/HandleHostedBackupReply
  // route on workers — recovery is off the ZCP fast path, so one uncontended
  // mutex is the simple correct choice. mutable so const accessors can lock.
  mutable Mutex backups_mu_;
  uint64_t backup_seq_ GUARDED_BY(backups_mu_) = 0;  // Allocates disjoint hosted-backup timer bases.
  std::vector<std::unordered_map<TxnId, std::unique_ptr<BackupCoordinator>, TxnIdHash>>
      hosted_backups_ GUARDED_BY(backups_mu_);
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_PROTOCOL_REPLICA_H_
