// Client-side commit protocol (paper §5.2.2) and backup-coordinator recovery
// (paper §5.3.2), as event-driven state machines.
//
// A CommitCoordinator manages one transaction's validation phase:
//
//   VALIDATE -> (supermajority of matching replies)    fast path: decide
//            -> (mixed replies / quorum only)          slow path: ACCEPT round
//   ACCEPT   -> (f+1 matching accepts)                 decide
//
// and reports the decision through done()/outcome(). It is runtime-agnostic:
// the owner (a MeerkatSession, or a test) feeds replies in via OnMessage and
// timeouts via OnTimer, polls done() after each feed, and then sends the
// COMMIT/ABORT write phase with BroadcastFinal — the only way a client
// decision leaves.
//
// A BackupCoordinator finishes an orphaned transaction after its coordinator
// failed: a Paxos-prepare-like CoordChange round establishes a new view and
// gathers what replicas know; the outcome rules of epoch_merge.h pick a safe
// decision, which is then driven through the same ACCEPT/COMMIT path.

#ifndef MEERKAT_SRC_PROTOCOL_COORDINATOR_H_
#define MEERKAT_SRC_PROTOCOL_COORDINATOR_H_

#include <vector>

#include "src/common/client_cache.h"
#include "src/common/retry.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/protocol/quorum.h"
#include "src/transport/transport.h"

namespace meerkat {

struct CommitOutcome {
  TxnResult result = TxnResult::kFailed;
  CommitPath path = CommitPath::kNone;
  // kNone iff the transaction committed.
  AbortReason reason = AbortReason::kNone;
  // Timer-driven re-sends this coordinator performed (all phases).
  uint64_t retransmits = 0;
  // The vote quorum was discarded and rebuilt across an epoch change.
  bool epoch_bumped = false;
  // Largest server-suggested backoff piggybacked on kRetryLater sheds seen
  // during validation; 0 if no replica shed. Meaningful for kOverload aborts.
  uint64_t backoff_hint_ns = 0;
  // VStore::HashKey of the first key an abort vote named as the failing
  // check (0 if no replica reported one). Abort-reason fidelity: the session
  // resolves it against the transaction's sets for TxnOutcome and for cache
  // self-invalidation.
  uint64_t conflict_hash = 0;

  bool fast_path() const { return path == CommitPath::kFast; }
};

class CommitCoordinator {
 public:
  // A coordinator runs one transaction at a time and is reusable: each Start
  // begins a fresh round, so owners keep coordinators in per-session slots
  // instead of allocating one per commit. Idle (done()) until the first
  // Start. A disabled RetryPolicy (timeout_ns == 0) never arms timers
  // (appropriate for fault-free benchmark runs).
  CommitCoordinator(Transport* transport, Address self, const QuorumConfig& quorum,
                    const RetryPolicy& retry);

  // Ablation knob: never decide on the fast path, even with a supermajority
  // of matching replies (measures what the fast path is worth).
  void set_force_slow_path(bool force) { force_slow_path_ = force; }

  // The decision is *deferred* (paper §5.2.4): outcome() reports what this
  // replica group decided, but no COMMIT/ABORT is broadcast until the owner,
  // having heard from every group the transaction touches, calls
  // BroadcastFinal with the conjunction of their decisions (the
  // atomic-commitment step; with one group it is that group's own decision).
  void BroadcastFinal(bool commit);

  // The replica group this coordinator talks to: replicas
  // [group_base, group_base + n). Shard s of a sharded deployment registers
  // its replicas at base s*n.
  void set_group_base(ReplicaId base) { group_base_ = base; }

  // Overload-control priority stamped on every VALIDATE (TxnPlan::priority):
  // priority > 0 exempts this transaction from replica load shedding.
  void set_priority(uint8_t priority) { priority_ = priority; }

  // Watermark-GC stamp (DESIGN.md §12) piggybacked on every VALIDATE and
  // write-phase message: the oldest timestamp this client may still
  // retransmit for. Sessions run one transaction at a time, so this is simply
  // the current transaction's timestamp. Zero (the default) stamps nothing.
  void set_oldest_inflight(Timestamp ts) { oldest_inflight_ = ts; }

  // Client read cache to feed piggybacked invalidation hints into
  // (DESIGN.md §13). Null (the default) drops the hints.
  void set_cache(ClientCache* cache) { cache_ = cache; }

  CommitCoordinator(const CommitCoordinator&) = delete;
  CommitCoordinator& operator=(const CommitCoordinator&) = delete;

  // Begins validating transaction `tid` at `ts` with the given sets (its
  // slice for this replica group), discarding all state of the previous
  // round. Timer ids passed to SetTimer are `timer_base + phase`; the owner
  // routes TimerFire back via OnTimer. The knobs above carry over between
  // rounds.
  void Start(CoreId core, TxnId tid, Timestamp ts, std::vector<ReadSetEntry> read_set,
             std::vector<WriteSetEntry> write_set, uint64_t timer_base);

  // Feeds a reply; returns true if it belonged to this transaction.
  bool OnMessage(const Message& msg);

  // Feeds a timer previously armed by this coordinator; returns true if the
  // timer was consumed (stale timers for finished phases return false).
  bool OnTimer(uint64_t timer_id);

  bool done() const { return phase_ == Phase::kDone; }
  // Valid once done(); owners poll done() after each OnMessage/OnTimer.
  const CommitOutcome& outcome() const { return outcome_; }
  const TxnId& tid() const { return tid_; }
  Timestamp ts() const { return ts_; }

  static constexpr uint64_t kValidatePhaseTimer = 0;
  static constexpr uint64_t kAcceptPhaseTimer = 1;

 private:
  enum class Phase { kValidating, kAccepting, kDone };

  void SendValidates(bool only_missing);
  void SendAccepts();
  void Finish(TxnResult result, CommitPath path, AbortReason reason);
  void MaybeDecideValidation();
  void ArmTimer(uint64_t phase_timer);

  Transport* const transport_;
  const Address self_;
  const QuorumConfig quorum_;
  const RetryPolicy retry_;
  CoreId core_ = 0;
  TxnId tid_;
  Timestamp ts_;
  // Built once per Start; every VALIDATE/ACCEPT in the fan-out shares this
  // payload instead of deep-copying the sets per replica.
  TxnSetsPtr sets_;
  uint64_t timer_base_ = 0;
  // Backoff jitter; seeded deterministically from the transaction id so
  // identical runs retransmit at identical (sim) times.
  Rng rng_;

  Phase phase_ = Phase::kDone;
  uint32_t retries_ = 0;
  // Phase-latency stamps (MetricsNowNanos domain): txn start and the start of
  // the currently running phase.
  uint64_t start_ns_ = 0;
  uint64_t phase_start_ns_ = 0;
  bool force_slow_path_ = false;
  ReplicaId group_base_ = 0;
  uint8_t priority_ = 0;
  Timestamp oldest_inflight_;
  ClientCache* cache_ = nullptr;
  CommitOutcome outcome_;

  // Validation replies, tracked for the highest epoch seen (replies from
  // different epochs never combine into one quorum; see message.h). Every
  // reply mask is indexed by position in this coordinator's group.
  EpochNum reply_epoch_ = 0;
  ReplicaMask validate_replied_;
  size_t ok_count_ = 0;
  size_t abort_count_ = 0;
  // Replicas that shed the VALIDATE (kRetryLater). They count as "replied"
  // (no vote can still arrive without a retransmit) but never as votes; a
  // retransmission un-marks them so they are re-asked.
  ReplicaMask shed_replied_;
  size_t shed_count_ = 0;

  // Accept round (the original coordinator proposes in view 0).
  bool proposal_commit_ = false;
  ReplicaMask accept_ok_;
  size_t accept_rejects_ = 0;
};

class BackupCoordinator {
 public:
  // `view` must be greater than any view the transaction has seen; backup
  // coordinators for view v are conventionally hosted on replica (v mod n),
  // but any node may run one (the view number is what arbitrates).
  BackupCoordinator(Transport* transport, Address self, const QuorumConfig& quorum, CoreId core,
                    TxnId tid, ViewNum view, const RetryPolicy& retry, uint64_t timer_base);

  BackupCoordinator(const BackupCoordinator&) = delete;
  BackupCoordinator& operator=(const BackupCoordinator&) = delete;

  void Start();
  bool OnMessage(const Message& msg);
  bool OnTimer(uint64_t timer_id);

  void set_group_base(ReplicaId base) { group_base_ = base; }

  bool done() const { return phase_ == Phase::kDone; }
  // Valid once done() (same polling contract as CommitCoordinator).
  const CommitOutcome& outcome() const { return outcome_; }
  const TxnId& tid() const { return tid_; }

  static constexpr uint64_t kPreparePhaseTimer = 0;
  static constexpr uint64_t kAcceptPhaseTimer = 1;

 private:
  enum class Phase { kPreparing, kAccepting, kDone };

  void SendPrepares();
  void DecideAndAccept();
  void Finish(TxnResult result);
  void ArmTimer(uint64_t phase_timer);

  Transport* const transport_;
  const Address self_;
  const QuorumConfig quorum_;
  const CoreId core_;
  const TxnId tid_;
  ViewNum view_;
  const RetryPolicy retry_;
  const uint64_t timer_base_;
  Rng rng_;

  Phase phase_ = Phase::kPreparing;
  uint32_t retries_ = 0;
  CommitOutcome outcome_;
  ReplicaId group_base_ = 0;
  std::vector<CoordChangeAck> prepare_acks_;
  // Reply masks, indexed by position in the group (as in CommitCoordinator).
  ReplicaMask prepare_replied_;
  bool proposal_commit_ = false;
  Timestamp ts_;
  // Recovered payload, shared across the ACCEPT fan-out (may be null if no
  // replica had the transaction's sets).
  TxnSetsPtr sets_;
  ReplicaMask accept_ok_;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_PROTOCOL_COORDINATOR_H_
