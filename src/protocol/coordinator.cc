#include "src/protocol/coordinator.h"

#include <algorithm>
#include <utility>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/protocol/epoch_merge.h"
#include "src/sim/sim_context.h"

namespace meerkat {
namespace {

// Coordinator-side bookkeeping charge for the simulator.
void ChargeCoordinatorLogic() {
  if (SimContext* ctx = SimContext::Current()) {
    ctx->Charge(ctx->cost().coordinator_logic_ns);
  }
}

// Decision outcomes and per-phase latency. The phase histograms split commit
// latency into its protocol components: VALIDATE (Start -> decision or
// ACCEPT transition), ACCEPT (transition -> decision), and end-to-end.
const MetricId kFastDecisions = MetricsRegistry::Counter("coord.fast_path_decisions");
const MetricId kSlowDecisions = MetricsRegistry::Counter("coord.slow_path_decisions");
const MetricId kNoQuorumFailures = MetricsRegistry::Counter("coord.no_quorum_failures");
const MetricId kSuperseded = MetricsRegistry::Counter("coord.superseded");
const MetricId kRetransmits = MetricsRegistry::Counter("coord.retransmits");
const MetricId kBackupRecoveries = MetricsRegistry::Counter("coord.backup_recoveries");
const MetricId kValidatePhaseNs = MetricsRegistry::Histogram("coord.validate_phase_ns");
const MetricId kAcceptPhaseNs = MetricsRegistry::Histogram("coord.accept_phase_ns");
const MetricId kCommitTotalNs = MetricsRegistry::Histogram("coord.commit_total_ns");
const MetricId kShedReplies = MetricsRegistry::Counter("overload.shed_replies");
const MetricId kOverloadRejections = MetricsRegistry::Counter("overload.coord_rejections");
// Set copies a VALIDATE/ACCEPT fan-out avoided by sharing one payload: n - 1
// per n-replica fan-out.
const MetricId kPayloadFanoutShares = MetricsRegistry::Counter("coord.payload_fanout_shares");

}  // namespace

CommitCoordinator::CommitCoordinator(Transport* transport, Address self,
                                     const QuorumConfig& quorum, const RetryPolicy& retry)
    : transport_(transport), self_(self), quorum_(quorum), retry_(retry) {}

// Stack-staging size for quorum fan-outs; groups larger than this flush in
// chunks. Big enough for every quorum config the tests and benches use.
constexpr size_t kFanoutChunk = 8;

void CommitCoordinator::Start(CoreId core, TxnId tid, Timestamp ts,
                              std::vector<ReadSetEntry> read_set,
                              std::vector<WriteSetEntry> write_set, uint64_t timer_base) {
  core_ = core;
  tid_ = tid;
  ts_ = ts;
  sets_ = MakeTxnSets(std::move(read_set), std::move(write_set));
  timer_base_ = timer_base;
  rng_.Seed(TxnIdHash{}(tid) ^ timer_base);
  phase_ = Phase::kValidating;
  retries_ = 0;
  outcome_ = CommitOutcome{};
  reply_epoch_ = 0;
  validate_replied_.Clear();
  ok_count_ = 0;
  abort_count_ = 0;
  shed_replied_.Clear();
  shed_count_ = 0;
  proposal_commit_ = false;
  accept_ok_.Clear();
  accept_rejects_ = 0;
  start_ns_ = phase_start_ns_ = MetricsNowNanos();
  SendValidates(/*only_missing=*/false);
  ArmTimer(kValidatePhaseTimer);
}

void CommitCoordinator::ArmTimer(uint64_t phase_timer) {
  if (retry_.enabled()) {
    transport_->SetTimer(self_, 0, retry_.DelayNanos(retries_, rng_),
                         timer_base_ + phase_timer);
  }
}

void CommitCoordinator::SendValidates(bool only_missing) {
  // Fan-outs are staged on the stack and handed to the transport as one
  // batch: in-process transports just loop, the UDP transport turns the whole
  // quorum into a single sendmmsg. Quorums are small, so one chunk almost
  // always suffices; larger groups flush mid-loop.
  Message batch[kFanoutChunk];
  size_t k = 0;
  size_t sent = 0;
  for (ReplicaId r = 0; r < quorum_.n; r++) {
    if (only_missing && validate_replied_.Contains(r)) {
      continue;
    }
    Message& msg = batch[k];
    msg.src = self_;
    msg.dst = Address::Replica(group_base_ + r);
    msg.core = core_;
    // Every copy of the fan-out shares sets_ (refcount bump, no deep copy).
    ValidateRequest req{tid_, ts_, sets_};
    req.priority = priority_;
    req.oldest_inflight = oldest_inflight_;
    msg.payload = std::move(req);
    sent++;
    if (++k == kFanoutChunk) {
      transport_->SendMany(batch, k);
      k = 0;
    }
  }
  if (k != 0) {
    transport_->SendMany(batch, k);
  }
  if (sent > 1) {
    MetricIncr(kPayloadFanoutShares, sent - 1);
  }
  TraceRecord(tid_, TraceStep::kValidateSent, retries_);
}

void CommitCoordinator::SendAccepts() {
  Message batch[kFanoutChunk];
  size_t k = 0;
  for (ReplicaId r = 0; r < quorum_.n; r++) {
    Message& msg = batch[k];
    msg.src = self_;
    msg.dst = Address::Replica(group_base_ + r);
    msg.core = core_;
    msg.payload = AcceptRequest{tid_, /*view=*/0, proposal_commit_, ts_, sets_};
    if (++k == kFanoutChunk) {
      transport_->SendMany(batch, k);
      k = 0;
    }
  }
  if (k != 0) {
    transport_->SendMany(batch, k);
  }
  if (quorum_.n > 1) {
    MetricIncr(kPayloadFanoutShares, quorum_.n - 1);
  }
  TraceRecord(tid_, TraceStep::kAcceptSent, proposal_commit_ ? 1 : 0);
}

void CommitCoordinator::BroadcastFinal(bool commit) {
  // Asynchronous write-phase message; in the paper this piggybacks on the
  // client's next request, which the simulator's cost model reflects by
  // charging no extra round trip (the decision never blocks the client).
  Message batch[kFanoutChunk];
  size_t k = 0;
  for (ReplicaId r = 0; r < quorum_.n; r++) {
    Message& msg = batch[k];
    msg.src = self_;
    msg.dst = Address::Replica(group_base_ + r);
    msg.core = core_;
    msg.payload = CommitRequest{tid_, commit, ts_, oldest_inflight_};
    if (++k == kFanoutChunk) {
      transport_->SendMany(batch, k);
      k = 0;
    }
  }
  if (k != 0) {
    transport_->SendMany(batch, k);
  }
  TraceRecord(tid_, TraceStep::kDecisionBroadcast, commit ? 1 : 0);
}

void CommitCoordinator::Finish(TxnResult result, CommitPath path, AbortReason reason) {
  if (start_ns_ != 0) {
    uint64_t now = MetricsNowNanos();
    // The currently running phase ends here; a VALIDATE-phase transition to
    // kAccepting already recorded its share.
    MetricRecordValue(phase_ == Phase::kValidating ? kValidatePhaseNs : kAcceptPhaseNs,
                      now - phase_start_ns_);
    MetricRecordValue(kCommitTotalNs, now - start_ns_);
  }
  if (path == CommitPath::kFast) {
    MetricIncr(kFastDecisions);
  } else if (path == CommitPath::kSlow) {
    MetricIncr(kSlowDecisions);
  } else if (reason == AbortReason::kNoQuorum) {
    MetricIncr(kNoQuorumFailures);
  } else if (reason == AbortReason::kSuperseded) {
    MetricIncr(kSuperseded);
  } else if (reason == AbortReason::kOverload) {
    MetricIncr(kOverloadRejections);
  }
  phase_ = Phase::kDone;
  outcome_.result = result;
  outcome_.path = path;
  outcome_.reason = result == TxnResult::kCommit ? AbortReason::kNone : reason;
}

bool CommitCoordinator::OnMessage(const Message& msg) {
  if (phase_ == Phase::kDone) {
    return false;
  }
  if (const auto* reply = std::get_if<ValidateReply>(&msg.payload)) {
    if (reply->tid != tid_ || phase_ != Phase::kValidating) {
      return false;
    }
    ChargeCoordinatorLogic();
    if (cache_ != nullptr) {
      // Piggybacked invalidation (DESIGN.md §13): recently committed writes
      // this replica saw. Applied before any vote/duplicate filtering — a
      // hint is useful regardless of what this reply means for the quorum.
      for (const WriteHint& h : reply->hints) {
        cache_->ApplyHint(h.key_hash, h.wts);
      }
    }
    if (reply->epoch > reply_epoch_) {
      // Votes from an older epoch are void: the epoch change has already
      // force-finalized whatever those replicas had in flight.
      if (!validate_replied_.empty()) {
        outcome_.epoch_bumped = true;  // Quorum rebuilt across the change.
      }
      reply_epoch_ = reply->epoch;
      validate_replied_.Clear();
      ok_count_ = 0;
      abort_count_ = 0;
      shed_replied_.Clear();
      shed_count_ = 0;
    } else if (reply->epoch < reply_epoch_) {
      return true;
    }
    if (!validate_replied_.Insert(reply->from - group_base_, quorum_.n)) {
      return true;  // Duplicate reply, or a replica outside this group.
    }
    TraceRecord(tid_, TraceStep::kValidateReply, reply->from);
    if (reply->status == TxnStatus::kRetryLater) {
      // Shed by an overloaded replica: a non-vote. The replica holds no
      // record, so only a retransmission can turn it into a vote.
      shed_replied_.Insert(reply->from - group_base_, quorum_.n);
      shed_count_++;
      outcome_.backoff_hint_ns = std::max(outcome_.backoff_hint_ns, reply->backoff_hint_ns);
      MetricIncr(kShedReplies);
    } else if (reply->status == TxnStatus::kValidatedOk) {
      ok_count_++;
    } else {
      abort_count_++;
      if (outcome_.conflict_hash == 0) {
        // First abort vote that names its failing key wins; replicas can
        // disagree (different interleavings), and any one of them is a
        // truthful conflict to report and self-invalidate on.
        outcome_.conflict_hash = reply->conflict_hash;
      }
    }
    MaybeDecideValidation();
    return true;
  }
  if (const auto* reply = std::get_if<AcceptReply>(&msg.payload)) {
    if (reply->tid != tid_ || phase_ != Phase::kAccepting) {
      return false;
    }
    ChargeCoordinatorLogic();
    if (reply->view != 0) {
      return true;  // Reply to some backup coordinator's round.
    }
    TraceRecord(tid_, TraceStep::kAcceptReply, reply->from);
    if (!reply->ok) {
      // A backup coordinator holds a higher view: this coordinator has been
      // superseded and must stand down; the transaction's fate belongs to the
      // backup now.
      accept_rejects_++;
      if (accept_rejects_ > quorum_.n - quorum_.Majority()) {
        Finish(TxnResult::kFailed, CommitPath::kNone, AbortReason::kSuperseded);
      }
      return true;
    }
    accept_ok_.Insert(reply->from - group_base_, quorum_.n);
    if (accept_ok_.size() >= quorum_.Majority()) {
      TraceRecord(tid_, TraceStep::kSlowPathDecision, proposal_commit_ ? 1 : 0);
      Finish(proposal_commit_ ? TxnResult::kCommit : TxnResult::kAbort, CommitPath::kSlow,
             AbortReason::kOccConflict);
    }
    return true;
  }
  return false;
}

void CommitCoordinator::MaybeDecideValidation() {
  // Fast path: a supermajority of matching replies decides immediately
  // (paper §5.2.2 step 3).
  if (!force_slow_path_) {
    if (ok_count_ >= quorum_.SuperMajority()) {
      TraceRecord(tid_, TraceStep::kFastPathDecision, 1);
      Finish(TxnResult::kCommit, CommitPath::kFast, AbortReason::kNone);
      return;
    }
    if (abort_count_ >= quorum_.SuperMajority()) {
      TraceRecord(tid_, TraceStep::kFastPathDecision, 0);
      Finish(TxnResult::kAbort, CommitPath::kFast, AbortReason::kOccConflict);
      return;
    }
  }
  // Overload fast-fail: every replica has answered or shed, and the votes
  // that are still reachable without a retransmission round cannot form a
  // majority. Waiting out the retransmit timer would only add load to the
  // very replicas that just shed; abort now with the server's backoff hint
  // so the client re-issues after backing off.
  size_t received = validate_replied_.size();
  size_t votes = ok_count_ + abort_count_;
  if (shed_count_ > 0 && votes + (quorum_.n - received) < quorum_.Majority()) {
    Finish(TxnResult::kAbort, CommitPath::kNone, AbortReason::kOverload);
    return;
  }
  // Slow path: once no status can still reach a supermajority and a majority
  // of *votes* is in (sheds are replies but not votes), propose the
  // majority-favored outcome via an ACCEPT round (paper §5.2.2 step 4).
  bool fast_possible = !force_slow_path_ &&
                       (quorum_.FastPathStillPossible(ok_count_, received) ||
                        quorum_.FastPathStillPossible(abort_count_, received));
  if (!fast_possible && votes >= quorum_.Majority()) {
    proposal_commit_ = ok_count_ >= quorum_.Majority();
    uint64_t now = MetricsNowNanos();
    MetricRecordValue(kValidatePhaseNs, now - phase_start_ns_);
    phase_start_ns_ = now;
    phase_ = Phase::kAccepting;
    SendAccepts();
    ArmTimer(kAcceptPhaseTimer);
  }
}

bool CommitCoordinator::OnTimer(uint64_t timer_id) {
  if (phase_ == Phase::kDone || timer_id < timer_base_) {
    return false;
  }
  uint64_t phase_timer = timer_id - timer_base_;
  if (phase_timer == kValidatePhaseTimer && phase_ == Phase::kValidating) {
    if (++retries_ > retry_.max_attempts) {
      Finish(TxnResult::kFailed, CommitPath::kNone, AbortReason::kNoQuorum);
      return true;
    }
    // Enough validation votes may already be in (the fast path just never
    // materialized because the stragglers are down): fall to the slow path
    // with what we have rather than waiting forever. Sheds are not votes —
    // an ACCEPT round built on shed replies would propose with no quorum of
    // OCC verdicts behind it.
    if (ok_count_ + abort_count_ >= quorum_.Majority()) {
      proposal_commit_ = ok_count_ >= quorum_.Majority();
      uint64_t now = MetricsNowNanos();
      MetricRecordValue(kValidatePhaseNs, now - phase_start_ns_);
      phase_start_ns_ = now;
      phase_ = Phase::kAccepting;
      SendAccepts();
      ArmTimer(kAcceptPhaseTimer);
      return true;
    }
    outcome_.retransmits++;
    MetricIncr(kRetransmits);
    // Re-ask replicas that shed: they hold no record, so the retransmission
    // is their only path to casting a vote (their load may have drained by
    // now — the timer's backoff already spaced this retry out).
    validate_replied_.Remove(shed_replied_);
    shed_replied_.Clear();
    shed_count_ = 0;
    SendValidates(/*only_missing=*/true);
    ArmTimer(kValidatePhaseTimer);
    return true;
  }
  if (phase_timer == kAcceptPhaseTimer && phase_ == Phase::kAccepting) {
    if (++retries_ > retry_.max_attempts) {
      Finish(TxnResult::kFailed, CommitPath::kNone, AbortReason::kNoQuorum);
      return true;
    }
    outcome_.retransmits++;
    MetricIncr(kRetransmits);
    SendAccepts();
    ArmTimer(kAcceptPhaseTimer);
    return true;
  }
  return false;
}

BackupCoordinator::BackupCoordinator(Transport* transport, Address self,
                                     const QuorumConfig& quorum, CoreId core, TxnId tid,
                                     ViewNum view, const RetryPolicy& retry, uint64_t timer_base)
    : transport_(transport), self_(self), quorum_(quorum), core_(core), tid_(tid), view_(view),
      retry_(retry), timer_base_(timer_base),
      rng_(TxnIdHash{}(tid) ^ (view + 1) ^ timer_base) {}

void BackupCoordinator::Start() {
  MetricIncr(kBackupRecoveries);
  SendPrepares();
  ArmTimer(kPreparePhaseTimer);
}

void BackupCoordinator::ArmTimer(uint64_t phase_timer) {
  // Timers fire at the hosting endpoint: (self_, core_), not core 0 — a
  // replica-hosted backup runs on whichever core owns the transaction.
  if (retry_.enabled()) {
    transport_->SetTimer(self_, core_, retry_.DelayNanos(retries_, rng_),
                         timer_base_ + phase_timer);
  }
}

void BackupCoordinator::SendPrepares() {
  for (ReplicaId r = 0; r < quorum_.n; r++) {
    Message msg;
    msg.src = self_;
    msg.dst = Address::Replica(group_base_ + r);
    msg.core = core_;
    msg.payload = CoordChangeRequest{tid_, view_};
    transport_->Send(std::move(msg));
  }
  TraceRecord(tid_, TraceStep::kCoordChangeSent, static_cast<uint32_t>(view_));
}

bool BackupCoordinator::OnMessage(const Message& msg) {
  if (phase_ == Phase::kDone) {
    return false;
  }
  if (const auto* ack = std::get_if<CoordChangeAck>(&msg.payload)) {
    if (ack->tid != tid_ || phase_ != Phase::kPreparing) {
      return false;
    }
    if (!ack->ok) {
      // Outbid by an even newer view: retry above it.
      if (ack->view >= view_) {
        view_ = ack->view + 1;
        prepare_acks_.clear();
        prepare_replied_.Clear();
        SendPrepares();
      }
      return true;
    }
    if (ack->view != view_ || !prepare_replied_.Insert(ack->from - group_base_, quorum_.n)) {
      return true;
    }
    prepare_acks_.push_back(*ack);
    if (prepare_replied_.size() >= quorum_.Majority()) {
      DecideAndAccept();
    }
    return true;
  }
  if (const auto* reply = std::get_if<AcceptReply>(&msg.payload)) {
    if (reply->tid != tid_ || phase_ != Phase::kAccepting) {
      return false;
    }
    if (reply->view != view_ || !reply->ok) {
      return true;
    }
    accept_ok_.Insert(reply->from - group_base_, quorum_.n);
    if (accept_ok_.size() >= quorum_.Majority()) {
      for (ReplicaId r = 0; r < quorum_.n; r++) {
        Message out;
        out.src = self_;
        out.dst = Address::Replica(group_base_ + r);
        out.core = core_;
        // A backup finishes on behalf of a dead coordinator: it knows the
        // recovered ts (for trimmed-duplicate detection) but cannot speak for
        // any client's inflight window, so it stamps no watermark.
        out.payload = CommitRequest{tid_, proposal_commit_, ts_, Timestamp{}};
        transport_->Send(std::move(out));
      }
      Finish(proposal_commit_ ? TxnResult::kCommit : TxnResult::kAbort);
    }
    return true;
  }
  return false;
}

void BackupCoordinator::DecideAndAccept() {
  proposal_commit_ = ChooseRecoveryOutcome(quorum_, prepare_acks_);
  TraceRecord(tid_, TraceStep::kRecoveryDecision, proposal_commit_ ? 1 : 0);
  if (auto payload = FindPayloadSnapshot(prepare_acks_)) {
    ts_ = payload->ts;
    sets_ = MakeTxnSets(payload->read_set, payload->write_set);
  }
  phase_ = Phase::kAccepting;
  for (ReplicaId r = 0; r < quorum_.n; r++) {
    Message msg;
    msg.src = self_;
    msg.dst = Address::Replica(group_base_ + r);
    msg.core = core_;
    msg.payload = AcceptRequest{tid_, view_, proposal_commit_, ts_, sets_};
    transport_->Send(std::move(msg));
  }
  if (quorum_.n > 1) {
    MetricIncr(kPayloadFanoutShares, quorum_.n - 1);
  }
  ArmTimer(kAcceptPhaseTimer);
}

bool BackupCoordinator::OnTimer(uint64_t timer_id) {
  if (phase_ == Phase::kDone || timer_id < timer_base_) {
    return false;
  }
  uint64_t phase_timer = timer_id - timer_base_;
  if (phase_timer == kPreparePhaseTimer && phase_ == Phase::kPreparing) {
    if (++retries_ > retry_.max_attempts) {
      Finish(TxnResult::kFailed);
      return true;
    }
    outcome_.retransmits++;
    MetricIncr(kRetransmits);
    SendPrepares();
    ArmTimer(kPreparePhaseTimer);
    return true;
  }
  if (phase_timer == kAcceptPhaseTimer && phase_ == Phase::kAccepting) {
    if (++retries_ > retry_.max_attempts) {
      Finish(TxnResult::kFailed);
      return true;
    }
    outcome_.retransmits++;
    MetricIncr(kRetransmits);
    DecideAndAccept();
    return true;
  }
  return false;
}

void BackupCoordinator::Finish(TxnResult result) {
  phase_ = Phase::kDone;
  outcome_.result = result;
  outcome_.path = result == TxnResult::kCommit ? CommitPath::kSlow : CommitPath::kNone;
  outcome_.reason =
      result == TxnResult::kCommit ? AbortReason::kNone
      : result == TxnResult::kAbort ? AbortReason::kRecoveryAbort
                                    : AbortReason::kNoQuorum;
}

}  // namespace meerkat
