#include "src/protocol/replica.h"

#include <utility>

#include "src/common/dap_check.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

#include "src/protocol/epoch_merge.h"
#include "src/store/occ.h"

namespace meerkat {
namespace {

// Epoch-change and recovery events are rare, maintenance-path actions; the
// counters confirm drills exercised them (and that steady state did not).
const MetricId kEpochChangesInitiated = MetricsRegistry::Counter("epoch.changes_initiated");
const MetricId kEpochAdoptions = MetricsRegistry::Counter("epoch.adoptions");
const MetricId kReplicaRestarts = MetricsRegistry::Counter("recovery.replica_restarts");

// Batched-dispatch shape: how many messages each DispatchBatch saw and how
// wide the amortized OCC validation sweeps ran.
const MetricId kDispatchWidth = MetricsRegistry::Histogram("batch.dispatch_width");
const MetricId kValidateSweepWidth = MetricsRegistry::Histogram("batch.validate_sweep_width");

// Load shedding: fresh VALIDATEs fast-rejected past the per-core watermarks,
// and the backoff hints piggybacked on those kRetryLater replies.
const MetricId kShedValidates = MetricsRegistry::Counter("overload.shed_validates");
const MetricId kShedHintNs = MetricsRegistry::Histogram("overload.shed_hint_ns");

// Watermark GC (DESIGN.md §12): trim passes run from the maintenance slot,
// passes whose budget ran out mid-partition, duplicates answered from the
// watermark instead of a (trimmed) record, orphan recoveries the sweep
// started, and marks dropped because a core's client table was full.
const MetricId kGcTrimPasses = MetricsRegistry::Counter("gc.trim_passes");
const MetricId kGcBudgetExhausted = MetricsRegistry::Counter("gc.budget_exhausted");
const MetricId kGcStaleValidates = MetricsRegistry::Counter("gc.stale_validates_answered");
const MetricId kGcStaleCommits = MetricsRegistry::Counter("gc.stale_commits_dropped");
const MetricId kGcOrphanRecoveries = MetricsRegistry::Counter("gc.orphan_recoveries");
const MetricId kGcClientTableFull = MetricsRegistry::Counter("gc.client_table_full");
// Gap between the freshest client mark a core holds and its published
// watermark — how far behind the trimmer runs (timestamp-clock nanos).
const MetricId kGcWatermarkLagNs = MetricsRegistry::Histogram("gc.watermark_lag_ns");

// Fixed-point scale for CoreLoad::queue_ewma (alpha = 1/4 EWMA of the
// drained-batch width; steady state ewma/kEwmaScale ≈ batch width).
constexpr uint64_t kEwmaScale = 16;

// While a DispatchBatch holds the shared epoch gate, Reply() stages outbound
// messages here instead of calling Transport::Send per message; the batch
// flushes them through one Transport::SendMany after releasing the gate.
// Thread-local rather than a per-core flag: only the dispatching worker's own
// Replies may stage (a reply emitted concurrently from another thread — say
// an epoch ack while core 0's worker is mid-batch — must go straight to
// Send, and a core-indexed flag would race exactly there).
thread_local std::vector<Message>* t_reply_stage = nullptr;

}  // namespace

void MeerkatReplica::EpochGate::LockShared() {
  if (SimContext::Current() != nullptr) {
    return;  // Simulator execution is serial; the gate would never block.
  }
  mu_.lock_shared();
}

void MeerkatReplica::EpochGate::UnlockShared() {
  if (SimContext::Current() != nullptr) {
    return;
  }
  mu_.unlock_shared();
}

void MeerkatReplica::EpochGate::LockExclusive() {
  if (SimContext::Current() != nullptr) {
    return;
  }
  mu_.lock();
}

void MeerkatReplica::EpochGate::UnlockExclusive() {
  if (SimContext::Current() != nullptr) {
    return;
  }
  mu_.unlock();
}

MeerkatReplica::MeerkatReplica(ReplicaId id, const QuorumConfig& quorum, size_t num_cores,
                               Transport* transport, ReplicaId group_base,
                               RetryPolicy recovery_retry, OverloadOptions overload, GcOptions gc,
                               CacheOptions cache)
    : id_(id), quorum_(quorum), num_cores_(num_cores), group_base_(group_base),
      recovery_retry_(recovery_retry), overload_(overload), gc_(gc), cache_(cache),
      transport_(transport),
      trecord_(num_cores), scratch_(num_cores > 0 ? num_cores : 1),
      core_load_(num_cores > 0 ? num_cores : 1),
      core_gc_(num_cores > 0 ? num_cores : 1),
      core_recent_writes_(num_cores > 0 ? num_cores : 1),
      ec_rng_(0x9e3779b9u ^ id), hosted_backups_(num_cores) {
  for (CoreGc& core_gc : core_gc_) {
    core_gc.marks.resize(gc_.max_tracked_clients > 0 ? gc_.max_tracked_clients : 1);
  }
  for (CoreRecentWrites& rw : core_recent_writes_) {
    rw.ring.reserve(cache_.hint_ring);  // Pushes never reallocate mid-path.
  }
  receivers_.reserve(num_cores);
  for (CoreId core = 0; core < num_cores; core++) {
    receivers_.push_back(std::make_unique<CoreReceiver>(this, core));
    transport_->RegisterReplica(id_, core, receivers_.back().get());
  }
}

MeerkatReplica::~MeerkatReplica() {
  for (CoreId core = 0; core < receivers_.size(); core++) {
    transport_->UnregisterReplica(id_, core);
  }
}

void MeerkatReplica::Reply(const Address& to, CoreId core, Payload payload) {
  Message msg;
  msg.src = Address::Replica(id_);
  msg.dst = to;
  msg.core = core;
  msg.payload = std::move(payload);
  if (t_reply_stage != nullptr) {
    t_reply_stage->push_back(std::move(msg));
    return;
  }
  transport_->Send(std::move(msg));
}

void MeerkatReplica::Dispatch(CoreId core, Message&& msg) {
  DispatchBatch(core, &msg, 1);
}

namespace {

// Maintenance traffic manages the epoch gate itself (or takes no gate at
// all): the epoch-change machinery, timers, and replies routed to hosted
// backup coordinators. Everything else is transaction-processing fast path
// and runs under the shared gate.
bool IsMaintenancePayload(const Payload& payload) {
  return std::get_if<EpochChangeRequest>(&payload) != nullptr ||
         std::get_if<EpochChangeAck>(&payload) != nullptr ||
         std::get_if<EpochChangeComplete>(&payload) != nullptr ||
         std::get_if<EpochChangeCompleteAck>(&payload) != nullptr ||
         std::get_if<TimerFire>(&payload) != nullptr ||
         std::get_if<CoordChangeAck>(&payload) != nullptr ||
         std::get_if<AcceptReply>(&payload) != nullptr;
}

}  // namespace

// The conditional acquire/flush structure below defeats clang's lexical
// lock analysis; the invariant it cannot see is simple: shared_held mirrors
// the gate exactly, and every exit path runs ReleaseAndFlush.
ZCP_FAST_PATH NO_THREAD_SAFETY_ANALYSIS void MeerkatReplica::DispatchBatch(CoreId core,
                                                                           Message* msgs,
                                                                           size_t n) {
  if (n == 0) {
    return;
  }
  // Everything below executes on behalf of `core`; the DAP detector flags
  // any trecord partition access that doesn't match. One scope covers the
  // whole batch — that is the amortization.
  DapCoreScope dap_scope(core);
  MetricRecordValue(kDispatchWidth, n);
  CoreScratch& scratch = scratch_[core % scratch_.size()];
  CoreLoad& load = core_load_[core % core_load_.size()];
  CoreGc& gc = core_gc_[core % core_gc_.size()];
  if (overload_.enabled) {
    // Update the queue-depth proxy: EWMA (alpha=1/4) of drained-batch width.
    // Single writer (this core's worker), relaxed load/store.
    uint64_t ewma = load.queue_ewma.load(std::memory_order_relaxed);
    load.queue_ewma.store(ewma - ewma / 4 + n * (kEwmaScale / 4),
                          std::memory_order_relaxed);
  }

  // Shared-gate state for the fast-path stretch of the batch. The paused
  // flags are loaded once per acquisition: both only ever change under the
  // exclusive gate, which cannot be taken while we hold it shared.
  bool shared_held = false;
  bool paused = false;
  bool recovering = false;

  size_t i = 0;
  while (i < n) {
    Message& msg = msgs[i];
    if (IsMaintenancePayload(msg.payload)) {
      // Leave the fast-path stretch: release the gate and flush replies for
      // the messages already processed (keeping reply order consistent with
      // arrival order), then handle the maintenance message exactly like the
      // single-message path.
      if (shared_held) {
        gate_.UnlockShared();
        shared_held = false;
        t_reply_stage = nullptr;
        FlushStagedReplies(scratch);
      }
      if (const auto* req = std::get_if<EpochChangeRequest>(&msg.payload)) {
        HandleEpochChangeRequest(msg.src, *req);
      } else if (const auto* ack = std::get_if<EpochChangeAck>(&msg.payload)) {
        HandleEpochChangeAck(*ack);
      } else if (const auto* complete = std::get_if<EpochChangeComplete>(&msg.payload)) {
        HandleEpochChangeComplete(msg.src, *complete);
      } else if (const auto* cack = std::get_if<EpochChangeCompleteAck>(&msg.payload)) {
        HandleEpochChangeCompleteAck(*cack);
      } else if (const auto* timer = std::get_if<TimerFire>(&msg.payload)) {
        HandleTimer(core, timer->timer_id);
      } else {
        HandleHostedBackupReply(core, msg);
      }
      i++;
      continue;
    }

    if (!shared_held) {
      gate_.LockShared();
      shared_held = true;
      recovering = waiting_recovery_.load(std::memory_order_acquire);
      paused = epoch_change_.load(std::memory_order_acquire) || recovering;
      scratch.replies.clear();
      t_reply_stage = &scratch.replies;
    }

    if (std::get_if<ValidateRequest>(&msg.payload) != nullptr) {
      if (paused) {
        i++;
        continue;
      }
      // Consecutive run of VALIDATEs: record bookkeeping and duplicate
      // detection per message (in arrival order), then one amortized OCC
      // sweep for the fresh ones. Replies are staged up front in arrival
      // order and the fresh ones patched with the sweep's verdicts, so the
      // observable reply stream is identical to sequential HandleValidate.
      TRecordPartition& part = trecord_.Partition(core);
      scratch.items.clear();
      scratch.records.clear();
      scratch.reply_idx.clear();
      while (i < n) {
        const auto* req = std::get_if<ValidateRequest>(&msgs[i].payload);
        if (req == nullptr) {
          break;
        }
        if (req->oldest_inflight.Valid()) {
          NoteClientMark(gc, req->oldest_inflight);
        }
        ValidateReply reply;
        reply.tid = req->tid;
        reply.from = id_;
        reply.epoch = epoch();
        TxnRecord* existing = part.Find(req->tid);
        if (existing != nullptr && existing->status != TxnStatus::kNone) {
          // Duplicate VALIDATE (retry): re-report the recorded vote without
          // re-running the checks — re-registration would corrupt
          // readers/writers.
          switch (existing->status) {
            case TxnStatus::kValidatedOk:
            case TxnStatus::kAcceptCommit:
            case TxnStatus::kCommitted:
              reply.status = TxnStatus::kValidatedOk;
              break;
            default:
              reply.status = TxnStatus::kValidatedAbort;
              break;
          }
        } else {
          // A retransmission landing in the same drained batch as its
          // original shows up here with status still kNone. End the run
          // before it: after the sweep writes verdicts, the next run's
          // duplicate check re-reports it like any other retry.
          bool in_run = false;
          for (TxnRecord* r : scratch.records) {
            if (r == existing && existing != nullptr) {
              in_run = true;
              break;
            }
          }
          if (in_run) {
            break;
          }
          if (existing == nullptr && req->ts.Valid() && req->ts < CoreWatermark(gc)) {
            // Retransmitted VALIDATE for an already-trimmed transaction: the
            // record is gone, but an abort vote is always OCC-safe and never
            // creates a record (see HandleValidate).
            reply.status = TxnStatus::kValidatedAbort;
            MetricIncr(kGcStaleValidates);
          } else if (req->priority == 0 && ShouldShed(load)) {
            // Overloaded: fast-reject without creating a record or running
            // OCC. The coordinator treats kRetryLater as a non-vote and the
            // client backs off by the piggybacked hint. Priority > 0
            // (aged retries) is exempt — those must not starve.
            reply.status = TxnStatus::kRetryLater;
            reply.backoff_hint_ns = ShedHintNanos(load);
            load.shed.fetch_add(1, std::memory_order_relaxed);
            MetricIncr(kShedValidates);
            MetricRecordValue(kShedHintNs, reply.backoff_hint_ns);
          } else {
            TxnRecord& rec = existing != nullptr ? *existing : part.GetOrCreate(req->tid);
            rec.ts = req->ts;
            rec.sets = req->sets;  // Adopt the coordinator's shared payload (no copy).
            ValidateBatchItem item;
            item.read_set = &rec.read_set();
            item.write_set = &rec.write_set();
            item.ts = rec.ts;
            scratch.items.push_back(item);
            scratch.records.push_back(&rec);
            scratch.reply_idx.push_back(static_cast<uint32_t>(scratch.replies.size()));
          }
        }
        AttachHints(core, &reply);
        Message out;
        out.src = Address::Replica(id_);
        out.dst = msgs[i].src;
        out.core = core;
        out.payload = std::move(reply);
        scratch.replies.push_back(std::move(out));
        i++;
      }
      if (!scratch.items.empty()) {
        MetricRecordValue(kValidateSweepWidth, scratch.items.size());
        if (scratch.items.size() == 1) {
          // Width-1 degenerates to the sequential routine: identical checks,
          // identical simulator cost profile, no scratch sweep overhead.
          ValidateBatchItem& item = scratch.items[0];
          item.status = OccValidate(store_, *item.read_set, *item.write_set, item.ts,
                                    &item.conflict_hash);
        } else {
          OccValidateBatch(store_, scratch.items.data(), scratch.items.size(), &scratch.occ);
        }
        for (size_t k = 0; k < scratch.items.size(); k++) {
          scratch.records[k]->status = scratch.items[k].status;
          auto& staged = std::get<ValidateReply>(scratch.replies[scratch.reply_idx[k]].payload);
          staged.status = scratch.items[k].status;
          staged.conflict_hash = scratch.items[k].conflict_hash;
        }
        // Every fresh record in the sweep went kNone -> non-final; it stays
        // inflight until HandleCommit finalizes it. Single-writer relaxed.
        load.inflight.fetch_add(static_cast<uint32_t>(scratch.items.size()),
                                std::memory_order_relaxed);
      }
      continue;
    }

    if (const auto* get = std::get_if<GetRequest>(&msg.payload)) {
      // Reads are served unless this replica has no state yet; an epoch
      // change only pauses validation (paper §5.3.1).
      if (!recovering) {
        HandleGet(core, msg.src, *get);
      }
    } else if (const auto* accept = std::get_if<AcceptRequest>(&msg.payload)) {
      if (!paused) {
        HandleAccept(core, msg.src, *accept);
      }
    } else if (const auto* commit = std::get_if<CommitRequest>(&msg.payload)) {
      if (!paused) {
        HandleCommit(core, msg.src, *commit);
      }
    } else if (const auto* cc = std::get_if<CoordChangeRequest>(&msg.payload)) {
      if (!paused) {
        HandleCoordChange(core, msg.src, *cc);
      }
    }
    i++;
  }

  if (shared_held) {
    gate_.UnlockShared();
    t_reply_stage = nullptr;
    FlushStagedReplies(scratch);
  }

  // Maintenance slot: one budgeted watermark-GC step every
  // gc_.interval_dispatches batches, after the gate is released and the
  // staged replies are on the wire.
  MaybeRunGc(core);
}

void MeerkatReplica::FlushStagedReplies(CoreScratch& scratch) {
  if (scratch.replies.empty()) {
    return;
  }
  // Steal the staged vector before handing it to the transport: a transport
  // that delivers synchronously (the simulator under direct drains) can
  // reenter DispatchBatch on this core, and the reentrant batch must find
  // the scratch quiescent. The swap dance preserves the warmed capacity.
  std::vector<Message> replies = std::move(scratch.replies);
  scratch.replies = std::vector<Message>();
  transport_->SendMany(replies.data(), replies.size());
  replies.clear();
  scratch.replies = std::move(replies);
}

ZCP_FAST_PATH void MeerkatReplica::HandleGet(CoreId core, const Address& from, const GetRequest& req) {
  ReadResult read = store_.Read(req.key);
  GetReply reply;
  reply.tid = req.tid;
  reply.req_seq = req.req_seq;
  reply.key = req.key;
  reply.found = read.found;
  reply.value = std::move(read.value);
  reply.wts = read.wts;
  Reply(from, core, std::move(reply));
}

// Shedding decision + hint: per-core relaxed reads only (ZCP-clean).
ZCP_FAST_PATH bool MeerkatReplica::ShouldShed(const CoreLoad& load) const {
  if (!overload_.enabled) {
    return false;
  }
  if (overload_.max_inflight_per_core != 0 &&
      load.inflight.load(std::memory_order_relaxed) >= overload_.max_inflight_per_core) {
    return true;
  }
  return overload_.queue_watermark != 0 &&
         load.queue_ewma.load(std::memory_order_relaxed) / kEwmaScale >=
             overload_.queue_watermark;
}

ZCP_FAST_PATH uint64_t MeerkatReplica::ShedHintNanos(const CoreLoad& load) const {
  // Scale the base hint with how deep into overload the core is, so clients
  // back off harder the worse the backlog (1x at the watermark, 2x at twice
  // the watermark, ...).
  uint32_t inflight = load.inflight.load(std::memory_order_relaxed);
  uint32_t cap = overload_.max_inflight_per_core != 0 ? overload_.max_inflight_per_core : 1;
  return overload_.base_backoff_hint_ns * (1 + inflight / cap);
}

// Recent-writes ring for client-cache invalidation hints (DESIGN.md §13).
// Plain per-core state: pushes (commit path) and drains (validate replies)
// both run on the owning core's worker, so no atomics are needed.
ZCP_FAST_PATH void MeerkatReplica::NoteRecentWrites(CoreId core,
                                                    const std::vector<WriteSetEntry>& write_set,
                                                    Timestamp ts) {
  if (!cache_.enabled || cache_.hint_ring == 0) {
    return;
  }
  CoreRecentWrites& rw = core_recent_writes_[core % core_recent_writes_.size()];
  for (const WriteSetEntry& w : write_set) {
    WriteHint h;
    h.key_hash = VStore::HashKey(w.key);
    h.wts = ts;
    if (rw.ring.size() < cache_.hint_ring) {
      rw.ring.push_back(h);
    } else {
      rw.ring[rw.next] = h;
    }
    rw.next = (rw.next + 1) % cache_.hint_ring;
    rw.total++;
  }
}

ZCP_FAST_PATH void MeerkatReplica::AttachHints(CoreId core, ValidateReply* reply) {
  if (!cache_.enabled || cache_.hint_ring == 0 || cache_.hints_per_reply == 0) {
    return;
  }
  const CoreRecentWrites& rw = core_recent_writes_[core % core_recent_writes_.size()];
  size_t count = rw.ring.size() < cache_.hints_per_reply ? rw.ring.size()
                                                         : cache_.hints_per_reply;
  if (count == 0) {
    return;
  }
  reply->hints.reserve(count);
  // Walk backwards from the newest slot so the freshest writes win the
  // reply's limited capacity. Non-destructive: every client validating while
  // a write is in the ring hears about it, not just the first.
  size_t slot = rw.next;
  for (size_t i = 0; i < count; i++) {
    slot = (slot == 0 ? rw.ring.size() : slot) - 1;
    reply->hints.push_back(rw.ring[slot]);
  }
}

ZCP_FAST_PATH void MeerkatReplica::HandleValidate(CoreId core, const Address& from,
                                    const ValidateRequest& req) {
  TRecordPartition& part = trecord_.Partition(core);
  CoreGc& gc = core_gc_[core % core_gc_.size()];
  if (req.oldest_inflight.Valid()) {
    NoteClientMark(gc, req.oldest_inflight);
  }
  ValidateReply reply;
  reply.tid = req.tid;
  reply.from = id_;
  reply.epoch = epoch();

  TxnRecord* existing = part.Find(req.tid);
  if (existing != nullptr && existing->status != TxnStatus::kNone) {
    // Duplicate VALIDATE (retry): re-report the recorded vote without
    // re-running the checks — re-registration would corrupt readers/writers.
    switch (existing->status) {
      case TxnStatus::kValidatedOk:
      case TxnStatus::kAcceptCommit:
      case TxnStatus::kCommitted:
        reply.status = TxnStatus::kValidatedOk;
        break;
      default:
        reply.status = TxnStatus::kValidatedAbort;
        break;
    }
    AttachHints(core, &reply);
    Reply(from, core, std::move(reply));
    return;
  }

  if (existing == nullptr && req.ts.Valid() && req.ts < CoreWatermark(gc)) {
    // Retransmitted VALIDATE for an already-trimmed transaction (the client
    // finished it and moved its oldest-inflight mark past this timestamp).
    // The record is gone, but an abort vote is always OCC-safe: a quorum
    // either already decided (this reply is then ignored) or will abort —
    // never wrongly, since aborting is always a permitted outcome of
    // validation. Crucially, no record is created, so the duplicate cannot
    // resurrect trimmed state.
    reply.status = TxnStatus::kValidatedAbort;
    MetricIncr(kGcStaleValidates);
    AttachHints(core, &reply);
    Reply(from, core, std::move(reply));
    return;
  }

  CoreLoad& load = core_load_[core % core_load_.size()];
  if (req.priority == 0 && ShouldShed(load)) {
    // Overloaded: fast-reject without creating a record (see DispatchBatch).
    reply.status = TxnStatus::kRetryLater;
    reply.backoff_hint_ns = ShedHintNanos(load);
    load.shed.fetch_add(1, std::memory_order_relaxed);
    MetricIncr(kShedValidates);
    MetricRecordValue(kShedHintNs, reply.backoff_hint_ns);
    AttachHints(core, &reply);
    Reply(from, core, std::move(reply));
    return;
  }

  TxnRecord& rec = part.GetOrCreate(req.tid);
  rec.ts = req.ts;
  rec.sets = req.sets;  // Adopt the coordinator's shared payload (no copy).
  rec.status = OccValidate(store_, rec.read_set(), rec.write_set(), rec.ts,
                           &reply.conflict_hash);
  reply.status = rec.status;
  AttachHints(core, &reply);
  load.inflight.fetch_add(1, std::memory_order_relaxed);
  Reply(from, core, std::move(reply));
}

ZCP_FAST_PATH void MeerkatReplica::HandleAccept(CoreId core, const Address& from, const AcceptRequest& req) {
  TRecordPartition& part = trecord_.Partition(core);
  TxnRecord& rec = part.GetOrCreate(req.tid);

  AcceptReply reply;
  reply.tid = req.tid;
  reply.view = req.view;
  reply.from = id_;
  reply.epoch = epoch();

  if (req.view < rec.view) {
    // A backup coordinator with a higher view has taken over this
    // transaction; the proposer must not count this replica.
    reply.ok = false;
    Reply(from, core, std::move(reply));
    return;
  }
  if (IsFinal(rec.status)) {
    // Already finalized; the proposal is only acceptable if it agrees.
    reply.ok = (rec.status == TxnStatus::kCommitted) == req.commit;
    Reply(from, core, std::move(reply));
    return;
  }

  // A replica that missed the VALIDATE learns the transaction here.
  if (!rec.ts.Valid()) {
    rec.ts = req.ts;
    rec.sets = req.sets;
  }
  if (rec.status == TxnStatus::kNone) {
    // Fresh record (this replica missed the VALIDATE): it becomes inflight
    // until HandleCommit finalizes it.
    core_load_[core % core_load_.size()].inflight.fetch_add(1, std::memory_order_relaxed);
  }
  rec.view = req.view;
  rec.accept_view = req.view;
  rec.accepted = true;
  rec.status = req.commit ? TxnStatus::kAcceptCommit : TxnStatus::kAcceptAbort;
  reply.ok = true;
  Reply(from, core, std::move(reply));
}

ZCP_FAST_PATH void MeerkatReplica::HandleCommit(CoreId core, const Address& /*from*/,
                                  const CommitRequest& req) {
  TRecordPartition& part = trecord_.Partition(core);
  CoreGc& gc = core_gc_[core % core_gc_.size()];
  if (req.oldest_inflight.Valid()) {
    NoteClientMark(gc, req.oldest_inflight);
  }
  TxnRecord* found = part.Find(req.tid);
  if (found == nullptr && req.ts.Valid() && req.ts < CoreWatermark(gc)) {
    // Duplicate write phase for an already-trimmed transaction. Dropping it
    // is indistinguishable from message loss, which the protocol tolerates;
    // the committed data lives in the store, not the trecord. Re-creating
    // the record here is exactly what made trimmed records immortal (the
    // unbounded-growth bug), so the absent+stale case must not GetOrCreate.
    MetricIncr(kGcStaleCommits);
    return;
  }
  TxnRecord& rec = found != nullptr ? *found : part.GetOrCreate(req.tid);
  if (IsFinal(rec.status)) {
    return;  // Duplicate COMMIT; the write phase already ran.
  }
  if (!rec.ts.Valid() && req.ts.Valid()) {
    // This replica missed the VALIDATE/ACCEPT; adopt the stamped commit
    // timestamp so the finalized record stays trimmable.
    rec.ts = req.ts;
  }
  if (rec.status != TxnStatus::kNone) {
    // Non-final -> final: the transaction leaves this core's inflight set.
    // Single-writer (this core), so the check-then-sub cannot race.
    CoreLoad& load = core_load_[core % core_load_.size()];
    if (load.inflight.load(std::memory_order_relaxed) > 0) {
      load.inflight.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (req.commit) {
    rec.status = TxnStatus::kCommitted;
    OccCommit(store_, rec.read_set(), rec.write_set(), rec.ts);
    NoteRecentWrites(core, rec.write_set(), rec.ts);
  } else {
    rec.status = TxnStatus::kAborted;
    OccCleanup(store_, rec.read_set(), rec.write_set(), rec.ts);
  }
}

ZCP_FAST_PATH void MeerkatReplica::HandleCoordChange(CoreId core, const Address& from,
                                       const CoordChangeRequest& req) {
  TRecordPartition& part = trecord_.Partition(core);
  TxnRecord& rec = part.GetOrCreate(req.tid);

  CoordChangeAck reply;
  reply.tid = req.tid;
  reply.from = id_;

  if (req.view < rec.view) {
    reply.ok = false;
    reply.view = rec.view;
    Reply(from, core, std::move(reply));
    return;
  }
  // Promise: ignore proposals below req.view from now on (Paxos prepare).
  rec.view = req.view;
  reply.ok = true;
  reply.view = req.view;
  if (rec.status != TxnStatus::kNone || rec.ts.Valid()) {
    reply.has_record = true;
    reply.record = rec.ToSnapshot(core);
  }
  Reply(from, core, std::move(reply));
}

void MeerkatReplica::InitiateEpochChange() {
  EpochNum new_epoch;
  {
    MutexLock lock(ec_mu_);
    new_epoch = epoch() + 1;
    ec_leading_ = true;
    ec_epoch_ = new_epoch;
    ec_acks_.clear();
    ec_complete_pending_ = false;
    ec_complete_acked_.clear();
    ec_retries_ = 0;
  }
  MetricIncr(kEpochChangesInitiated);
  TraceRecord(TxnId{}, TraceStep::kEpochChangeStart, static_cast<uint32_t>(new_epoch));
  for (ReplicaId r = 0; r < quorum_.n; r++) {
    Message msg;
    msg.src = Address::Replica(id_);
    msg.dst = Address::Replica(group_base_ + r);
    msg.core = 0;
    msg.payload = EpochChangeRequest{new_epoch};
    transport_->Send(std::move(msg));
  }
  ArmEpochTimer();
}

void MeerkatReplica::ArmEpochTimer() {
  if (!recovery_retry_.enabled()) {
    return;  // One-shot sends (lossless network / unit tests).
  }
  uint64_t delay;
  {
    MutexLock lock(ec_mu_);
    delay = recovery_retry_.DelayNanos(ec_retries_, ec_rng_);
  }
  transport_->SetTimer(Address::Replica(id_), /*core=*/0, delay, kEpochTimerId);
}

void MeerkatReplica::HandleEpochTimer() {
  // Retransmit whichever epoch-change round this replica is still driving.
  std::vector<ReplicaId> targets;
  Payload payload;
  {
    MutexLock lock(ec_mu_);
    if (!ec_leading_ && !ec_complete_pending_) {
      return;  // Epoch change finished (or this replica never led one).
    }
    if (++ec_retries_ > recovery_retry_.max_attempts) {
      // Give up; the operator / failure detector re-initiates. Leaving the
      // flags set would wedge a later InitiateEpochChange, so clear them.
      ec_leading_ = false;
      ec_complete_pending_ = false;
      return;
    }
    if (ec_leading_) {
      // Request round: re-poll replicas whose ack is missing.
      for (ReplicaId r = 0; r < quorum_.n; r++) {
        bool acked = false;
        for (const EpochChangeAck& a : ec_acks_) {
          if (a.from == group_base_ + r) {
            acked = true;
            break;
          }
        }
        if (!acked) {
          targets.push_back(group_base_ + r);
        }
      }
      payload = EpochChangeRequest{ec_epoch_};
    } else {
      // Complete round: re-push merged state until every replica confirmed.
      for (ReplicaId r = 0; r < quorum_.n; r++) {
        if (ec_complete_acked_.count(group_base_ + r) == 0) {
          targets.push_back(group_base_ + r);
        }
      }
      payload = ec_complete_;
    }
  }
  for (ReplicaId r : targets) {
    Message msg;
    msg.src = Address::Replica(id_);
    msg.dst = Address::Replica(r);
    msg.core = 0;
    msg.payload = payload;  // Copy per destination.
    transport_->Send(std::move(msg));
  }
  ArmEpochTimer();
}

ZCP_SLOW_PATH void MeerkatReplica::HandleTimer(CoreId core, uint64_t timer_id) {
  if (timer_id >= kEpochTimerId) {
    HandleEpochTimer();
    return;
  }
  if (timer_id < kBackupTimerBase) {
    return;  // Not a replica-side timer.
  }
  // Hosted backup coordinator timer. Bases are spaced 4 apart and phase
  // offsets are 0/1, so exactly one coordinator claims any given id.
  std::unique_ptr<BackupCoordinator> finished;
  MutexLock lock(backups_mu_);
  auto& backups = hosted_backups_[core % hosted_backups_.size()];
  for (auto it = backups.begin(); it != backups.end(); ++it) {
    if (it->second->OnTimer(timer_id)) {
      if (it->second->done()) {
        // Keep the object alive until after this frame unwinds.
        finished = std::move(it->second);
        backups.erase(it);
      }
      break;
    }
  }
}

EpochChangeAck MeerkatReplica::BuildEpochAck(EpochNum epoch) {
  EpochChangeAck ack;
  ack.epoch = epoch;
  ack.from = id_;
  ack.recovering = waiting_recovery_.load(std::memory_order_acquire);
  ack.records = trecord_.SnapshotAll();
  store_.ForEachCommitted(
      [&ack](const std::string& key, const std::string& value, Timestamp wts) {
        ack.store_state.push_back(WriteSetEntry{key, value});
        ack.store_versions.push_back(wts);
      });
  return ack;
}

ZCP_SLOW_PATH void MeerkatReplica::HandleEpochChangeRequest(const Address& from,
                                              const EpochChangeRequest& req) {
  if (req.epoch < epoch()) {
    return;  // Stale epoch-change request.
  }
  if (req.epoch == epoch() && !epoch_change_.load(std::memory_order_acquire)) {
    // The change for this epoch already completed here; the leader's request
    // is a retransmission racing the Complete it already sent. Nothing to do.
    return;
  }
  // First request for this epoch — or a retransmission after our ack was
  // lost. Rebuilding the ack is idempotent: validation is paused, so the
  // snapshot cannot have advanced.
  gate_.LockExclusive();
  epoch_.store(req.epoch, std::memory_order_release);
  epoch_change_.store(true, std::memory_order_release);
  EpochChangeAck ack = BuildEpochAck(req.epoch);
  gate_.UnlockExclusive();
  Reply(from, 0, std::move(ack));
}

ZCP_SLOW_PATH void MeerkatReplica::HandleEpochChangeAck(const EpochChangeAck& ack) {
  std::vector<EpochChangeAck> quorum_acks;
  {
    MutexLock lock(ec_mu_);
    if (!ec_leading_ || ack.epoch != ec_epoch_) {
      return;
    }
    for (const EpochChangeAck& existing : ec_acks_) {
      if (existing.from == ack.from) {
        return;  // Duplicate.
      }
    }
    ec_acks_.push_back(ack);
    // The merge quorum must consist of replicas that still hold their state;
    // a recovering replica participates but contributes no evidence.
    size_t with_state = 0;
    for (const EpochChangeAck& a : ec_acks_) {
      if (!a.recovering) {
        with_state++;
      }
    }
    if (with_state < quorum_.Majority()) {
      return;
    }
    ec_leading_ = false;
    for (const EpochChangeAck& a : ec_acks_) {
      if (!a.recovering) {
        quorum_acks.push_back(a);
      }
    }
  }

  MergedEpochState merged = MergeEpochState(quorum_, quorum_acks);
  EpochChangeComplete complete;
  complete.epoch = ack.epoch;
  complete.records = std::move(merged.records);
  complete.store_state = std::move(merged.store_state);
  complete.store_versions = std::move(merged.store_versions);
  {
    // Retain the merged payload for retransmission until every replica
    // confirms adoption (the epoch timer drives the re-sends; the retry
    // counter restarts for the complete round).
    MutexLock lock(ec_mu_);
    ec_complete_ = complete;
    ec_complete_pending_ = true;
    ec_complete_acked_.clear();
    ec_retries_ = 0;
  }
  for (ReplicaId r = 0; r < quorum_.n; r++) {
    Message msg;
    msg.src = Address::Replica(id_);
    msg.dst = Address::Replica(group_base_ + r);
    msg.core = 0;
    msg.payload = complete;  // Copy per destination.
    transport_->Send(std::move(msg));
  }
}

ZCP_SLOW_PATH void MeerkatReplica::HandleEpochChangeComplete(const Address& from,
                                               const EpochChangeComplete& msg) {
  if (msg.epoch < epoch()) {
    return;
  }
  if (msg.epoch == epoch() && !epoch_change_.load(std::memory_order_acquire) &&
      !waiting_recovery_.load(std::memory_order_acquire)) {
    // Duplicate Complete for an epoch already adopted (our ack was lost).
    // Re-adopting would be correct but wasteful; just re-ack.
    Reply(from, 0, EpochChangeCompleteAck{msg.epoch, id_});
    return;
  }
  gate_.LockExclusive();
  AdoptEpochState(msg.epoch, msg.records, msg.store_state, msg.store_versions);
  gate_.UnlockExclusive();
  Reply(from, 0, EpochChangeCompleteAck{msg.epoch, id_});
}

ZCP_SLOW_PATH void MeerkatReplica::HandleEpochChangeCompleteAck(const EpochChangeCompleteAck& ack) {
  MutexLock lock(ec_mu_);
  if (!ec_complete_pending_ || ack.epoch != ec_epoch_) {
    return;
  }
  ec_complete_acked_.insert(ack.from);
  if (ec_complete_acked_.size() >= quorum_.n) {
    ec_complete_pending_ = false;  // Everyone adopted; stop retransmitting.
    ec_complete_ = EpochChangeComplete{};
  }
}

void MeerkatReplica::AdoptEpochState(EpochNum epoch,
                                     const std::vector<TxnRecordSnapshot>& records,
                                     const std::vector<WriteSetEntry>& store_state,
                                     const std::vector<Timestamp>& store_versions) {
  epoch_.store(epoch, std::memory_order_release);
  // Every in-flight transaction was force-finalized by the merge; pending
  // registrations from the old epoch are void.
  store_.ClearPendingAll();
  for (size_t i = 0; i < store_state.size(); i++) {
    store_.LoadKey(store_state[i].key, store_state[i].value, store_versions[i]);
  }
  trecord_.ReplaceAll(records);
  for (const TxnRecordSnapshot& rec : records) {
    if (rec.status == TxnStatus::kCommitted) {
      // Install (Thomas rule makes this idempotent) and bump read stamps.
      OccCommit(store_, rec.read_set, rec.write_set, rec.ts);
    }
  }
  RecomputeLoadCounters();
  // Watermarks and client marks predate the adopted trecord; restart GC from
  // scratch so stale marks cannot trim records the merge just installed.
  ResetGcState();
  epoch_change_.store(false, std::memory_order_release);
  waiting_recovery_.store(false, std::memory_order_release);
  MetricIncr(kEpochAdoptions);
  TraceRecord(TxnId{}, TraceStep::kEpochAdopted, static_cast<uint32_t>(epoch));
}

void MeerkatReplica::RecomputeLoadCounters() {
  // The adopted trecord replaced every partition wholesale; rebuild each
  // core's inflight count from what the merged state actually holds, and
  // reset the queue proxy (old-epoch backlog is meaningless now).
  for (size_t c = 0; c < core_load_.size(); c++) {
    uint32_t inflight = 0;
    if (c < num_cores_) {
      trecord_.Partition(static_cast<CoreId>(c)).ForEach([&inflight](const TxnRecord& rec) {
        if (rec.status != TxnStatus::kNone && !IsFinal(rec.status)) {
          inflight++;
        }
      });
    }
    core_load_[c].inflight.store(inflight, std::memory_order_relaxed);
    core_load_[c].queue_ewma.store(0, std::memory_order_relaxed);
  }
}

// Records a client's piggybacked oldest-inflight stamp. Open-addressed
// linear probing keyed on the stamp's client id; the table belongs to the
// owning core alone, so this is plain single-thread code on the fast path.
ZCP_FAST_PATH void MeerkatReplica::NoteClientMark(CoreGc& gc, Timestamp stamp) {
  const size_t cap = gc.marks.size();
  const uint64_t ttl = gc_.client_mark_ttl_ns;
  const uint64_t now = ttl != 0 ? MetricsNowNanos() : 0;
  size_t slot = (stamp.client_id * 2654435761u) % cap;
  // First TTL-expired slot seen while probing: the insert fallback when the
  // client is new and no empty slot terminates its probe chain. Overwriting
  // an expired entry mid-chain can briefly shadow a duplicate further along;
  // the shadowed (older, lower) mark only holds the watermark back until it
  // expires — conservative, never unsafe.
  size_t reuse = cap;
  for (size_t probes = 0; probes < cap; probes++) {
    ClientMark& m = gc.marks[slot];
    if (!m.mark.Valid()) {
      m.mark = stamp;
      m.seen_ns = now;
      gc.tracked++;
      return;
    }
    if (m.mark.client_id == stamp.client_id) {
      m.mark = stamp;
      m.seen_ns = now;
      return;
    }
    if (reuse == cap && ttl != 0 && now - m.seen_ns > ttl) {
      reuse = slot;
    }
    slot = slot + 1 == cap ? 0 : slot + 1;
  }
  if (reuse != cap) {
    gc.marks[reuse].mark = stamp;
    gc.marks[reuse].seen_ns = now;
    return;
  }
  // Table full: drop the mark. Safe — an untracked client never advances the
  // watermark past anyone, it just isn't protected from the other clients
  // advancing it past *its* in-flight timestamps, which at worst turns its
  // retransmissions into (always-permitted) abort votes. The counter flags
  // an undersized max_tracked_clients.
  MetricIncr(kGcClientTableFull);
}

ZCP_FAST_PATH void MeerkatReplica::MaybeRunGc(CoreId core) {
  if (!gc_.enabled || num_cores_ == 0) {
    return;
  }
  CoreGc& gc = core_gc_[core % core_gc_.size()];
  uint64_t gen = gc.reset_gen.load(std::memory_order_acquire);
  if (gen != gc.seen_reset_gen) {
    gc.seen_reset_gen = gen;
    SelfResetGc(gc);  // Epoch adoption / restart: drop pre-reset marks.
    return;
  }
  if (++gc.dispatches < gc_.interval_dispatches) {
    return;
  }
  gc.dispatches = 0;
  RunGcStep(core, gc);
}

ZCP_SLOW_PATH void MeerkatReplica::RunGcStep(CoreId core, CoreGc& gc) {
  // Fold the live client marks into a watermark candidate: the min over the
  // marks is the oldest timestamp any tracked client may still retransmit.
  Timestamp min_mark;
  Timestamp max_mark;
  bool any = false;
  const uint64_t ttl = gc_.client_mark_ttl_ns;
  const uint64_t now = ttl != 0 ? MetricsNowNanos() : 0;
  for (const ClientMark& m : gc.marks) {
    if (!m.mark.Valid()) {
      continue;
    }
    if (ttl != 0 && now - m.seen_ns > ttl) {
      continue;  // Crashed or idle client: its stale mark must not pin W.
    }
    if (!any || m.mark < min_mark) {
      min_mark = m.mark;
    }
    if (!any || max_mark < m.mark) {
      max_mark = m.mark;
    }
    any = true;
  }

  // Publish monotonically: once duplicates are answered from W, a regressed
  // mark (message reordering, a newly tracked slow client) must not lower it
  // — records below W are already gone. W only resets with the trecord
  // itself (epoch adoption, crash-restart).
  Timestamp wm = CoreWatermark(gc);
  if (any && wm < min_mark) {
    gc.watermark_time.store(min_mark.time, std::memory_order_relaxed);
    gc.watermark_client.store(min_mark.client_id, std::memory_order_relaxed);
    wm = min_mark;
  }
  if (any) {
    MetricRecordValue(kGcWatermarkLagNs,
                      max_mark.time > wm.time ? max_mark.time - wm.time : 0);
  }
  if (!wm.Valid()) {
    return;  // No client information yet: nothing is provably finished.
  }

  // Non-final records stuck more than orphan_grace_ns below the watermark
  // have a dead coordinator with high probability: every live client has
  // moved past them, yet no COMMIT/ABORT arrived.
  Timestamp orphan_below;
  if (gc_.orphan_grace_ns < wm.time) {
    orphan_below = Timestamp{wm.time - gc_.orphan_grace_ns, 0};
  }

  gc.orphans.clear();
  gate_.LockShared();
  if (epoch_change_.load(std::memory_order_acquire) ||
      waiting_recovery_.load(std::memory_order_acquire)) {
    gate_.UnlockShared();
    return;  // Paused: the epoch machinery owns the trecord right now.
  }
  TRecordPartition::TrimStepResult res = trecord_.Partition(core).TrimStep(
      wm, gc_.trim_budget, &gc.cursor, orphan_below, &gc.orphans);
  gate_.UnlockShared();

  const uint64_t pass = gc.trim_passes.fetch_add(1, std::memory_order_relaxed) + 1;
  MetricIncr(kGcTrimPasses);
  if (!res.wrapped) {
    // Budget ran out mid-partition; the cursor resumes there next pass.
    MetricIncr(kGcBudgetExhausted);
  }
  if (!gc.orphans.empty()) {
    // Cooldown filter: a transaction swept at pass P is not re-swept before
    // P + kOrphanRetryCooldownPasses. The window matters because the sweep
    // races the recovery it started: the backup retires as soon as it
    // broadcasts COMMIT, but until that COMMIT lands the record sits
    // non-final (re-created by the recovery's own ACCEPT) below the orphan
    // threshold, and an uncooled re-sweep livelocks — one full recovery per
    // pass, forever. A record still non-final after the cooldown (lost
    // COMMIT, dead backup) is legitimately re-swept.
    size_t kept = 0;
    for (const auto& orphan : gc.orphans) {
      bool cooling = false;
      bool tracked = false;
      for (CoreGc::RecentOrphan& r : gc.recent_orphans) {
        if (r.pass != 0 && r.tid == orphan.first) {
          tracked = true;
          if (pass < r.pass + kOrphanRetryCooldownPasses) {
            cooling = true;
          } else {
            r.pass = pass;  // Retry now; next retry another cooldown out.
          }
          break;
        }
      }
      if (!tracked) {
        gc.recent_orphans[gc.recent_next] = {orphan.first, pass};
        gc.recent_next = (gc.recent_next + 1) % gc.recent_orphans.size();
      }
      if (!cooling) {
        gc.orphans[kept++] = orphan;
      }
    }
    gc.orphans.resize(kept);
  }
  if (!gc.orphans.empty()) {
    MetricIncr(kGcOrphanRecoveries, StartOrphanRecoveries(core, gc.orphans));
    gc.orphans.clear();
  }
}

ZCP_SLOW_PATH size_t MeerkatReplica::StartOrphanRecoveries(
    CoreId core, const std::vector<std::pair<TxnId, ViewNum>>& orphans) {
  size_t started = 0;
  MutexLock lock(backups_mu_);
  auto& backups = hosted_backups_[core % hosted_backups_.size()];
  for (const auto& [tid, cur_view] : orphans) {
    if (backups.count(tid) != 0) {
      continue;  // Recovery already in flight.
    }
    // Smallest view above the record's for which this replica is the
    // designated proposer: view mod n == id (paper 5.3.2).
    ViewNum view = cur_view + 1;
    while (view % quorum_.n != id_ - group_base_) {
      view++;
    }
    // Each hosted backup gets a disjoint timer-id base (spaced 4 apart;
    // phases use offsets 0/1) so HandleTimer can route fires unambiguously.
    uint64_t timer_base = kBackupTimerBase + (backup_seq_++) * 4;
    auto backup = std::make_unique<BackupCoordinator>(
        transport_, Address::Replica(id_), quorum_, core, tid, view,
        recovery_retry_, timer_base);
    backup->set_group_base(group_base_);
    backup->Start();
    backups.emplace(tid, std::move(backup));
    started++;
  }
  return started;
}

void MeerkatReplica::ResetGcState() {
  // Runs on the epoch-change/restart thread while other cores may be mid-
  // dispatch: only the atomics are touched here; each core's plain fields
  // are reset by the core itself when it observes the reset_gen bump
  // (MaybeRunGc). Clearing W immediately is fine — a racing core's fold can
  // at worst re-publish a W derived from pre-reset client marks, which are
  // still truthful lower bounds on what those clients may retransmit.
  for (CoreGc& gc : core_gc_) {
    gc.watermark_time.store(0, std::memory_order_relaxed);
    gc.watermark_client.store(0, std::memory_order_relaxed);
    gc.reset_gen.fetch_add(1, std::memory_order_release);
  }
}

void MeerkatReplica::SelfResetGc(CoreGc& gc) {
  for (ClientMark& m : gc.marks) {
    m = ClientMark{};
  }
  gc.tracked = 0;
  gc.cursor = 0;
  gc.dispatches = 0;
  for (CoreGc::RecentOrphan& r : gc.recent_orphans) {
    r = CoreGc::RecentOrphan{};
  }
  gc.recent_next = 0;
}

ZCP_SLOW_PATH void MeerkatReplica::HandleHostedBackupReply(CoreId core, const Message& msg) {
  TxnId tid;
  if (const auto* ack = std::get_if<CoordChangeAck>(&msg.payload)) {
    tid = ack->tid;
  } else if (const auto* reply = std::get_if<AcceptReply>(&msg.payload)) {
    tid = reply->tid;
  } else {
    return;
  }
  std::unique_ptr<BackupCoordinator> finished;
  {
    MutexLock lock(backups_mu_);
    auto& backups = hosted_backups_[core % hosted_backups_.size()];
    auto it = backups.find(tid);
    if (it == backups.end()) {
      return;
    }
    it->second->OnMessage(msg);
    if (it->second->done()) {
      // Keep the object alive until after this frame unwinds.
      finished = std::move(it->second);
      backups.erase(it);
    }
  }
}

size_t MeerkatReplica::RecoverOrphanedTransactions(Timestamp older_than) {
  size_t started = 0;
  gate_.LockExclusive();  // Quiesce cores so the trecord scan is safe.
  for (CoreId core = 0; core < num_cores_; core++) {
    std::vector<std::pair<TxnId, ViewNum>> orphans;
    trecord_.Partition(core).ForEach([&](const TxnRecord& rec) {
      if (!IsFinal(rec.status) && rec.status != TxnStatus::kNone && rec.ts.Valid() &&
          rec.ts <= older_than) {
        orphans.push_back({rec.tid, rec.view});
      }
    });
    started += StartOrphanRecoveries(core, orphans);
  }
  gate_.UnlockExclusive();
  return started;
}

size_t MeerkatReplica::hosted_backup_count() const {
  MutexLock lock(backups_mu_);
  size_t n = 0;
  for (const auto& backups : hosted_backups_) {
    n += backups.size();
  }
  return n;
}

void MeerkatReplica::CrashAndRestart() {
  MetricIncr(kReplicaRestarts);
  gate_.LockExclusive();
  store_.ClearAll();
  for (size_t core = 0; core < num_cores_; core++) {
    trecord_.Partition(static_cast<CoreId>(core)).Clear();
  }
  // Volatile state includes the epoch number; the replica relearns it from
  // the epoch change that readmits it.
  epoch_.store(0, std::memory_order_release);
  for (CoreLoad& load : core_load_) {
    load.inflight.store(0, std::memory_order_relaxed);
    load.queue_ewma.store(0, std::memory_order_relaxed);
  }
  ResetGcState();  // GC state is volatile like everything else here.
  waiting_recovery_.store(true, std::memory_order_release);
  gate_.UnlockExclusive();
  {
    // Hosted backup coordinators and any epoch-change leadership are volatile
    // too; pending timers for them fire into the void (HandleTimer finds no
    // claimant) and are harmless.
    MutexLock lock(backups_mu_);
    for (auto& backups : hosted_backups_) {
      backups.clear();
    }
  }
  {
    MutexLock lock(ec_mu_);
    ec_leading_ = false;
    ec_complete_pending_ = false;
    ec_acks_.clear();
    ec_complete_acked_.clear();
    ec_complete_ = EpochChangeComplete{};
  }
}

}  // namespace meerkat
