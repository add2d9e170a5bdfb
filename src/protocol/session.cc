#include "src/protocol/session.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/trace.h"
#include "src/store/vstore.h"

namespace meerkat {

MeerkatSession::MeerkatSession(uint32_t client_id, Transport* transport,
                               TimeSource* time_source, const SessionOptions& options,
                               uint64_t seed)
    : client_id_(client_id), transport_(transport), options_(options),
      retry_(options.retry), self_(Address::Client(client_id)),
      clock_(time_source, options.clock_skew_ns, options.clock_jitter_ns, seed ^ 0x5bd1e995),
      rng_(seed), time_source_(time_source),
      cache_(options.cache != nullptr && options.cache->enabled() ? options.cache : nullptr),
      shards_(options.num_shards) {
  for (size_t shard = 0; shard < shards_.size(); shard++) {
    auto coordinator =
        std::make_unique<CommitCoordinator>(transport_, self_, options_.quorum, retry_);
    coordinator->set_group_base(static_cast<ReplicaId>(shard * options_.quorum.n));
    coordinator->set_force_slow_path(options_.force_slow_path);
    coordinator->set_cache(cache_);  // Piggybacked invalidation hints.
    shards_[shard].coordinator = std::move(coordinator);
  }
  transport_->RegisterClient(client_id_, this);
}

MeerkatSession::~MeerkatSession() { transport_->UnregisterClient(client_id_); }

void MeerkatSession::ExecuteAsync(TxnPlan plan, TxnCallback cb) {
  RecursiveMutexLock lock(mu_);
  assert(!active_ && "MeerkatSession runs one transaction at a time");
  active_ = true;
  plan_ = std::move(plan);
  callback_ = std::move(cb);
  next_op_ = 0;
  txn_seq_++;
  last_tid_ = TxnId{client_id_, txn_seq_};
  txn_start_ns_ = time_source_->NowNanos();
  core_ = static_cast<CoreId>(rng_.NextBounded(options_.cores_per_replica));
  read_set_.clear();
  read_values_.Clear();
  write_buffer_.clear();
  get_outstanding_ = false;
  get_retries_ = 0;
  txn_retransmits_ = 0;
  TraceRecord(last_tid_, TraceStep::kTxnStart, static_cast<uint32_t>(plan_.ops.size()));
  IssueNextOp();
}

void MeerkatSession::IssueNextOp() {
  while (next_op_ < plan_.ops.size()) {
    const Op& op = plan_.ops[next_op_];
    switch (op.kind) {
      case Op::Kind::kPut:
        stats_.writes++;
        write_buffer_[op.key] = op.value;
        next_op_++;
        continue;
      case Op::Kind::kRmw:
      case Op::Kind::kGet: {
        stats_.reads++;
        // Read-your-own-writes and repeat reads are served locally; neither
        // adds a read-set entry beyond the first network read of the key.
        const std::string* repeat = read_values_.Find(op.key);
        if (write_buffer_.count(op.key) != 0 || repeat != nullptr) {
          if (op.kind == Op::Kind::kRmw) {
            stats_.writes++;
            auto buffered = write_buffer_.find(op.key);
            const std::string& base =
                buffered != write_buffer_.end() ? buffered->second : *repeat;
            write_buffer_[op.key] = op.WriteValue(base);
          }
          next_op_++;
          continue;
        }
        // Inter-transaction cache (DESIGN.md §13): an unexpired lease serves
        // the read with zero network — the entry still joins the read set
        // with its cached wts, so commit-time validation backstops staleness.
        if (cache_ != nullptr) {
          ClientCache::Hit hit;
          if (cache_->Lookup(op.key, time_source_->NowNanos(), &hit)) {
            TraceRecord(last_tid_, TraceStep::kCachedRead,
                        static_cast<uint32_t>(read_set_.size()));
            read_set_.push_back(ReadSetEntry{op.key, hit.wts});
            const std::string& value = read_values_.Insert(op.key, hit.value);
            if (op.kind == Op::Kind::kRmw) {
              stats_.writes++;
              write_buffer_[op.key] = op.WriteValue(value);
            }
            next_op_++;
            continue;
          }
        }
        SendGet(op.key);
        return;  // Resume on GetReply.
      }
    }
  }
  StartCommit();
}

void MeerkatSession::SendGet(const std::string& key) {
  get_outstanding_ = true;
  get_seq_++;
  get_key_ = key;
  Message msg;
  msg.src = self_;
  // The execute phase reads from an arbitrary replica of the key's shard
  // (paper §5.2.1); GETs load-balance across replicas and cores (paper §6.2).
  size_t shard_base = ShardForKey(key, shards_.size()) * options_.quorum.n;
  msg.dst = Address::Replica(
      static_cast<ReplicaId>(shard_base + rng_.NextBounded(options_.quorum.n)));
  msg.core = static_cast<CoreId>(rng_.NextBounded(options_.cores_per_replica));
  msg.payload = GetRequest{last_tid_, get_seq_, key};
  TraceRecord(last_tid_, TraceStep::kGetSent, static_cast<uint32_t>(get_seq_));
  transport_->Send(std::move(msg));
  if (retry_.enabled()) {
    transport_->SetTimer(self_, 0, retry_.DelayNanos(get_retries_, rng_), get_seq_);
  }
}

void MeerkatSession::StartCommit() {
  last_ts_ = Timestamp{clock_.Now(), client_id_};

  // Partition the transaction by shard: every involved shard validates its
  // slice at the same timestamp, in parallel.
  for (const ReadSetEntry& read : read_set_) {
    std::vector<ReadSetEntry>& reads = shards_[ShardForKey(read.key, shards_.size())].reads;
    if (reads.empty()) {
      reads.reserve(read_set_.size());
    }
    reads.push_back(read);
  }
  for (const auto& [key, value] : write_buffer_) {
    std::vector<WriteSetEntry>& writes = shards_[ShardForKey(key, shards_.size())].writes;
    if (writes.empty()) {
      writes.reserve(write_buffer_.size());
    }
    writes.push_back(WriteSetEntry{key, value});
  }
  for (uint32_t shard = 0; shard < shards_.size(); shard++) {
    if (!shards_[shard].reads.empty() || !shards_[shard].writes.empty()) {
      involved_.push_back(shard);
    }
  }
  if (involved_.empty()) {
    involved_.push_back(0);  // An empty transaction still runs one round.
  }
  for (uint32_t shard : involved_) {
    ShardSlot& slot = shards_[shard];
    CommitCoordinator& coordinator = *slot.coordinator;
    coordinator.set_priority(plan_.priority);
    coordinator.Start(core_, last_tid_, last_ts_, std::move(slot.reads), std::move(slot.writes),
                      kCoordTimerBase + (txn_seq_ * shards_.size() + shard) * 4);
    slot.reads.clear();  // Moved-from: empty them for the next partition.
    slot.writes.clear();
  }
}

void MeerkatSession::MaybeFinishCommit() {
  for (uint32_t shard : involved_) {
    if (!shards_[shard].coordinator->done()) {
      return;
    }
  }
  TxnOutcome out;
  out.result = TxnResult::kCommit;
  out.path = CommitPath::kFast;
  out.tid = last_tid_;
  out.commit_ts = last_ts_;
  out.retransmits = txn_retransmits_;
  for (uint32_t shard : involved_) {
    const CommitOutcome& outcome = shards_[shard].coordinator->outcome();
    // A failed shard makes the attempt fail; otherwise any abort aborts it.
    // A shed shard's kOverload dominates other abort reasons: retry loops
    // must back off, not treat it as a data conflict.
    if (outcome.result == TxnResult::kFailed && out.result != TxnResult::kFailed) {
      out.result = TxnResult::kFailed;
      out.reason = outcome.reason;
    } else if (outcome.result == TxnResult::kAbort && out.result == TxnResult::kCommit) {
      out.result = TxnResult::kAbort;
      out.reason = outcome.reason;
    }
    if (out.result == TxnResult::kAbort && outcome.reason == AbortReason::kOverload) {
      out.reason = AbortReason::kOverload;
    }
    // The slowest shard names the path: kNone (no decision round) over kSlow
    // over kFast.
    if (out.path != CommitPath::kNone && outcome.path != CommitPath::kFast) {
      out.path = outcome.path;
    }
    out.retransmits += outcome.retransmits;
    out.recovered = out.recovered || outcome.epoch_bumped;
    out.backoff_hint_ns = std::max(out.backoff_hint_ns, outcome.backoff_hint_ns);
    if (out.conflict_hash == 0) {
      out.conflict_hash = outcome.conflict_hash;  // First shard to name a key wins.
    }
  }
  if (out.result == TxnResult::kAbort && out.reason == AbortReason::kOccConflict &&
      involved_.size() > 1) {
    // With several shards involved, the conjunction (atomic commitment) is
    // what killed the transaction in the shards that voted to commit.
    out.reason = AbortReason::kShardAbort;
  }
  // Atomic commitment: commit iff every shard's validation round committed.
  // A shard whose coordinator failed gets no decision — a backup coordinator
  // may own it, and replicas keep whichever final status arrives first.
  for (uint32_t shard : involved_) {
    CommitCoordinator& coordinator = *shards_[shard].coordinator;
    if (coordinator.outcome().result != TxnResult::kFailed) {
      coordinator.BroadcastFinal(out.result == TxnResult::kCommit);
    }
  }
  OnCommitDone(std::move(out));
}

void MeerkatSession::OnCommitDone(TxnOutcome out) {
  if (out.result != TxnResult::kCommit && out.conflict_hash != 0) {
    // Abort-reason fidelity: resolve the replica-reported hash back to a key
    // of this transaction's sets (reads first — that's the cache-relevant
    // case; a write-protect conflict names a written key instead).
    for (const ReadSetEntry& r : read_set_) {
      if (VStore::HashKey(r.key) == out.conflict_hash) {
        out.conflict_key = r.key;
        if (cache_ != nullptr) {
          // Dynamic self-invalidation: drop the offending key and teach the
          // cache it is contended so hot-written keys stop being cached.
          TraceRecord(last_tid_, TraceStep::kCacheAbortEvict, 0);
          cache_->EvictForAbort(r.key, out.conflict_hash);
        }
        break;
      }
    }
    if (out.conflict_key.empty()) {
      for (const auto& [key, value] : write_buffer_) {
        if (VStore::HashKey(key) == out.conflict_hash) {
          out.conflict_key = key;
          break;
        }
      }
    }
  }
  if (cache_ != nullptr && out.result == TxnResult::kCommit) {
    // Read-your-own-writes across transactions: the committed writes are the
    // newest versions (modulo a concurrent winner, which OCC would catch on
    // the next use) — cache them with the commit timestamp.
    uint64_t now_ns = time_source_->NowNanos();
    for (const auto& [key, value] : write_buffer_) {
      cache_->Insert(key, VStore::HashKey(key), value, last_ts_, now_ns);
    }
  }
  FinishTxn(out);
}

void MeerkatSession::FailTxn(AbortReason reason) {
  for (uint32_t shard : involved_) {
    txn_retransmits_ += shards_[shard].coordinator->outcome().retransmits;
  }
  TxnOutcome out;
  out.result = TxnResult::kFailed;
  out.reason = reason;
  out.tid = last_tid_;
  out.retransmits = txn_retransmits_;
  FinishTxn(out);
}

void MeerkatSession::FinishTxn(const TxnOutcome& outcome) {
  switch (outcome.result) {
    case TxnResult::kCommit:
      TraceRecord(last_tid_, TraceStep::kTxnCommitted, outcome.fast_path() ? 1 : 0);
      stats_.committed++;
      if (outcome.fast_path()) {
        stats_.fast_path_commits++;
      } else {
        stats_.slow_path_commits++;
      }
      break;
    case TxnResult::kAbort:
      TraceRecord(last_tid_, TraceStep::kTxnAborted, static_cast<uint32_t>(outcome.reason));
      stats_.aborted++;
      break;
    case TxnResult::kFailed:
      TraceRecord(last_tid_, TraceStep::kTxnFailed, static_cast<uint32_t>(outcome.reason));
      stats_.failed++;
      break;
  }
  stats_.retransmits += outcome.retransmits;
  if (outcome.reason == AbortReason::kNoQuorum || outcome.reason == AbortReason::kDeadline) {
    stats_.timeouts++;
  }
  if (outcome.recovered) {
    stats_.recoveries++;
  }
  stats_.commit_latency.Record(time_source_->NowNanos() - txn_start_ns_);
  active_ = false;
  involved_.clear();
  TxnCallback cb = std::move(callback_);
  callback_ = nullptr;
  if (cb) {
    cb(outcome);
  }
  // The transport may still hold this decision's COMMITs (the UDP wire
  // corks them for this thread's next send, which a callback that starts
  // the next transaction has just made). Flush under mu_: a request this
  // session sends later from another thread waits for mu_ in ExecuteAsync,
  // so it cannot reach a replica core ahead of the COMMIT.
  transport_->Flush();
}

bool MeerkatSession::DeadlineExceeded() const {
  return retry_.attempt_deadline_ns != 0 &&
         time_source_->NowNanos() - txn_start_ns_ > retry_.attempt_deadline_ns;
}

void MeerkatSession::Receive(Message&& msg) {
  RecursiveMutexLock lock(mu_);
  if (const auto* reply = std::get_if<GetReply>(&msg.payload)) {
    if (!active_ || !get_outstanding_ || reply->req_seq != get_seq_) {
      return;  // Stale or duplicate read reply.
    }
    get_outstanding_ = false;
    get_retries_ = 0;
    TraceRecord(last_tid_, TraceStep::kGetReply, static_cast<uint32_t>(reply->req_seq));
    const Op& op = plan_.ops[next_op_];
    // A read of a never-written key carries the zero timestamp: validation
    // will catch any write that commits under it.
    Timestamp read_wts = reply->found ? reply->wts : kInvalidTimestamp;
    read_set_.push_back(ReadSetEntry{reply->key, read_wts});
    const std::string& value =
        read_values_.Insert(reply->key, reply->found ? reply->value : std::string());
    if (cache_ != nullptr) {
      // Populate the inter-transaction cache. A not-found read is cached too
      // (value "", invalid wts — which orders below every real version, so a
      // later write is always detected at validation).
      cache_->Insert(reply->key, VStore::HashKey(reply->key), value, read_wts,
                     time_source_->NowNanos());
    }
    if (op.kind == Op::Kind::kRmw) {
      stats_.writes++;
      write_buffer_[op.key] = op.WriteValue(value);
    }
    next_op_++;
    IssueNextOp();
    return;
  }
  if (const auto* timer = std::get_if<TimerFire>(&msg.payload)) {
    if (!active_) {
      return;
    }
    if (timer->timer_id >= kCoordTimerBase) {
      if (!involved_.empty()) {
        if (DeadlineExceeded()) {
          FailTxn(AbortReason::kDeadline);
          return;
        }
        for (uint32_t shard : involved_) {
          if (shards_[shard].coordinator->OnTimer(timer->timer_id)) {
            break;
          }
        }
        MaybeFinishCommit();
      }
      return;
    }
    // Execute-phase retry: resend the outstanding GET (possibly to a
    // different replica, which is how a client escapes a crashed one).
    if (get_outstanding_ && timer->timer_id == get_seq_) {
      if (DeadlineExceeded()) {
        FailTxn(AbortReason::kDeadline);
        return;
      }
      if (++get_retries_ > retry_.max_attempts) {
        FailTxn(AbortReason::kNoQuorum);
        return;
      }
      txn_retransmits_++;
      SendGet(get_key_);
    }
    return;
  }
  if (!active_ || involved_.empty()) {
    return;
  }
  // Protocol replies carry the replying replica's global id; route to that
  // shard's coordinator.
  size_t shard = msg.src.id / options_.quorum.n;
  if (shard < shards_.size()) {
    shards_[shard].coordinator->OnMessage(msg);
    MaybeFinishCommit();
  }
}

}  // namespace meerkat
