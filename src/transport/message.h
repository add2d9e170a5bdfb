// Wire messages for all four systems (Meerkat, Meerkat-PB, TAPIR-like,
// KuaFu++) plus the recovery subprotocols.
//
// Payloads are plain structs in a std::variant. The in-process runtimes (sim
// and threaded; see DESIGN.md §2) pass them by move, never touching bytes;
// the loopback-UDP runtime (src/transport/udp_transport.h) serializes every
// message through the codec in src/transport/serialization.h, so each
// payload type must encode/decode bit-exactly — fixed-size ids, explicit
// field order, no hidden pointers. Adding a payload type means adding its
// Layout (its fields in wire order) in serialization.cc; the build fails
// until it has one.

#ifndef MEERKAT_SRC_TRANSPORT_MESSAGE_H_
#define MEERKAT_SRC_TRANSPORT_MESSAGE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/common/types.h"

namespace meerkat {

// Network endpoint: a client machine or one replica server. Replica-bound
// messages additionally carry the target core (the RSS flow-steering port of
// the paper, §5.2.2).
struct Address {
  enum class Kind : uint8_t { kClient = 0, kReplica = 1 };

  Kind kind = Kind::kClient;
  uint32_t id = 0;

  friend bool operator==(const Address& a, const Address& b) {
    return a.kind == b.kind && a.id == b.id;
  }

  static Address Client(uint32_t id) { return Address{Kind::kClient, id}; }
  static Address Replica(ReplicaId id) { return Address{Kind::kReplica, id}; }

  std::string ToString() const {
    return (kind == Kind::kClient ? "client:" : "replica:") + std::to_string(id);
  }
};

// --- Execute phase ---

struct GetRequest {
  TxnId tid;
  uint64_t req_seq = 0;  // Client-local sequence for matching replies.
  std::string key;
};

struct GetReply {
  TxnId tid;
  uint64_t req_seq = 0;
  std::string key;
  std::string value;
  Timestamp wts;  // Version read; goes into the read set.
  bool found = false;
};

// --- Validation phase (Meerkat / TAPIR-like) ---

struct ValidateRequest {
  TxnId tid;
  Timestamp ts;  // Proposed commit timestamp.
  // Shared immutable payload: the coordinator builds the sets once and every
  // fanned-out copy of this message references the same TxnSets (in-process
  // transport moves pointers, not bytes). nullptr means empty sets.
  TxnSetsPtr sets;
  // Overload-control priority (TxnPlan::priority). priority > 0 exempts the
  // transaction from replica load shedding (priority aging: a repeatedly-
  // aborted transaction must not starve behind fresh arrivals).
  uint8_t priority = 0;

  ValidateRequest() = default;
  ValidateRequest(TxnId tid_in, Timestamp ts_in, TxnSetsPtr sets_in)
      : tid(tid_in), ts(ts_in), sets(std::move(sets_in)) {}
  // Vector convenience form, used by tests and single-destination senders.
  ValidateRequest(TxnId tid_in, Timestamp ts_in, std::vector<ReadSetEntry> read_set,
                  std::vector<WriteSetEntry> write_set)
      : tid(tid_in), ts(ts_in), sets(MakeTxnSets(std::move(read_set), std::move(write_set))) {}

  const std::vector<ReadSetEntry>& read_set() const {
    return sets ? sets->read_set : EmptyReadSet();
  }
  const std::vector<WriteSetEntry>& write_set() const {
    return sets ? sets->write_set : EmptyWriteSet();
  }
};

// One recently-committed write, piggybacked on validation replies so clients
// can invalidate cached reads (client cache, DESIGN.md §13). Carries the key
// hash (VStore::HashKey), not the key: 16 fixed bytes per hint, and the
// client cache indexes by the same hash.
struct WriteHint {
  uint64_t key_hash = 0;
  Timestamp wts;

  friend bool operator==(const WriteHint& a, const WriteHint& b) {
    return a.key_hash == b.key_hash && a.wts == b.wts;
  }
};

struct ValidateReply {
  TxnId tid;
  // kValidatedOk / kValidatedAbort, or kRetryLater when an overloaded replica
  // shed the VALIDATE without running OCC (a non-vote, not an abort vote).
  TxnStatus status = TxnStatus::kNone;
  ReplicaId from = 0;
  // Replies from different epochs cannot be combined into one quorum: this is
  // how "no further transactions commit in the old epoch" (§5.4) is enforced
  // at the coordinator.
  EpochNum epoch = 0;
  // Server-suggested backoff (ns) piggybacked on kRetryLater sheds; 0 for
  // normal votes. Scales with the shedding core's inflight load so clients
  // back off harder the deeper the overload.
  uint64_t backoff_hint_ns = 0;
  // On kValidatedAbort: hash of the first read/write-set key whose check
  // failed (abort-reason fidelity + cache self-invalidation); 0 = unknown
  // (duplicate re-reports, watermark answers).
  uint64_t conflict_hash = 0;
  // Recently-committed writes drained from the answering core's ring (client
  // cache invalidation; empty when the cache/hint machinery is off). Bounded
  // by kHintsPerReply (client_cache.h) at the producer and kMaxWriteHints at
  // the codec.
  std::vector<WriteHint> hints;
};

// --- Slow path (consensus round; also used by backup coordinators) ---

struct AcceptRequest {
  TxnId tid;
  ViewNum view = 0;
  bool commit = false;  // Proposed outcome.
  // Full transaction payload so a replica that missed the VALIDATE can still
  // complete the transaction (cf. TAPIR's decide). Shared across the fan-out
  // like ValidateRequest::sets; nullptr means empty sets.
  Timestamp ts;
  TxnSetsPtr sets;

  AcceptRequest() = default;
  AcceptRequest(TxnId tid_in, ViewNum view_in, bool commit_in, Timestamp ts_in,
                TxnSetsPtr sets_in)
      : tid(tid_in), view(view_in), commit(commit_in), ts(ts_in), sets(std::move(sets_in)) {}
  AcceptRequest(TxnId tid_in, ViewNum view_in, bool commit_in, Timestamp ts_in,
                std::vector<ReadSetEntry> read_set, std::vector<WriteSetEntry> write_set)
      : tid(tid_in),
        view(view_in),
        commit(commit_in),
        ts(ts_in),
        sets(MakeTxnSets(std::move(read_set), std::move(write_set))) {}

  const std::vector<ReadSetEntry>& read_set() const {
    return sets ? sets->read_set : EmptyReadSet();
  }
  const std::vector<WriteSetEntry>& write_set() const {
    return sets ? sets->write_set : EmptyWriteSet();
  }
};

struct AcceptReply {
  TxnId tid;
  ViewNum view = 0;
  bool ok = false;  // False if the replica is in a higher view for tid.
  ReplicaId from = 0;
  EpochNum epoch = 0;
};

// --- Write phase ---

struct CommitRequest {
  TxnId tid;
  bool commit = false;  // True: install writes; false: abort cleanup.
  // The transaction's commit timestamp, so a replica whose record was already
  // trimmed can recognize this as a duplicate of a long-decided write phase
  // (ts strictly below its clock-derived watermark, DESIGN.md §12) and drop
  // it instead of resurrecting a record. Zero = unknown: always processed.
  Timestamp ts;
};

// --- Epoch change (replica recovery, §5.3.1) ---

// Everything a replica knows about one transaction; exchanged during epoch
// change and coordinator change.
struct TxnRecordSnapshot {
  TxnId tid;
  Timestamp ts;
  TxnStatus status = TxnStatus::kNone;
  ViewNum view = 0;
  ViewNum accept_view = 0;
  bool accepted = false;  // True iff some proposal was accepted (accept_view meaningful).
  CoreId core = 0;
  std::vector<ReadSetEntry> read_set;
  std::vector<WriteSetEntry> write_set;
};

struct EpochChangeRequest {
  EpochNum epoch = 0;
};

struct EpochChangeAck {
  EpochNum epoch = 0;
  ReplicaId from = 0;
  // True if this replica restarted without state: it participates in the
  // epoch change but its (empty) trecord must not count toward the merge
  // quorum — otherwise committed transactions could be lost (cf. VR
  // recovery; see DESIGN.md §6).
  bool recovering = false;
  std::vector<TxnRecordSnapshot> records;  // Aggregated across cores.
  // Committed key versions, so a recovering replica can rebuild its vstore.
  std::vector<WriteSetEntry> store_state;
  std::vector<Timestamp> store_versions;  // Parallel to store_state.
};

struct EpochChangeComplete {
  EpochNum epoch = 0;
  std::vector<TxnRecordSnapshot> records;  // The merged authoritative trecord.
  std::vector<WriteSetEntry> store_state;
  std::vector<Timestamp> store_versions;
};

struct EpochChangeCompleteAck {
  EpochNum epoch = 0;
  ReplicaId from = 0;
};

// --- Coordinator change (coordinator recovery, §5.3.2) ---

// Paxos-prepare-like: "ignore proposals for tid below `view`; tell me what
// you have".
struct CoordChangeRequest {
  TxnId tid;
  ViewNum view = 0;
};

struct CoordChangeAck {
  TxnId tid;
  ViewNum view = 0;
  bool ok = false;  // False if the replica already promised a higher view.
  bool has_record = false;
  TxnRecordSnapshot record;
  ReplicaId from = 0;
};

// --- Primary-backup messages (KuaFu++ and Meerkat-PB) ---

// Client -> primary: full transaction for centralized validation.
struct PrimaryCommitRequest {
  TxnId tid;
  Timestamp ts;  // Client timestamp (Meerkat-PB); ignored by KuaFu++.
  std::vector<ReadSetEntry> read_set;
  std::vector<WriteSetEntry> write_set;
};

// Primary -> backup: replicate a validated transaction.
struct ReplicateRequest {
  TxnId tid;
  Timestamp ts;        // Commit timestamp (Meerkat-PB) / log order (KuaFu++).
  uint64_t log_index = 0;  // KuaFu++ shared-log position.
  std::vector<WriteSetEntry> write_set;
};

struct ReplicateReply {
  TxnId tid;
  ReplicaId from = 0;
};

// Primary -> client: final outcome. commit_ts reports the serialization
// timestamp the primary used (client-proposed for Meerkat-PB, counter-derived
// for KuaFu++) so clients can observe the commit order.
struct PrimaryCommitReply {
  TxnId tid;
  bool committed = false;
  Timestamp commit_ts;
};

// --- Plain KV (Fig. 1 microbenchmark) ---

struct PutRequest {
  uint64_t req_seq = 0;
  std::string key;
  std::string value;
};

struct PutReply {
  uint64_t req_seq = 0;
};

// --- Timers ---

// Delivered to a receiver after a delay it requested (retries, failure
// detection). Carries an opaque id the receiver interprets. Local to the
// endpoint that armed it: it never crosses the wire.
struct TimerFire {
  uint64_t timer_id = 0;
};

using Payload =
    std::variant<GetRequest, GetReply, ValidateRequest, ValidateReply, AcceptRequest,
                 AcceptReply, CommitRequest, EpochChangeRequest, EpochChangeAck,
                 EpochChangeComplete, EpochChangeCompleteAck, CoordChangeRequest, CoordChangeAck,
                 PrimaryCommitRequest, ReplicateRequest, ReplicateReply, PrimaryCommitReply,
                 PutRequest, PutReply, TimerFire>;

struct Message {
  Address src;
  Address dst;
  CoreId core = 0;  // Target core at a replica (RSS flow steering).
  Payload payload;
};

// Human-readable payload tag, for logging and tests.
const char* PayloadName(const Payload& p);

}  // namespace meerkat

#endif  // MEERKAT_SRC_TRANSPORT_MESSAGE_H_
