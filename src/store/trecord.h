// The trecord: Meerkat's per-core-partitioned transaction record table
// (paper §4.2, Fig. 2).
//
// Every replica keeps one record per in-flight or recently finalized
// transaction: id, read/write sets, proposed timestamp, status, and the
// consensus fields (view, acceptView) used by coordinator recovery. To
// preserve DAP, the table is horizontally partitioned by the core id chosen
// by the transaction's coordinator; the transport guarantees all messages for
// a transaction arrive at that core, so a partition is only ever touched by
// its own core — no locks needed in the threaded runtime either.

#ifndef MEERKAT_SRC_STORE_TRECORD_H_
#define MEERKAT_SRC_STORE_TRECORD_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/dap_check.h"
#include "src/common/types.h"
#include "src/transport/message.h"

namespace meerkat {

struct TxnRecord {
  TxnId tid;
  Timestamp ts;
  // Shared with the VALIDATE/ACCEPT message that delivered the transaction:
  // the record adopts the coordinator's immutable TxnSets instead of copying
  // the vectors into every replica's trecord. nullptr means empty sets.
  TxnSetsPtr sets;
  TxnStatus status = TxnStatus::kNone;
  // Coordinator-recovery consensus state (paper §5.3.2): the record's current
  // view (promises: ignore proposals below it) and the view in which a
  // proposal was last accepted, if any.
  ViewNum view = 0;
  ViewNum accept_view = 0;
  bool accepted = false;

  const std::vector<ReadSetEntry>& read_set() const {
    return sets ? sets->read_set : EmptyReadSet();
  }
  const std::vector<WriteSetEntry>& write_set() const {
    return sets ? sets->write_set : EmptyWriteSet();
  }

  TxnRecordSnapshot ToSnapshot(CoreId core) const;
};

// One core's partition. Single-writer by construction; the DAP detector
// (src/common/dap_check.h) audits exactly that claim: the per-record
// accessors below check the caller's core scope / owning thread and report a
// violation on cross-core access. Bulk maintenance entry points (Clear,
// TRecord::ReplaceAll) reset the ownership stamp instead — recovery
// legitimately rebuilds partitions from one thread.
class TRecordPartition {
 public:
  // Returns the record for tid, creating it if absent.
  TxnRecord& GetOrCreate(const TxnId& tid);

  // Returns nullptr if absent.
  TxnRecord* Find(const TxnId& tid);

  // Stamps `rec`, a record of this partition, with the transaction's
  // timestamp and queues it under that ts for the trim step. A record keeps
  // the first valid ts it is given (later calls are no-ops), so it is queued
  // once under it. An invalid ts (a backup coordinator that recovered no
  // payload) is queued too: it sorts below every watermark, so the record
  // trims as soon as it is final, like any final record below W. Charges
  // nothing to the simulator.
  void SetTs(TxnRecord& rec, Timestamp ts);

  // One increment of the online watermark GC (DESIGN.md §12), the only way
  // records leave a partition besides Clear. Trimming is safe because
  // finalized records are only consulted to answer duplicate messages; the
  // epoch-change protocol re-establishes authoritative state whenever
  // membership changes (paper §5.3.1: "allowing the replicas to bring
  // themselves up-to-date and safely trim the trecord").
  struct TrimResult {
    size_t trimmed = 0;  // Finalized records erased this step.
    size_t scanned = 0;  // Queue entries popped plus held records re-checked.
  };

  // Pops every queued record with ts strictly below `below`: a finalized one
  // is erased, an undecided one moves to the held list. Held records are
  // re-checked at every step and erased once final. A step therefore costs
  // O(records that crossed `below`) plus the held list, and allocates
  // nothing once the queue's capacity is warm.
  //
  // Held records with a valid ts strictly below `orphan_below` are reported
  // into `orphans` (if non-null): their coordinator stopped driving them long
  // ago, and the caller starts cooperative termination for them.
  TrimResult TrimBelow(Timestamp below, Timestamp orphan_below = Timestamp{},
                       std::vector<std::pair<TxnId, ViewNum>>* orphans = nullptr);

  size_t Size() const { return records_.size(); }

  void ForEach(const std::function<void(const TxnRecord&)>& fn) const;

  void Clear();

 private:
  friend class TRecord;

  // A record queued under `ts`. The entry is live while its record exists
  // with that ts; anything else (a record re-stamped after an invalid first
  // ts, or one its twin invalid-ts entry already trimmed) is dropped when
  // the entry surfaces.
  struct Queued {
    Timestamp ts;
    TxnId tid;
  };

  std::unordered_map<TxnId, TxnRecord, TxnIdHash> records_;
  // Min-heap on ts of the records not yet below the watermark.
  std::vector<Queued> queue_;
  // Records that crossed the watermark undecided (live slow transactions and
  // orphans): the orphan sweep's only input.
  std::vector<Queued> held_;

  // DAP audit identity: which partition this is and how many exist, so the
  // detector can map a scoped core id through the same modulo as Partition().
  uint32_t dap_index_ = 0;
  uint32_t dap_count_ = 0;
  mutable DapOwnerSlot dap_slot_;
};

// All partitions of one replica.
class TRecord {
 public:
  explicit TRecord(size_t num_cores) : partitions_(num_cores) {
    for (size_t i = 0; i < partitions_.size(); i++) {
      partitions_[i].dap_index_ = static_cast<uint32_t>(i);
      partitions_[i].dap_count_ = static_cast<uint32_t>(partitions_.size());
    }
  }

  TRecord(const TRecord&) = delete;
  TRecord& operator=(const TRecord&) = delete;

  TRecordPartition& Partition(CoreId core) { return partitions_[core % partitions_.size()]; }
  size_t NumPartitions() const { return partitions_.size(); }

  // Aggregates every partition's records (epoch change, §5.3.1).
  std::vector<TxnRecordSnapshot> SnapshotAll() const;

  // Replaces all partitions with the merged trecord from an epoch change,
  // preserving the per-core partitioning carried in each snapshot.
  void ReplaceAll(const std::vector<TxnRecordSnapshot>& snapshots);

  size_t TotalSize() const;

 private:
  std::vector<TRecordPartition> partitions_;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_STORE_TRECORD_H_
