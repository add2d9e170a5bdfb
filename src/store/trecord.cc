#include "src/store/trecord.h"

#include <algorithm>

#include "src/common/annotations.h"
#include "src/common/metrics.h"

#include "src/sim/sim_context.h"

namespace meerkat {
namespace {

void ChargeLocalOp() {
  if (SimContext* ctx = SimContext::Current()) {
    ctx->Charge(ctx->cost().local_trecord_op_ns);
  }
}

// Partition occupancy: the gauge accumulates +1/-1 per thread and sums to the
// global live-record count; the counters give creation/trim churn rates.
const MetricId kRecordsCreated = MetricsRegistry::Counter("trecord.records_created");
const MetricId kRecordsTrimmed = MetricsRegistry::Counter("trecord.records_trimmed");
const MetricId kRecordsCleared = MetricsRegistry::Counter("trecord.records_cleared");
const MetricId kLiveRecords = MetricsRegistry::Gauge("trecord.live_records");
// Records the GC's trim steps examined, trimmed or not: against
// trecord.records_trimmed, what each reclaim cost the step.
const MetricId kRecordsScanned = MetricsRegistry::Counter("gc.records_scanned");

// Heap order for the trim queue: the earliest ts on top.
constexpr auto kEarliestOnTop = [](const auto& a, const auto& b) { return b.ts < a.ts; };

}  // namespace

TxnRecordSnapshot TxnRecord::ToSnapshot(CoreId core) const {
  TxnRecordSnapshot snap;
  snap.tid = tid;
  snap.ts = ts;
  snap.status = status;
  snap.view = view;
  snap.accept_view = accept_view;
  snap.accepted = accepted;
  snap.core = core;
  snap.read_set = read_set();
  snap.write_set = write_set();
  return snap;
}

ZCP_FAST_PATH TxnRecord& TRecordPartition::GetOrCreate(const TxnId& tid) {
  dap_slot_.CheckAccess(dap_index_, dap_count_, "TRecordPartition::GetOrCreate");
  ChargeLocalOp();
  TxnRecord& rec = records_[tid];
  if (!rec.tid.Valid()) {
    rec.tid = tid;
    MetricIncr(kRecordsCreated);
    MetricGaugeAdd(kLiveRecords, 1);
  }
  return rec;
}

ZCP_FAST_PATH TxnRecord* TRecordPartition::Find(const TxnId& tid) {
  dap_slot_.CheckAccess(dap_index_, dap_count_, "TRecordPartition::Find");
  ChargeLocalOp();
  auto it = records_.find(tid);
  return it == records_.end() ? nullptr : &it->second;
}

ZCP_FAST_PATH void TRecordPartition::SetTs(TxnRecord& rec, Timestamp ts) {
  dap_slot_.CheckAccess(dap_index_, dap_count_, "TRecordPartition::SetTs");
  if (rec.ts.Valid()) {
    return;
  }
  rec.ts = ts;
  queue_.push_back(Queued{ts, rec.tid});
  std::push_heap(queue_.begin(), queue_.end(), kEarliestOnTop);
}

ZCP_SLOW_PATH TRecordPartition::TrimResult TRecordPartition::TrimBelow(
    Timestamp below, Timestamp orphan_below,
    std::vector<std::pair<TxnId, ViewNum>>* orphans) {
  dap_slot_.CheckAccess(dap_index_, dap_count_, "TRecordPartition::TrimBelow");
  TrimResult result;
  if (!below.Valid()) {
    return result;
  }
  // Erases the entry's record if it is final below the watermark; returns
  // whether the record stays held.
  auto settle = [&](const Queued& entry) {
    result.scanned++;
    auto it = records_.find(entry.tid);
    if (it == records_.end() || it->second.ts != entry.ts) {
      return false;  // Stale entry.
    }
    const TxnRecord& rec = it->second;
    if (IsFinal(rec.status)) {
      if (rec.ts < below) {
        records_.erase(it);
        result.trimmed++;
        return false;
      }
    } else if (orphans != nullptr && orphan_below.Valid() && rec.status != TxnStatus::kNone &&
               rec.ts.Valid() && rec.ts < orphan_below) {
      orphans->push_back({rec.tid, rec.view});
    }
    return true;
  };
  size_t kept = 0;
  for (const Queued& entry : held_) {
    if (settle(entry)) {
      held_[kept++] = entry;
    }
  }
  held_.resize(kept);
  while (!queue_.empty() && queue_.front().ts < below) {
    std::pop_heap(queue_.begin(), queue_.end(), kEarliestOnTop);
    const Queued entry = queue_.back();
    queue_.pop_back();
    if (settle(entry)) {
      held_.push_back(entry);
    }
  }
  if (result.scanned > 0) {
    MetricIncr(kRecordsScanned, result.scanned);
  }
  if (result.trimmed > 0) {
    MetricIncr(kRecordsTrimmed, result.trimmed);
    MetricGaugeAdd(kLiveRecords, -static_cast<int64_t>(result.trimmed));
  }
  return result;
}

void TRecordPartition::Clear() {
  // Bulk drops are churn too: without the counter, created - erased - trimmed
  // drifts away from the live gauge after every crash-restart / epoch
  // adoption, which makes the accounting useless for leak hunting.
  if (!records_.empty()) {
    MetricIncr(kRecordsCleared, records_.size());
    MetricGaugeAdd(kLiveRecords, -static_cast<int64_t>(records_.size()));
  }
  records_.clear();
  queue_.clear();
  held_.clear();
  dap_slot_.ResetOwner();
}

void TRecordPartition::ForEach(const std::function<void(const TxnRecord&)>& fn) const {
  for (const auto& [tid, rec] : records_) {
    (void)tid;
    fn(rec);
  }
}

std::vector<TxnRecordSnapshot> TRecord::SnapshotAll() const {
  std::vector<TxnRecordSnapshot> out;
  for (size_t core = 0; core < partitions_.size(); core++) {
    partitions_[core].ForEach([&out, core](const TxnRecord& rec) {
      out.push_back(rec.ToSnapshot(static_cast<CoreId>(core)));
    });
  }
  return out;
}

void TRecord::ReplaceAll(const std::vector<TxnRecordSnapshot>& snapshots) {
  // Epoch-state adoption rebuilds every partition from the merge leader's
  // snapshot on one thread; that is maintenance, not fast-path traffic.
  DapAuditSuspend suspend;
  for (TRecordPartition& p : partitions_) {
    p.Clear();
  }
  for (const TxnRecordSnapshot& snap : snapshots) {
    TRecordPartition& p = Partition(snap.core);
    TxnRecord& rec = p.GetOrCreate(snap.tid);
    rec.status = snap.status;
    rec.view = snap.view;
    rec.accept_view = snap.accept_view;
    rec.accepted = snap.accepted;
    rec.sets = MakeTxnSets(snap.read_set, snap.write_set);
    p.SetTs(rec, snap.ts);
  }
}

size_t TRecord::TotalSize() const {
  size_t n = 0;
  for (const TRecordPartition& p : partitions_) {
    n += p.Size();
  }
  return n;
}

}  // namespace meerkat
