#include "src/store/trecord.h"

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
const MetricId kRecordsErased = MetricsRegistry::Counter("trecord.records_erased");
const MetricId kRecordsTrimmed = MetricsRegistry::Counter("trecord.records_trimmed");
const MetricId kRecordsCleared = MetricsRegistry::Counter("trecord.records_cleared");
const MetricId kLiveRecords = MetricsRegistry::Gauge("trecord.live_records");
// Records the GC's trim steps examined, trimmed or not: against
// trecord.records_trimmed, the cost of walking the partition per reclaim.
const MetricId kRecordsScanned = MetricsRegistry::Counter("gc.records_scanned");

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

TxnRecord TxnRecord::FromSnapshot(const TxnRecordSnapshot& snap) {
  TxnRecord rec;
  rec.tid = snap.tid;
  rec.ts = snap.ts;
  rec.status = snap.status;
  rec.view = snap.view;
  rec.accept_view = snap.accept_view;
  rec.accepted = snap.accepted;
  rec.sets = MakeTxnSets(snap.read_set, snap.write_set);
  return rec;
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

ZCP_FAST_PATH void TRecordPartition::Erase(const TxnId& tid) {
  dap_slot_.CheckAccess(dap_index_, dap_count_, "TRecordPartition::Erase");
  ChargeLocalOp();
  if (records_.erase(tid) > 0) {
    MetricIncr(kRecordsErased);
    MetricGaugeAdd(kLiveRecords, -1);
  }
}

ZCP_SLOW_PATH TRecordPartition::TrimStepResult TRecordPartition::TrimStep(
    Timestamp below, size_t budget, size_t* cursor, Timestamp orphan_below,
    std::vector<std::pair<TxnId, ViewNum>>* orphans) {
  dap_slot_.CheckAccess(dap_index_, dap_count_, "TRecordPartition::TrimStep");
  TrimStepResult result;
  if (!below.Valid() || records_.empty()) {
    result.wrapped = true;
    return result;
  }
  const size_t buckets = records_.bucket_count();
  // Only inserts rehash (erase never does); a cursor past the current bucket
  // count means the table grew or shrank a rehash under us — restart the lap.
  if (*cursor >= buckets) {
    *cursor = 0;
  }
  const size_t start = *cursor;
  size_t b = start;
  do {
    // Collect first, erase after: erasing from the bucket being iterated
    // would invalidate its local iterators (other buckets stay valid).
    TxnId victims[8];
    size_t n_victims = 0;
    for (auto it = records_.cbegin(b); it != records_.cend(b); ++it) {
      result.scanned++;
      const TxnRecord& rec = it->second;
      if (IsFinal(rec.status) && rec.ts < below) {
        if (n_victims < sizeof(victims) / sizeof(victims[0])) {
          victims[n_victims++] = rec.tid;
        }
        // A bucket deeper than the stack block finishes on a later lap.
      } else if (orphans != nullptr && orphan_below.Valid() && !IsFinal(rec.status) &&
                 rec.status != TxnStatus::kNone && rec.ts.Valid() && rec.ts < orphan_below) {
        orphans->push_back({rec.tid, rec.view});
      }
    }
    for (size_t v = 0; v < n_victims; v++) {
      records_.erase(victims[v]);
      result.trimmed++;
    }
    b = (b + 1) % buckets;
  } while (b != start && result.scanned < budget);
  *cursor = b;
  result.wrapped = b == start;
  MetricIncr(kRecordsScanned, result.scanned);
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
    p.GetOrCreate(snap.tid) = TxnRecord::FromSnapshot(snap);
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
