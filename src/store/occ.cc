#include "src/store/occ.h"

#include <algorithm>

#include "src/common/annotations.h"
#include "src/common/metrics.h"
#include "src/sim/sim_context.h"

namespace meerkat {
namespace {

// Per-operation CPU charge for the simulator (hash, copy, branchy checks).
void ChargeOp() {
  if (SimContext* ctx = SimContext::Current()) {
    ctx->Charge(ctx->cost().txn_logic_per_op_ns);
  }
}

// Validation outcomes by abort reason. Registered once at static init;
// recording is a thread-local add (metrics.h), ZCP-safe on the fast path.
const MetricId kValidateOk = MetricsRegistry::Counter("occ.validate_ok");
const MetricId kAbortStaleRead = MetricsRegistry::Counter("occ.abort_stale_read");
const MetricId kAbortPendingWriter = MetricsRegistry::Counter("occ.abort_pending_writer");
const MetricId kAbortReadProtect = MetricsRegistry::Counter("occ.abort_read_protect");

}  // namespace

ZCP_FAST_PATH TxnStatus OccValidate(VStore& store, const std::vector<ReadSetEntry>& read_set,
                      const std::vector<WriteSetEntry>& write_set, Timestamp ts,
                      uint64_t* conflict_hash) {
  // Validate the read set (Alg. 1 lines 2-12).
  for (size_t i = 0; i < read_set.size(); i++) {
    const ReadSetEntry& r = read_set[i];
    ChargeOp();
    uint64_t hash = VStore::HashKey(r.key);
    KeyEntry* e = store.FindWithHash(r.key, hash);
    if (e != nullptr) {
      // Lock-free staleness pre-check: wts is monotone, so a probe that
      // observes e.wts > r.wts proves the read is permanently stale — abort
      // without ever taking the key lock.
      bool found = false;
      Timestamp probe_wts;
      if (e->TryReadVersionFast(&found, &probe_wts) && found && probe_wts > r.read_wts) {
        MetricIncr(kAbortStaleRead);
        if (conflict_hash != nullptr) {
          *conflict_hash = hash;
        }
        for (size_t j = 0; j < i; j++) {
          KeyEntry* prev = store.Find(read_set[j].key);
          if (prev != nullptr) {
            LockGuard<KeyLock> plock(prev->lock);
            prev->RemoveReader(ts);
          }
        }
        return TxnStatus::kValidatedAbort;
      }
    } else {
      e = store.FindOrCreateWithHash(r.key, hash);
    }
    bool conflict = false;
    bool conflict_stale = false;
    {
      LockGuard<KeyLock> lock(e->lock);
      // e.wts > r.wts: the read is stale — a newer version committed since.
      bool stale = e->wts > r.read_wts;
      // ts > MIN(e.writers): some pending transaction with an earlier
      // timestamp wrote this key; if it commits, this read (serialized at ts)
      // would not have seen the latest version as of ts. MIN over the empty
      // set is +inf.
      Timestamp min_writer = e->MinWriter();
      bool pending_earlier_writer = min_writer.Valid() && ts > min_writer;
      if (stale || pending_earlier_writer) {
        conflict = true;
        conflict_stale = stale;
      } else {
        e->readers.push_back(ts);
      }
    }
    if (conflict) {
      MetricIncr(conflict_stale ? kAbortStaleRead : kAbortPendingWriter);
      if (conflict_hash != nullptr) {
        *conflict_hash = hash;
      }
      // Back out registrations made for read_set[0..i).
      for (size_t j = 0; j < i; j++) {
        KeyEntry* prev = store.Find(read_set[j].key);
        if (prev != nullptr) {
          LockGuard<KeyLock> plock(prev->lock);
          prev->RemoveReader(ts);
        }
      }
      return TxnStatus::kValidatedAbort;
    }
  }

  // Validate the write set (Alg. 1 lines 13-23).
  for (size_t i = 0; i < write_set.size(); i++) {
    const WriteSetEntry& w = write_set[i];
    ChargeOp();
    KeyEntry* e = store.FindOrCreate(w.key);
    bool conflict = false;
    {
      LockGuard<KeyLock> lock(e->lock);
      // ts < e.rts: a committed transaction already read a version this write
      // would interpose under. ts < MAX(e.readers): same, for a pending
      // validated read. Note a transaction never conflicts with its own read
      // registration (ts < ts is false). MAX over the empty set is -inf.
      Timestamp max_reader = e->MaxReader();
      bool under_committed_read = ts < e->rts;
      bool under_pending_read = max_reader.Valid() && ts < max_reader;
      if (under_committed_read || under_pending_read) {
        conflict = true;
      } else {
        e->writers.push_back(ts);
      }
    }
    if (conflict) {
      MetricIncr(kAbortReadProtect);
      if (conflict_hash != nullptr) {
        *conflict_hash = VStore::HashKey(w.key);
      }
      OccCleanup(store, read_set, write_set, ts);
      return TxnStatus::kValidatedAbort;
    }
  }
  MetricIncr(kValidateOk);
  return TxnStatus::kValidatedOk;
}

ZCP_FAST_PATH void OccValidateBatch(VStore& store, ValidateBatchItem* items, size_t n,
                                    OccBatchScratch* scratch) {
  // Pass 1: flatten every item's read set, hash each key exactly once, and
  // probe the store index in hash-sorted order (consecutive probes land in
  // the same index shard, so the sweep walks the table instead of hopping).
  // The lock-free staleness pre-check runs here too: wts is monotone, so a
  // probe that observes e.wts > r.wts is a permanent abort proof no matter
  // how much later pass 2 runs.
  std::vector<OccBatchScratch::ReadProbe>& reads = scratch->reads;
  std::vector<uint64_t>& writes = scratch->writes;
  std::vector<uint32_t>& order = scratch->order;
  reads.clear();
  writes.clear();
  order.clear();
  for (size_t i = 0; i < n; i++) {
    for (const ReadSetEntry& r : *items[i].read_set) {
      OccBatchScratch::ReadProbe probe;
      probe.read = &r;
      probe.hash = VStore::HashKey(r.key);
      reads.push_back(probe);
    }
    for (const WriteSetEntry& w : *items[i].write_set) {
      ChargeOp();
      writes.push_back(VStore::HashKey(w.key));
    }
  }
  order.resize(reads.size());
  for (uint32_t i = 0; i < order.size(); i++) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&reads](uint32_t a, uint32_t b) { return reads[a].hash < reads[b].hash; });
  for (uint32_t idx : order) {
    OccBatchScratch::ReadProbe& p = reads[idx];
    ChargeOp();
    p.entry = store.FindWithHash(p.read->key, p.hash);
    if (p.entry != nullptr) {
      bool found = false;
      Timestamp probe_wts;
      if (p.entry->TryReadVersionFast(&found, &probe_wts) && found &&
          probe_wts > p.read->read_wts) {
        p.fast_stale = true;
      }
    }
  }

  // Pass 2: the actual Algorithm 1 checks, per item, strictly in order — txn
  // i's reader/writer registrations must be visible to txn i+1 exactly as if
  // the items had been validated by sequential OccValidate calls.
  size_t read_base = 0;
  size_t write_base = 0;
  for (size_t i = 0; i < n; i++) {
    ValidateBatchItem& item = items[i];
    const std::vector<ReadSetEntry>& read_set = *item.read_set;
    const std::vector<WriteSetEntry>& write_set = *item.write_set;
    const Timestamp ts = item.ts;
    item.status = TxnStatus::kValidatedOk;
    item.conflict_hash = 0;

    // Read set (Alg. 1 lines 2-12), reusing pass-1 hashes/entries.
    for (size_t j = 0; j < read_set.size(); j++) {
      OccBatchScratch::ReadProbe& p = reads[read_base + j];
      if (p.fast_stale) {
        MetricIncr(kAbortStaleRead);
        item.conflict_hash = p.hash;
        for (size_t k = 0; k < j; k++) {
          KeyEntry* prev = reads[read_base + k].entry;
          if (prev != nullptr) {
            LockGuard<KeyLock> plock(prev->lock);
            prev->RemoveReader(ts);
          }
        }
        item.status = TxnStatus::kValidatedAbort;
        break;
      }
      KeyEntry* e = p.entry;
      if (e == nullptr) {
        // Absent at probe time; an earlier item in this batch (or a
        // concurrent core) may have created it since.
        e = store.FindOrCreateWithHash(read_set[j].key, p.hash);
        p.entry = e;
      }
      bool conflict = false;
      bool conflict_stale = false;
      {
        LockGuard<KeyLock> lock(e->lock);
        bool stale = e->wts > read_set[j].read_wts;
        Timestamp min_writer = e->MinWriter();
        bool pending_earlier_writer = min_writer.Valid() && ts > min_writer;
        if (stale || pending_earlier_writer) {
          conflict = true;
          conflict_stale = stale;
        } else {
          e->readers.push_back(ts);
        }
      }
      if (conflict) {
        MetricIncr(conflict_stale ? kAbortStaleRead : kAbortPendingWriter);
        item.conflict_hash = p.hash;
        for (size_t k = 0; k < j; k++) {
          KeyEntry* prev = reads[read_base + k].entry;
          if (prev != nullptr) {
            LockGuard<KeyLock> plock(prev->lock);
            prev->RemoveReader(ts);
          }
        }
        item.status = TxnStatus::kValidatedAbort;
        break;
      }
    }

    // Write set (Alg. 1 lines 13-23), reusing pass-1 hashes.
    if (item.status == TxnStatus::kValidatedOk) {
      for (size_t j = 0; j < write_set.size(); j++) {
        KeyEntry* e = store.FindOrCreateWithHash(write_set[j].key, writes[write_base + j]);
        bool conflict = false;
        {
          LockGuard<KeyLock> lock(e->lock);
          Timestamp max_reader = e->MaxReader();
          bool under_committed_read = ts < e->rts;
          bool under_pending_read = max_reader.Valid() && ts < max_reader;
          if (under_committed_read || under_pending_read) {
            conflict = true;
          } else {
            e->writers.push_back(ts);
          }
        }
        if (conflict) {
          MetricIncr(kAbortReadProtect);
          item.conflict_hash = writes[write_base + j];
          // Rare abort path: the sequential cleanup (re-find by key) keeps
          // semantics byte-identical to OccValidate's conflict exit.
          OccCleanup(store, read_set, write_set, ts);
          item.status = TxnStatus::kValidatedAbort;
          break;
        }
      }
    }
    if (item.status == TxnStatus::kValidatedOk) {
      MetricIncr(kValidateOk);
    }
    read_base += read_set.size();
    write_base += write_set.size();
  }
}

ZCP_FAST_PATH void OccCommit(VStore& store, const std::vector<ReadSetEntry>& read_set,
               const std::vector<WriteSetEntry>& write_set, Timestamp ts) {
  for (const ReadSetEntry& r : read_set) {
    ChargeOp();
    KeyEntry* e = store.Find(r.key);
    if (e == nullptr) {
      continue;
    }
    LockGuard<KeyLock> lock(e->lock);
    if (ts > e->rts) {
      e->rts = ts;
    }
    e->RemoveReader(ts);
  }
  for (const WriteSetEntry& w : write_set) {
    ChargeOp();
    KeyEntry* e = store.FindOrCreate(w.key);
    LockGuard<KeyLock> lock(e->lock);
    // Thomas write rule: install only if this is the newest version; an older
    // write that lost the race is simply dropped (its effects are ordered
    // before the newer version in the serial order).
    if (ts > e->wts) {
      e->InstallCommitted(w.value, ts);
    }
    e->RemoveWriter(ts);
  }
}

ZCP_FAST_PATH void OccCleanup(VStore& store, const std::vector<ReadSetEntry>& read_set,
                const std::vector<WriteSetEntry>& write_set, Timestamp ts) {
  for (const ReadSetEntry& r : read_set) {
    ChargeOp();
    KeyEntry* e = store.Find(r.key);
    if (e == nullptr) {
      continue;
    }
    LockGuard<KeyLock> lock(e->lock);
    e->RemoveReader(ts);
  }
  for (const WriteSetEntry& w : write_set) {
    ChargeOp();
    KeyEntry* e = store.Find(w.key);
    if (e == nullptr) {
      continue;
    }
    LockGuard<KeyLock> lock(e->lock);
    e->RemoveWriter(ts);
  }
}

TxnStatus OccRevalidateCommittedOnly(VStore& store, const std::vector<ReadSetEntry>& read_set,
                                     const std::vector<WriteSetEntry>& write_set, Timestamp ts) {
  for (const ReadSetEntry& r : read_set) {
    // Version-only probe: no value copy, no key lock. An absent key means the
    // read of "absent" is still current.
    VersionProbe probe = store.ReadVersion(r.key);
    if (probe.found && probe.wts > r.read_wts) {
      return TxnStatus::kValidatedAbort;
    }
  }
  for (const WriteSetEntry& w : write_set) {
    KeyEntry* e = store.Find(w.key);
    if (e == nullptr) {
      continue;
    }
    LockGuard<KeyLock> lock(e->lock);
    if (ts < e->rts) {
      return TxnStatus::kValidatedAbort;
    }
  }
  return TxnStatus::kValidatedOk;
}

}  // namespace meerkat
