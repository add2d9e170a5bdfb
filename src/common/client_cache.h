// Inter-transaction client read cache with version leases (DESIGN.md §13).
//
// Meerkat's commit-time OCC validation re-checks every read's version (wts)
// at the replicas, so a client may serve a Get from a local cache without any
// correctness machinery on the servers: the cached value still enters the
// read set with its cached wts, and if the entry went stale the transaction
// aborts at validation exactly as if the read had raced a concurrent writer
// over the network. A stale cache can cost an abort; it can never commit a
// stale read. That asymmetry (cf. inter-transaction caching with precise
// clocks and dynamic self-invalidation, and SCAR's timestamp reuse) is what
// makes the cache a pure fast path: zero network, zero replica work per hit.
//
// Freshness is best-effort, managed three ways:
//   1. Leases: an entry only serves while now < read_ns + lease_ns (times in
//      the client's TimeSource domain — every session of a System shares the
//      TimeSource, so lease arithmetic never mixes skewed clocks; per-session
//      clock skew only affects proposed commit timestamps, not leases).
//   2. Piggybacked invalidation: replicas attach recently-written
//      (key_hash, wts) pairs to validation replies; ApplyHint drops entries
//      those writes made stale.
//   3. Dynamic self-invalidation: when an abort names the offending read key,
//      EvictForAbort drops it and bumps a per-key contention counter; past
//      contended_threshold the key stops being cached at all, so hot-written
//      keys do not amplify OCC aborts.
//
// One ClientCache is shared by every session of a System (read-your-own-
// writes and cross-session reuse); it is client-side state, far from the
// replica ZCP fast path, so a plain mutex is appropriate.

#ifndef MEERKAT_SRC_COMMON_CLIENT_CACHE_H_
#define MEERKAT_SRC_COMMON_CLIENT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "src/common/annotations.h"
#include "src/common/types.h"

namespace meerkat {

// Replica-side: the most invalidation hints one validation reply carries.
inline constexpr size_t kHintsPerReply = 8;

// Configuration for the client read cache (SystemOptions::cache). Disabled by
// default: enabling it trades aborts-under-write-contention for read latency,
// a workload decision the deployment must opt into.
struct CacheOptions {
  bool enabled = false;
  // Maximum cached entries per System (LRU eviction beyond this).
  size_t capacity = 4096;
  // Lease duration relative to the time the value was read (TimeSource
  // nanos). 0 never serves a hit (useful to measure pure bookkeeping cost).
  uint64_t lease_ns = 2'000'000;
  // Replica-side: per-core recent-writes ring capacity. 0 disables hint
  // production entirely (replies carry no hints).
  size_t hint_ring = 32;
  // Abort-driven evictions of a key before it stops being cached.
  uint32_t contended_threshold = 3;

  CacheOptions& WithEnabled(bool on) {
    enabled = on;
    return *this;
  }
  CacheOptions& WithCapacity(size_t n) {
    capacity = n;
    return *this;
  }
  CacheOptions& WithLease(uint64_t ns) {
    lease_ns = ns;
    return *this;
  }
  CacheOptions& WithHintRing(size_t n) {
    hint_ring = n;
    return *this;
  }
  CacheOptions& WithContendedThreshold(uint32_t n) {
    contended_threshold = n;
    return *this;
  }
};

// Bounded (key -> value, wts, lease) cache shared by a System's sessions.
// Key hashes are supplied by the caller (VStore::HashKey — the same function
// replicas use to produce invalidation hints, so hint hashes and cached-entry
// hashes live in one hash space).
class ClientCache {
 public:
  struct Hit {
    std::string value;
    Timestamp wts;
  };

  explicit ClientCache(const CacheOptions& options) : options_(options) {}

  ClientCache(const ClientCache&) = delete;
  ClientCache& operator=(const ClientCache&) = delete;

  bool enabled() const { return options_.enabled; }
  const CacheOptions& options() const { return options_; }

  // Serves `key` if the entry's lease is unexpired; records exactly one of
  // cache.hit / cache.miss / cache.lease_expired.
  bool Lookup(const std::string& key, uint64_t now_ns, Hit* out);

  // Caches (key -> value, wts) with a lease stamped at now_ns. Ignored when
  // the key is contended, or when an already-cached version is newer (a
  // straggling reply must not regress the cache to an older version; the
  // invalid wts of a not-found read orders below every real version).
  void Insert(const std::string& key, uint64_t key_hash, const std::string& value,
              Timestamp wts, uint64_t now_ns);

  // Piggybacked invalidation: a write of `wts` to the key hashing to
  // `key_hash` was recently committed; drops the cached entry if older.
  void ApplyHint(uint64_t key_hash, Timestamp wts);

  // Dynamic self-invalidation: validation aborted on this cached read. Drops
  // the entry and bumps the key's contention counter.
  void EvictForAbort(const std::string& key, uint64_t key_hash);

  // --- Introspection (tests) ---
  size_t EntryCount() const;
  bool Contains(const std::string& key) const;  // Ignores the lease.
  bool IsContended(uint64_t key_hash) const;

 private:
  struct Entry {
    std::string key;
    std::string value;
    Timestamp wts;
    uint64_t key_hash = 0;
    uint64_t read_ns = 0;  // Lease stamp (TimeSource domain).
  };
  using LruList = std::list<Entry>;

  void EraseLocked(LruList::iterator it) REQUIRES(mu_);

  mutable Mutex mu_;
  const CacheOptions options_;
  LruList lru_ GUARDED_BY(mu_);  // Front = most recently used.
  std::unordered_map<std::string, LruList::iterator> by_key_ GUARDED_BY(mu_);
  // Hint application path; on the (vanishing) chance two cached keys share a
  // 64-bit hash, the later insert wins the index and the earlier entry simply
  // loses hint-based invalidation — leases and OCC still cover it.
  std::unordered_map<uint64_t, LruList::iterator> by_hash_ GUARDED_BY(mu_);
  // Abort-eviction counts per key hash. Bounded: cleared wholesale if it ever
  // outgrows 4x the cache capacity (forgetting contention is safe — the next
  // aborts re-learn it).
  std::unordered_map<uint64_t, uint32_t> contended_ GUARDED_BY(mu_);
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_COMMON_CLIENT_CACHE_H_
