// Quorum arithmetic for Meerkat's commit protocol (paper §5.2.2).
//
// With n = 2f+1 replicas:
//   * fast path: f + ceil(f/2) + 1 *matching* VALIDATE replies decide the
//     transaction with no further coordination;
//   * slow path: f + 1 VALIDATE replies pick a proposal, and f + 1 ACCEPT
//     replies make it durable;
//   * epoch change: f + 1 trecords suffice to reconstruct all decisions; a
//     transaction that *might* have fast-committed shows at least
//     ceil(f/2) + 1 VALIDATED-OK entries in any such quorum.
//
// Sharded deployments (paper §5.2.4) run one such group per shard: shard s
// is the group of global replica ids [s*n, (s+1)*n), and ShardForKey maps
// every key to its shard.

#ifndef MEERKAT_SRC_PROTOCOL_QUORUM_H_
#define MEERKAT_SRC_PROTOCOL_QUORUM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace meerkat {

// The largest replica group a deployment may configure: per-group replica
// sets are 64-bit masks (ReplicaMask, the primary-backup down mask).
inline constexpr size_t kMaxGroupReplicas = 64;

struct QuorumConfig {
  size_t n = 3;  // Number of replicas, must be 2f+1.
  size_t f = 1;  // Tolerated crash failures.

  static QuorumConfig ForReplicas(size_t n_replicas) {
    QuorumConfig q;
    q.n = n_replicas;
    q.f = (n_replicas - 1) / 2;
    return q;
  }

  size_t Majority() const { return f + 1; }

  // f + ceil(f/2) + 1.
  size_t SuperMajority() const { return f + (f + 1) / 2 + 1; }

  // Minimum number of VALIDATED-OK entries visible in any majority quorum if
  // the transaction possibly committed on the fast path: ceil(f/2) + 1.
  size_t FastWitness() const { return (f + 1) / 2 + 1; }

  // With `received` replies of which `matching` agree, can a supermajority of
  // matching replies still be assembled from the missing replicas?
  bool FastPathStillPossible(size_t matching, size_t received) const {
    return matching + (n - received) >= SuperMajority();
  }
};

// A set of replicas of one group, as a bitmask indexed by position in the
// group (a reply's global replica id minus the group's base). Coordinators
// track who voted in each round with it: no allocation, popcount to count.
class ReplicaMask {
 public:
  // Adds replica `index` of an n-replica group. Returns false, adding
  // nothing, if it is already present or lies outside [0, n): a reply that
  // names a replica of another group can never count as a vote.
  bool Insert(size_t index, size_t n) {
    if (index >= n || index >= kMaxGroupReplicas || Contains(index)) {
      return false;
    }
    bits_ |= uint64_t{1} << index;
    return true;
  }
  bool Contains(size_t index) const {
    return index < kMaxGroupReplicas && (bits_ >> index & 1) != 0;
  }
  // Removes every replica present in `other`.
  void Remove(const ReplicaMask& other) { bits_ &= ~other.bits_; }
  void Clear() { bits_ = 0; }
  bool empty() const { return bits_ == 0; }
  size_t size() const { return static_cast<size_t>(std::popcount(bits_)); }

 private:
  uint64_t bits_ = 0;
};

// The shard owning `key` among `num_shards` hash partitions; with one shard,
// shard 0 owns everything.
inline size_t ShardForKey(const std::string& key, size_t num_shards) {
  if (num_shards == 1) {
    return 0;
  }
  // Mix the hash so adjacent std::hash values spread across shards.
  uint64_t h = std::hash<std::string>{}(key);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 29;
  return h % num_shards;
}

}  // namespace meerkat

#endif  // MEERKAT_SRC_PROTOCOL_QUORUM_H_
