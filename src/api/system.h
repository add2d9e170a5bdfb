// System factory: assembles any of the four evaluated systems (paper §6.1,
// Table 1) behind one interface, so workloads, benchmarks, and differential
// tests can swap protocols with a flag.

#ifndef MEERKAT_SRC_API_SYSTEM_H_
#define MEERKAT_SRC_API_SYSTEM_H_

#include <memory>
#include <string>

#include "src/api/client_session.h"
#include "src/common/client_cache.h"
#include "src/common/clock.h"
#include "src/common/gc.h"
#include "src/common/overload.h"
#include "src/common/retry.h"
#include "src/protocol/quorum.h"
#include "src/sim/cost_model.h"
#include "src/store/vstore.h"
#include "src/transport/fault_plan.h"
#include "src/transport/transport.h"

namespace meerkat {

enum class SystemKind : uint8_t {
  kMeerkat = 0,  // ZCP: no cross-core, no cross-replica coordination.
  kMeerkatPb,    // DAP only: primary-backup with Meerkat's data structures.
  kTapir,        // Replica-scalable only: leaderless, shared trecord.
  kKuaFu,        // Neither: leader + atomic counter + shared log.
};

inline const char* ToString(SystemKind kind) {
  switch (kind) {
    case SystemKind::kMeerkat:
      return "MEERKAT";
    case SystemKind::kMeerkatPb:
      return "MEERKAT-PB";
    case SystemKind::kTapir:
      return "TAPIR";
    case SystemKind::kKuaFu:
      return "KuaFu++";
  }
  return "?";
}

// Clock-synchronization quality of the deployment's clients (paper §3:
// correctness never depends on these; performance does).
struct ClockOptions {
  // Per-session skew drawn uniformly from [-max_skew_ns, +max_skew_ns].
  int64_t max_skew_ns = 0;
  // Per-timestamp-read noise.
  uint64_t jitter_ns = 0;
};

// Deployment configuration, as nested option groups with a fluent builder:
//
//   auto options = SystemOptions()
//                      .WithKind(SystemKind::kMeerkat)
//                      .WithReplicas(3)
//                      .WithCores(4)
//                      .WithRetry(RetryPolicy::WithTimeout(200'000))
//                      .WithClock({.max_skew_ns = 1000, .jitter_ns = 50})
//                      .WithAdmission(AdmissionOptions().WithEnabled(true))
//                      .WithOverload(OverloadOptions().WithEnabled(true))
//                      .WithFaultPlan(FaultPlan().WithSeed(7).DropEvery(0.01));
//
// The flat retry_timeout_ns / max_clock_skew_ns / clock_jitter_ns aliases
// (and Normalized()) were removed; use the nested groups.
struct SystemOptions {
  SystemKind kind = SystemKind::kMeerkat;
  QuorumConfig quorum = QuorumConfig::ForReplicas(3);
  // Hash partitions of the key space, each its own replica group of
  // quorum.n replicas (paper §5.2.4): the system owns num_shards * n
  // replicas, and shard s holds global replica ids [s*n, (s+1)*n).
  // kMeerkat only; CreateSystem aborts on num_shards != 1 for other kinds.
  size_t num_shards = 1;
  size_t cores_per_replica = 1;
  ClockOptions clock;
  // Retransmission/backoff policy for every session (and for replica-driven
  // recovery: epoch-change and backup-coordinator retransmissions). A
  // default-constructed policy disables retransmission (fault-free runs).
  RetryPolicy retry;
  // Scripted network faults; CreateSystem installs a non-empty plan into the
  // transport's fault injector.
  FaultPlan fault_plan;
  // Batched delivery pipeline governor (coalesced wire frames / ReceiveBatch
  // dispatch); installed into the transport by CreateSystem. Enabled by
  // default on every transport; set .enabled = false (or WithBatching) for
  // the strictly per-message legacy pipeline.
  BatchOptions batching;
  // Ablation (Meerkat/TAPIR sessions): always run the slow path.
  bool force_slow_path = false;
  // Shared-structure service times (simulator only; real primitives ignore).
  CostModel cost;
  // Client-side AIMD admission window (overload control plane): bounds the
  // system-wide concurrency of sessions sharing this System. Disabled by
  // default; BlockingClient::ExecuteWithRetry and the workload driver gate on
  // System::admission_window() when enabled.
  AdmissionOptions admission;
  // Replica-side load shedding: per-core inflight/queue watermarks beyond
  // which fresh VALIDATEs are fast-rejected with kRetryLater + backoff hint.
  OverloadOptions overload;
  // Replica-side trecord watermark GC (Meerkat kinds): per-core trimming of
  // finalized records below the piggybacked oldest-inflight watermark.
  // Enabled by default — without it the trecord grows without bound.
  GcOptions gc;
  // Inter-transaction client read cache with version leases (DESIGN.md §13):
  // one bounded cache shared by this System's sessions, plus replica-side
  // piggybacked invalidation hints. Disabled by default — enabling it trades
  // write-contention aborts for read latency. Meerkat/TAPIR kinds only (the
  // primary-backup sessions serve reads at the primary and ignore it).
  CacheOptions cache;

  // --- Fluent builder ---
  SystemOptions& WithKind(SystemKind k) {
    kind = k;
    return *this;
  }
  SystemOptions& WithReplicas(size_t n) {
    quorum = QuorumConfig::ForReplicas(n);
    return *this;
  }
  SystemOptions& WithQuorum(const QuorumConfig& q) {
    quorum = q;
    return *this;
  }
  SystemOptions& WithShards(size_t s) {
    num_shards = s;
    return *this;
  }
  SystemOptions& WithCores(size_t c) {
    cores_per_replica = c;
    return *this;
  }
  SystemOptions& WithClock(const ClockOptions& c) {
    clock = c;
    return *this;
  }
  SystemOptions& WithRetry(const RetryPolicy& r) {
    retry = r;
    return *this;
  }
  SystemOptions& WithFaultPlan(const FaultPlan& p) {
    fault_plan = p;
    return *this;
  }
  SystemOptions& WithBatching(const BatchOptions& b) {
    batching = b;
    return *this;
  }
  SystemOptions& WithForceSlowPath(bool f) {
    force_slow_path = f;
    return *this;
  }
  SystemOptions& WithCost(const CostModel& c) {
    cost = c;
    return *this;
  }
  SystemOptions& WithAdmission(const AdmissionOptions& a) {
    admission = a;
    return *this;
  }
  SystemOptions& WithOverload(const OverloadOptions& o) {
    overload = o;
    return *this;
  }
  SystemOptions& WithGc(const GcOptions& g) {
    gc = g;
    return *this;
  }
  SystemOptions& WithCache(const CacheOptions& c) {
    cache = c;
    return *this;
  }
};

// A fully assembled cluster of one system kind. Owns the replicas; sessions
// are created on demand and owned by the caller. Replica ids below are
// global: replica r of shard s is s * quorum.n + r.
class System {
 public:
  virtual ~System() = default;

  virtual SystemKind kind() const = 0;

  // Loads a committed key on every replica of its shard (database
  // population).
  virtual void Load(const std::string& key, const std::string& value) = 0;

  virtual std::unique_ptr<ClientSession> CreateSession(uint32_t client_id, uint64_t seed) = 0;

  // The shared client-side AIMD admission window, sized by
  // SystemOptions::admission. A no-op (always-admit) window when admission
  // control is disabled. Sessions of this System share it; retry loops and
  // drivers acquire a slot before each Execute attempt and report the outcome
  // back to adapt the window.
  AimdWindow& admission_window() { return admission_window_; }

  // The shared inter-transaction read cache, sized by SystemOptions::cache.
  // Constructed even when disabled (sessions check enabled() and opt out).
  ClientCache& client_cache() { return client_cache_; }

 protected:
  explicit System(const AdmissionOptions& admission = AdmissionOptions(),
                  const CacheOptions& cache = CacheOptions())
      : admission_window_(admission), client_cache_(cache) {}

 private:
  AimdWindow admission_window_;
  ClientCache client_cache_;

 public:

  // Reads the committed value visible at replica `r` (test/inspection hook;
  // not part of the transactional API).
  virtual ReadResult ReadAtReplica(ReplicaId r, const std::string& key) = 0;

  // --- Fault-drill hooks (crash-restart and recovery, kind-appropriate) ---

  // Crash-restarts replica `r`, losing all volatile state. The caller is
  // responsible for also partitioning it at the network level (the fault
  // injector's CrashReplica, or a scripted kCrashDst rule whose hook calls
  // this).
  virtual void CrashAndRestartReplica(ReplicaId r) { (void)r; }

  // Readmits crashed replicas, driven by `leader`: an epoch change for
  // Meerkat (paper §5.3.1), committed-state transfer for the TAPIR-like and
  // primary-backup baselines. The network path to the recovering replicas
  // must be restored first.
  virtual void InitiateRecovery(ReplicaId leader) { (void)leader; }

  // True while replica `r` has rejoined without state and must not process
  // transactions (drills poll this to confirm recovery completed).
  virtual bool ReplicaRecovering(ReplicaId r) const {
    (void)r;
    return false;
  }

  // Cooperative termination (paper §5.3.2): replica `host` scans its trecord
  // for transactions stuck in a non-final state with timestamps <= older_than
  // (their coordinator presumably crashed) and runs a backup coordinator for
  // each. Returns the number of recoveries started (0 where unsupported:
  // TAPIR baseline, primary-backup — their commit never strands replica-side
  // state that needs client recovery).
  virtual size_t RecoverOrphanedTransactions(ReplicaId host, Timestamp older_than) {
    (void)host;
    (void)older_than;
    return 0;
  }
};

// Aborts with a message if options.num_shards is 0, or is not 1 for a kind
// other than kMeerkat.
std::unique_ptr<System> CreateSystem(const SystemOptions& options, Transport* transport,
                                     TimeSource* time_source);

}  // namespace meerkat

#endif  // MEERKAT_SRC_API_SYSTEM_H_
