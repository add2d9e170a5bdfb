#include "src/api/system.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/baselines/primary_backup.h"
#include "src/baselines/tapir_replica.h"
#include "src/common/rng.h"
#include "src/protocol/replica.h"
#include "src/protocol/session.h"
#include "src/transport/fault_injector.h"

namespace meerkat {
namespace {

// Version assigned to bulk-loaded keys. Every runtime-proposed timestamp
// (clock-derived or counter-derived) exceeds it.
constexpr Timestamp kLoadVersion{1, 0};

int64_t DrawSkew(Rng& rng, int64_t max_skew) {
  if (max_skew == 0) {
    return 0;
  }
  return static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(2 * max_skew + 1))) -
         max_skew;
}

// Installs the options' transport-level configuration: the batch governor,
// and the fault plan into the transport's injector (if the transport has one
// — the base Transport interface makes it optional). Must run before any
// replica is constructed: replica construction starts transport endpoint
// threads that read this state without
// synchronization, so the only safe ordering is write-then-spawn.
void InstallFaultPlan(const SystemOptions& options, Transport* transport) {
  transport->set_batch_options(options.batching);
  if (options.fault_plan.Empty()) {
    return;
  }
  FaultInjector* faults = transport->fault_injector();
  if (faults != nullptr) {
    faults->InstallPlan(options.fault_plan);
  }
}

// Options for a MeerkatSession of this deployment (Meerkat and TAPIR clients
// run the identical commit protocol). Draws the session's clock skew.
SessionOptions MeerkatSessionOptions(const SystemOptions& options, Rng& session_rng,
                                     ClientCache* cache) {
  SessionOptions s;
  s.quorum = options.quorum;
  s.num_shards = options.num_shards;
  s.cores_per_replica = options.cores_per_replica;
  s.retry = options.retry;
  s.clock_skew_ns = DrawSkew(session_rng, options.clock.max_skew_ns);
  s.clock_jitter_ns = options.clock.jitter_ns;
  s.force_slow_path = options.force_slow_path;
  s.cache = cache;  // Session opts out itself when disabled.
  return s;
}

// The deployment's GC settings with the horizon raised to cover the longest
// a live transaction's message can trail the replica clock: one attempt
// deadline plus the worst client clock offset (skew and jitter). Within that,
// no message of a transaction inside its deadline is answered from W.
GcOptions EffectiveGc(const SystemOptions& options) {
  GcOptions gc = options.gc;
  const uint64_t max_offset =
      static_cast<uint64_t>(options.clock.max_skew_ns) + options.clock.jitter_ns;
  gc.horizon_ns = std::max(gc.horizon_ns, options.retry.attempt_deadline_ns + max_offset);
  return gc;
}

class MeerkatSystem : public System {
 public:
  MeerkatSystem(const SystemOptions& options, Transport* transport, TimeSource* time_source)
      : System(options.admission, options.cache), options_(options), transport_(transport),
        time_source_(time_source), session_rng_(0xc0ffee) {
    InstallFaultPlan(options, transport);
    const GcOptions gc = EffectiveGc(options);
    // Shard s is the replica group [s*n, (s+1)*n).
    for (size_t shard = 0; shard < options.num_shards; shard++) {
      ReplicaId base = static_cast<ReplicaId>(shard * options.quorum.n);
      for (ReplicaId r = 0; r < options.quorum.n; r++) {
        replicas_.push_back(std::make_unique<MeerkatReplica>(
            base + r, options.quorum, options.cores_per_replica, transport, time_source, base,
            options.retry, options.overload, gc, options.cache));
      }
    }
  }

  SystemKind kind() const override { return SystemKind::kMeerkat; }

  void Load(const std::string& key, const std::string& value) override {
    size_t base = ShardForKey(key, options_.num_shards) * options_.quorum.n;
    for (size_t r = 0; r < options_.quorum.n; r++) {
      replicas_[base + r]->LoadKey(key, value, kLoadVersion);
    }
  }

  std::unique_ptr<ClientSession> CreateSession(uint32_t client_id, uint64_t seed) override {
    return std::make_unique<MeerkatSession>(
        client_id, transport_, time_source_,
        MeerkatSessionOptions(options_, session_rng_, &client_cache()), seed);
  }

  ReadResult ReadAtReplica(ReplicaId r, const std::string& key) override {
    return replicas_[r]->store().Read(key);
  }

  void CrashAndRestartReplica(ReplicaId r) override { replicas_[r]->CrashAndRestart(); }

  // Epoch change (paper §5.3.1): the leader polls everyone, merges the state
  // of a majority of non-recovering replicas, and redistributes it; crashed
  // replicas rejoin with the merged state.
  void InitiateRecovery(ReplicaId leader) override {
    replicas_[leader]->InitiateEpochChange();
  }

  bool ReplicaRecovering(ReplicaId r) const override {
    return replicas_[r]->waiting_recovery();
  }

  size_t RecoverOrphanedTransactions(ReplicaId host, Timestamp older_than) override {
    return replicas_[host]->RecoverOrphanedTransactions(older_than);
  }

  MeerkatReplica* replica(ReplicaId r) { return replicas_[r].get(); }

 private:
  const SystemOptions options_;
  Transport* const transport_;
  TimeSource* const time_source_;
  Rng session_rng_;
  std::vector<std::unique_ptr<MeerkatReplica>> replicas_;
};

class TapirSystem : public System {
 public:
  TapirSystem(const SystemOptions& options, Transport* transport, TimeSource* time_source)
      : System(options.admission, options.cache), options_(options), transport_(transport),
        time_source_(time_source), session_rng_(0xc0ffee) {
    InstallFaultPlan(options, transport);
    for (ReplicaId r = 0; r < options.quorum.n; r++) {
      replicas_.push_back(std::make_unique<TapirReplica>(r, options.quorum,
                                                         options.cores_per_replica, transport,
                                                         options.cost.shared_trecord_op_ns));
    }
  }

  SystemKind kind() const override { return SystemKind::kTapir; }

  void Load(const std::string& key, const std::string& value) override {
    for (auto& replica : replicas_) {
      replica->LoadKey(key, value, kLoadVersion);
    }
  }

  std::unique_ptr<ClientSession> CreateSession(uint32_t client_id, uint64_t seed) override {
    return std::make_unique<MeerkatSession>(
        client_id, transport_, time_source_,
        MeerkatSessionOptions(options_, session_rng_, &client_cache()), seed);
  }

  ReadResult ReadAtReplica(ReplicaId r, const std::string& key) override {
    return replicas_[r]->store().Read(key);
  }

  void CrashAndRestartReplica(ReplicaId r) override { replicas_[r]->CrashAndRestart(); }

  // TAPIR's IR view changes are out of scope for this baseline (it models the
  // failure-free path); readmission is a committed-state transfer from the
  // designated live replica. VStore::LoadKey applies the Thomas write rule,
  // so the copy composes with writes committed concurrently at `leader`.
  void InitiateRecovery(ReplicaId leader) override {
    for (auto& replica : replicas_) {
      if (!replica->recovering()) {
        continue;
      }
      replicas_[leader]->store().ForEachCommitted(
          [&replica](const std::string& key, const std::string& value, Timestamp wts) {
            replica->LoadKey(key, value, wts);
          });
      replica->FinishRecovery();
    }
  }

  bool ReplicaRecovering(ReplicaId r) const override { return replicas_[r]->recovering(); }

 private:
  const SystemOptions options_;
  Transport* const transport_;
  TimeSource* const time_source_;
  Rng session_rng_;
  std::vector<std::unique_ptr<TapirReplica>> replicas_;
};

class PbSystem : public System {
 public:
  PbSystem(const SystemOptions& options, Transport* transport, TimeSource* time_source)
      : System(options.admission), options_(options), transport_(transport),
        time_source_(time_source), session_rng_(0xc0ffee) {
    PbCosts costs;
    costs.atomic_counter_ns = options.cost.atomic_counter_ns;
    costs.shared_log_append_ns = options.cost.shared_log_append_ns;
    PbMode mode = options.kind == SystemKind::kKuaFu ? PbMode::kKuaFu : PbMode::kMeerkatPb;
    InstallFaultPlan(options, transport);
    for (ReplicaId r = 0; r < options.quorum.n; r++) {
      replicas_.push_back(std::make_unique<PrimaryBackupReplica>(
          r, mode, options.quorum, options.cores_per_replica, transport, costs));
    }
  }

  SystemKind kind() const override {
    return options_.kind;
  }

  void Load(const std::string& key, const std::string& value) override {
    for (auto& replica : replicas_) {
      replica->LoadKey(key, value, kLoadVersion);
    }
  }

  std::unique_ptr<ClientSession> CreateSession(uint32_t client_id, uint64_t seed) override {
    PrimaryBackupSession::Options s;
    s.quorum = options_.quorum;
    s.cores_per_replica = options_.cores_per_replica;
    s.mode = options_.kind == SystemKind::kKuaFu ? PbMode::kKuaFu : PbMode::kMeerkatPb;
    s.retry = options_.retry;
    s.clock_skew_ns = DrawSkew(session_rng_, options_.clock.max_skew_ns);
    s.clock_jitter_ns = options_.clock.jitter_ns;
    return std::make_unique<PrimaryBackupSession>(client_id, transport_, time_source_, s, seed);
  }

  ReadResult ReadAtReplica(ReplicaId r, const std::string& key) override {
    return replicas_[r]->store().Read(key);
  }

  // Primary-backup drills only crash backups: primary fail-over is a
  // reconfiguration this baseline does not model (see primary_backup.h). The
  // primary immediately excludes the crashed backup from its replication
  // quorum so commits keep finalizing.
  void CrashAndRestartReplica(ReplicaId r) override {
    if (r == 0) {
      return;  // The primary is never crashed in drills.
    }
    replicas_[r]->CrashAndRestart();
    replicas_[0]->MarkBackupDown(r);
  }

  // Readmission: copy the primary's committed state into each recovering
  // backup (Thomas write rule makes the copy compose with concurrent
  // replication), then re-include it in the replication quorum. `leader` is
  // ignored — the primary is the only authoritative source.
  void InitiateRecovery(ReplicaId leader) override {
    (void)leader;
    for (ReplicaId r = 1; r < static_cast<ReplicaId>(replicas_.size()); r++) {
      auto& replica = replicas_[r];
      if (!replica->recovering()) {
        continue;
      }
      replicas_[0]->store().ForEachCommitted(
          [&replica](const std::string& key, const std::string& value, Timestamp wts) {
            replica->LoadKey(key, value, wts);
          });
      replica->FinishRecovery();
      replicas_[0]->MarkBackupUp(r);
    }
  }

  bool ReplicaRecovering(ReplicaId r) const override { return replicas_[r]->recovering(); }

 private:
  const SystemOptions options_;
  Transport* const transport_;
  TimeSource* const time_source_;
  Rng session_rng_;
  std::vector<std::unique_ptr<PrimaryBackupReplica>> replicas_;
};

}  // namespace

std::unique_ptr<System> CreateSystem(const SystemOptions& options, Transport* transport,
                                     TimeSource* time_source) {
  // Only Meerkat replica groups shard, and a group's replica sets are 64-bit
  // masks. Abort rather than silently building a cluster whose clients would
  // address missing replicas or whose masks would overflow; this must hold
  // in release builds too, hence no assert.
  if (options.num_shards == 0 ||
      (options.num_shards != 1 && options.kind != SystemKind::kMeerkat)) {
    std::fprintf(stderr, "meerkat: num_shards %zu unsupported for %s (only MEERKAT shards)\n",
                 options.num_shards, ToString(options.kind));
    std::abort();
  }
  if (options.quorum.n == 0 || options.quorum.n > kMaxGroupReplicas) {
    std::fprintf(stderr, "meerkat: %zu replicas per group unsupported (1..%zu)\n",
                 options.quorum.n, kMaxGroupReplicas);
    std::abort();
  }
  switch (options.kind) {
    case SystemKind::kMeerkat:
      return std::make_unique<MeerkatSystem>(options, transport, time_source);
    case SystemKind::kTapir:
      return std::make_unique<TapirSystem>(options, transport, time_source);
    case SystemKind::kMeerkatPb:
    case SystemKind::kKuaFu:
      return std::make_unique<PbSystem>(options, transport, time_source);
  }
  return nullptr;
}

}  // namespace meerkat
