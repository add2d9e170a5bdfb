// Fault-tolerance walkthrough: demonstrates the paper's §5.3 recovery
// machinery end to end on the threaded runtime.
//
//   1. Normal operation: fast-path commits.
//   2. Replica crash: the cluster keeps committing on the slow path
//      (leaderless quorum — no reconfiguration pause, unlike primary-backup).
//   3. Replica restart + epoch change: the recovering replica is rebuilt from
//      its peers and the cluster returns to the fast path.
//
//   $ ./fault_tolerance

#include <cstdio>

#include "src/api/blocking_client.h"
#include "src/api/system.h"
#include "src/protocol/replica.h"
#include "src/protocol/session.h"
#include "src/transport/threaded_transport.h"

using namespace meerkat;

namespace {

// This walkthrough needs recovery hooks (crash, epoch change), so it builds
// the replicas directly rather than through the System facade.
struct Cluster {
  ThreadedTransport transport;
  SystemTimeSource time_source;
  QuorumConfig quorum = QuorumConfig::ForReplicas(3);
  std::vector<std::unique_ptr<MeerkatReplica>> replicas;

  Cluster() {
    for (ReplicaId r = 0; r < quorum.n; r++) {
      replicas.push_back(std::make_unique<MeerkatReplica>(r, quorum, /*num_cores=*/2, &transport,
                                                          &time_source));
    }
  }
};

}  // namespace

int main() {
  Cluster cluster;
  for (auto& replica : cluster.replicas) {
    replica->LoadKey("status", "all-healthy", Timestamp{1, 0});
  }

  SessionOptions session_options;
  session_options.quorum = cluster.quorum;
  session_options.cores_per_replica = 2;
  session_options.retry = RetryPolicy::WithTimeout(2'000'000);  // 2 ms: rides out the crash.
  MeerkatSession raw_session(1, &cluster.transport, &cluster.time_source, session_options, 7);

  // Minimal blocking shim over the raw session.
  std::mutex mu;
  std::condition_variable cv;
  auto run_txn = [&](TxnPlan plan) {
    std::unique_lock<std::mutex> lock(mu);
    bool done = false;
    TxnOutcome outcome;
    raw_session.ExecuteAsync(std::move(plan), [&](const TxnOutcome& o) {
      std::lock_guard<std::mutex> inner(mu);
      outcome = o;
      done = true;
      cv.notify_one();
    });
    cv.wait(lock, [&] { return done; });
    printf("   -> %s via %s path (%llu retransmits)\n", ToString(outcome.result),
           ToString(outcome.path), static_cast<unsigned long long>(outcome.retransmits));
    return outcome.result;
  };

  printf("1. normal operation (all 3 replicas up):\n");
  TxnPlan txn = Txn().Rmw("status", "written-before-crash").Build();
  run_txn(txn);

  printf("\n2. replica 2 crashes (fast path now impossible; commits continue):\n");
  cluster.transport.faults().CrashReplica(2);
  TxnPlan txn2 = Txn().Rmw("status", "written-during-crash").Build();
  run_txn(txn2);
  run_txn(txn2);

  printf("\n3. replica 2 restarts with no state and rejoins via epoch change:\n");
  cluster.replicas[2]->CrashAndRestart();
  cluster.transport.faults().RecoverReplica(2);
  cluster.replicas[0]->InitiateEpochChange();
  cluster.transport.DrainForTesting();
  printf("   replica 2 epoch=%llu waiting_recovery=%s\n",
         static_cast<unsigned long long>(cluster.replicas[2]->epoch()),
         cluster.replicas[2]->waiting_recovery() ? "true" : "false");
  ReadResult rebuilt = cluster.replicas[2]->store().Read("status");
  printf("   replica 2 rebuilt state: status=%s\n", rebuilt.value.c_str());

  printf("\n4. back to normal (fast path again):\n");
  TxnPlan txn3 = Txn().Rmw("status", "recovered").Build();
  run_txn(txn3);

  cluster.transport.DrainForTesting();
  for (ReplicaId r = 0; r < 3; r++) {
    printf("replica %u: status=%s\n", r, cluster.replicas[r]->store().Read("status").value.c_str());
  }
  cluster.transport.Stop();
  return 0;
}
