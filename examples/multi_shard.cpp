// Distributed transactions across hash-partitioned shards (paper §5.2.4):
// a 3-shard, 9-replica deployment where single transactions atomically span
// shards — the validation phase doubles as the atomic-commitment prepare.
//
//   $ ./multi_shard

#include <cstdio>
#include <set>

#include "src/api/blocking_client.h"
#include "src/api/system.h"
#include "src/transport/threaded_transport.h"

using namespace meerkat;

int main() {
  constexpr size_t kShards = 3;
  constexpr size_t kReplicas = 3;
  ThreadedTransport transport;
  SystemTimeSource time_source;
  auto options = SystemOptions()
                     .WithShards(kShards)  // 3 shards x 3 replicas = 9 replicas.
                     .WithReplicas(kReplicas)
                     .WithCores(2)
                     .WithRetry(RetryPolicy::WithTimeout(5'000'000));
  auto system = CreateSystem(options, &transport, &time_source);

  // Find keys on three different shards, then load them.
  std::string keys[kShards];
  size_t found = 0;
  for (int i = 0; found < kShards && i < 10000; i++) {
    std::string candidate = "item-" + std::to_string(i);
    if (ShardForKey(candidate, kShards) == found) {
      keys[found++] = candidate;
    }
  }
  for (const std::string& key : keys) {
    system->Load(key, "100");
    printf("loaded %-8s on shard %zu\n", key.c_str(), ShardForKey(key, kShards));
  }

  BlockingClient client(*system, /*client_id=*/1, /*seed=*/7);
  auto run = [&](TxnPlan plan, const char* label) {
    std::set<size_t> shards;
    for (const Op& op : plan.ops) {
      shards.insert(ShardForKey(op.key, kShards));
    }
    TxnOutcome outcome = client.Execute(std::move(plan));
    printf("%-32s -> %s (%zu shard%s involved)\n", label, ToString(outcome.result),
           shards.size(), shards.size() == 1 ? "" : "s");
    return outcome.result;
  };

  // A three-shard atomic transfer: move 10 units from item 0 to items 1 and 2.
  TxnPlan transfer =
      Txn()
          .RmwFn(keys[0], [](const std::string& v) { return std::to_string(std::stoi(v) - 10); })
          .RmwFn(keys[1], [](const std::string& v) { return std::to_string(std::stoi(v) + 5); })
          .RmwFn(keys[2], [](const std::string& v) { return std::to_string(std::stoi(v) + 5); })
          .Build();
  run(std::move(transfer), "3-shard transfer");

  // A cross-shard read-only transaction observes a consistent snapshot.
  TxnBuilder audit_builder = Txn();
  for (const std::string& key : keys) {
    audit_builder.Get(key);
  }
  TxnPlan audit = audit_builder.Build();
  run(std::move(audit), "3-shard consistent read");

  transport.DrainForTesting();
  int total = 0;
  for (const std::string& key : keys) {
    // Replica 0 of the key's shard (System replica ids are global).
    ReadResult r = system->ReadAtReplica(
        static_cast<ReplicaId>(ShardForKey(key, kShards) * kReplicas), key);
    printf("%-8s = %s\n", key.c_str(), r.value.c_str());
    total += std::stoi(r.value);
  }
  printf("total = %d %s\n", total, total == 300 ? "(conserved across shards)" : "(VIOLATION!)");
  transport.Stop();
  return total == 300 ? 0 : 1;
}
