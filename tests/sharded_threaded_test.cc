// Distributed transactions on the threaded runtime: real threads, real
// locks, cross-shard invariant conservation under concurrency, on a sharded
// system built by CreateSystem.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/common/trace.h"
#include "tests/test_util.h"

namespace meerkat {
namespace {

constexpr size_t kShards = 2;
constexpr size_t kReplicas = 3;

class ShardedThreadedFixture : public ::testing::Test {
 protected:
  ShardedThreadedFixture()
      : h_(DefaultOptions(SystemKind::kMeerkat)
               .WithShards(kShards)
               .WithRetry(RetryPolicy::WithTimeout(3'000'000))) {}

  // Blocking one-shot transaction through `session`.
  TxnResult Run(ClientSession& session, TxnPlan plan) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    TxnResult result = TxnResult::kFailed;
    // ExecuteAsync outside mu: the session locks itself, and the completion
    // callback takes mu while holding that lock (same order as
    // BlockingClient::Execute).
    session.ExecuteAsync(std::move(plan), [&](const TxnOutcome& o) {
      std::lock_guard<std::mutex> inner(mu);
      result = o.result;
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return result;
  }

  std::pair<std::string, std::string> CrossShardKeys() {
    std::string a = "alpha";
    for (int i = 0; i < 1000; i++) {
      std::string b = "beta" + std::to_string(i);
      if (ShardForKey(b, kShards) != ShardForKey(a, kShards)) {
        return {a, b};
      }
    }
    return {a, a};
  }

  // Committed value of `key` at replica `r` of its shard.
  std::string ValueAt(const std::string& key, ReplicaId r) {
    ReplicaId base = static_cast<ReplicaId>(ShardForKey(key, kShards) * kReplicas);
    return h_.system().ReadAtReplica(base + r, key).value;
  }

  ThreadedHarness h_;
};

TEST_F(ShardedThreadedFixture, CrossShardCommitOnRealThreads) {
  auto [a, b] = CrossShardKeys();
  h_.system().Load(a, "0");
  h_.system().Load(b, "0");
  auto session = h_.MakeSession(1, 7);
  TxnPlan plan;
  plan.ops.push_back(Op::Rmw(a, "1"));
  plan.ops.push_back(Op::Rmw(b, "1"));
  ASSERT_EQ(Run(*session, plan), TxnResult::kCommit);
  if (MEERKAT_TRACE) {
    size_t validate_fanouts = 0;
    for (const TraceEvent& event : CollectTrace(session->last_tid())) {
      validate_fanouts += event.step == TraceStep::kValidateSent ? 1 : 0;
    }
    EXPECT_EQ(validate_fanouts, kShards);  // One per involved shard.
  }
  h_.transport().DrainForTesting();
  EXPECT_EQ(ValueAt(a, 0), "1");
  EXPECT_EQ(ValueAt(b, 1), "1");
}

TEST_F(ShardedThreadedFixture, ConcurrentCrossShardTransfersConserveTotal) {
  auto [a, b] = CrossShardKeys();
  h_.system().Load(a, "1000");
  h_.system().Load(b, "1000");

  constexpr int kThreads = 3;
  std::vector<std::unique_ptr<ClientSession>> sessions;
  for (int t = 0; t < kThreads; t++) {
    sessions.push_back(
        h_.MakeSession(static_cast<uint32_t>(t + 1), static_cast<uint64_t>(t) * 13 + 5));
  }
  std::atomic<int> commits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      ClientSession& session = *sessions[t];
      Rng rng(static_cast<uint64_t>(t) + 99);
      for (int i = 0; i < 25; i++) {
        int64_t amount = static_cast<int64_t>(rng.NextInRange(1, 9));
        bool forward = rng.NextBool(0.5);
        const std::string& from = forward ? a : b;
        const std::string& to = forward ? b : a;
        TxnPlan plan;
        plan.ops.push_back(Op::RmwFn(from, [amount](const std::string& v) {
          return std::to_string(std::stoll(v) - amount);
        }));
        plan.ops.push_back(Op::RmwFn(to, [amount](const std::string& v) {
          return std::to_string(std::stoll(v) + amount);
        }));
        if (Run(session, plan) == TxnResult::kCommit) {
          commits.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  h_.transport().DrainForTesting();
  EXPECT_GT(commits.load(), 0);
  // The cross-shard invariant: totals conserved on every replica pair.
  for (ReplicaId r = 0; r < kReplicas; r++) {
    int64_t total = std::stoll(ValueAt(a, r)) + std::stoll(ValueAt(b, r));
    EXPECT_EQ(total, 2000) << "replica " << r;
  }
}

}  // namespace
}  // namespace meerkat
