// Tests for the public API layer: the system factory and the blocking client
// (threaded runtime).

#include <gtest/gtest.h>

#include <thread>

#include "src/api/blocking_client.h"
#include "tests/test_util.h"

namespace meerkat {
namespace {

TEST(SystemFactoryTest, BuildsEveryKind) {
  for (SystemKind kind : {SystemKind::kMeerkat, SystemKind::kMeerkatPb, SystemKind::kTapir,
                          SystemKind::kKuaFu}) {
    SimHarness h(DefaultOptions(kind));
    EXPECT_EQ(h.system().kind(), kind);
    h.system().Load("k", "v");
    for (ReplicaId r = 0; r < 3; r++) {
      ReadResult read = h.system().ReadAtReplica(r, "k");
      ASSERT_TRUE(read.found);
      EXPECT_EQ(read.value, "v");
    }
  }
}

TEST(SystemFactoryTest, ToStringNames) {
  EXPECT_STREQ(ToString(SystemKind::kMeerkat), "MEERKAT");
  EXPECT_STREQ(ToString(SystemKind::kMeerkatPb), "MEERKAT-PB");
  EXPECT_STREQ(ToString(SystemKind::kTapir), "TAPIR");
  EXPECT_STREQ(ToString(SystemKind::kKuaFu), "KuaFu++");
}

class BlockingClientTest : public ::testing::TestWithParam<SystemKind> {};

TEST_P(BlockingClientTest, GetPutRoundTrip) {
  SystemOptions options = DefaultOptions(GetParam());
  options.retry = RetryPolicy::WithTimeout(5'000'000);
  ThreadedHarness h(options);
  BlockingClient client(h.system(), 1);

  EXPECT_FALSE(client.Get("missing").has_value());
  TxnOutcome put = client.Put("k", "v1");
  EXPECT_EQ(put.result, TxnResult::kCommit);
  EXPECT_TRUE(put.committed());
  EXPECT_NE(put.path, CommitPath::kNone);
  EXPECT_EQ(put.reason, AbortReason::kNone);
  EXPECT_EQ(client.Get("k").value_or(""), "v1");
}

TEST_P(BlockingClientTest, TransformRmw) {
  SystemOptions options = DefaultOptions(GetParam());
  options.retry = RetryPolicy::WithTimeout(5'000'000);
  ThreadedHarness h(options);
  h.system().Load("counter", "10");
  BlockingClient client(h.system(), 1);

  TxnPlan increment;
  increment.ops.push_back(Op::RmwFn("counter", [](const std::string& v) {
    return std::to_string(std::stoi(v) + 5);
  }));
  TxnOutcome outcome = client.ExecuteWithRetry(increment);
  EXPECT_EQ(outcome.result, TxnResult::kCommit);
  EXPECT_GE(outcome.attempts, 1u);
  EXPECT_EQ(client.Get("counter").value_or(""), "15");
}

TEST_P(BlockingClientTest, ConcurrentClientsMakeProgress) {
  SystemOptions options = DefaultOptions(GetParam());
  options.retry = RetryPolicy::WithTimeout(5'000'000);
  ThreadedHarness h(options);
  h.system().Load("shared", "0");

  std::vector<std::thread> threads;
  std::atomic<int> commits{0};
  for (int c = 0; c < 3; c++) {
    threads.emplace_back([&, c] {
      BlockingClient client(h.system(), static_cast<uint32_t>(c + 1), static_cast<uint64_t>(c));
      for (int i = 0; i < 20; i++) {
        TxnPlan plan;
        plan.ops.push_back(Op::RmwFn("shared", [](const std::string& v) {
          return std::to_string(std::stoll(v) + 1);
        }));
        if (client.ExecuteWithRetry(plan).committed()) {
          commits.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(commits.load(), 60);
  BlockingClient reader(h.system(), 9);
  // Every increment is serialized: the final value equals the commit count.
  EXPECT_EQ(reader.Get("shared").value_or(""), "60");
}

TEST(BlockingClientReadTest, GetRightAfterPutWaitsOutTheAsynchronousCommit) {
  // Put returns once the fast-path quorum has voted; its three COMMITs (one
  // per replica) land 5 ms later. The Get right after it reaches replicas
  // that still hold the write as pending, and its first attempts abort on
  // that writer. Get must retry them, not report the key as absent.
  SystemOptions options =
      DefaultOptions(SystemKind::kMeerkat)
          .WithRetry(RetryPolicy::WithTimeout(5'000'000))
          .WithFaultPlan(FaultPlan().DelayNth(MsgKind::kCommitRequest, 1,
                                              /*delay_ns=*/5'000'000, /*count=*/3));
  ThreadedHarness h(options);
  BlockingClient client(h.system(), 1);

  ASSERT_TRUE(client.Put("k", "v1").committed());
  EXPECT_EQ(client.Get("k").value_or("<absent>"), "v1");
  ASSERT_NE(h.transport().fault_injector(), nullptr);
  EXPECT_GE(h.transport().fault_injector()->rule_matches(0), 3u) << "vacuous fault plan";
}

INSTANTIATE_TEST_SUITE_P(AllSystems, BlockingClientTest,
                         ::testing::Values(SystemKind::kMeerkat, SystemKind::kMeerkatPb,
                                           SystemKind::kTapir, SystemKind::kKuaFu),
                         [](const ::testing::TestParamInfo<SystemKind>& info) {
                           switch (info.param) {
                             case SystemKind::kMeerkat:
                               return "Meerkat";
                             case SystemKind::kMeerkatPb:
                               return "MeerkatPB";
                             case SystemKind::kTapir:
                               return "Tapir";
                             case SystemKind::kKuaFu:
                               return "KuaFu";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace meerkat
