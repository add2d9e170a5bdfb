// MetricsRegistry and trace-ring tests: registration idempotence, cross-
// thread summation, gauge arithmetic, the fast-path counters' exact deltas,
// JSON rendering, and the torn-snapshot stress that the CI TSan job runs —
// snapshots racing recorders must be data-race-free and counter totals
// monotone.

#include "src/common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/common/trace.h"
#include "src/protocol/coordinator.h"
#include "src/store/vstore.h"
#include "src/transport/channel.h"
#include "tests/test_util.h"

namespace meerkat {
namespace {

// Registered at static init, mirroring how production code registers metrics
// (file-local const MetricId). This guarantees these ids exist before the
// CapacityOverflow test can exhaust the registry, whatever gtest's order.
const MetricId kTestCounter = MetricsRegistry::Counter("test.counter");
const MetricId kTestGauge = MetricsRegistry::Gauge("test.gauge");
const MetricId kTestHist = MetricsRegistry::Histogram("test.hist");
const MetricId kStressCounter = MetricsRegistry::Counter("test.stress_counter");
const MetricId kStressGauge = MetricsRegistry::Gauge("test.stress_gauge");

TEST(MetricsRegistryTest, RegistrationIsIdempotentByName) {
  MetricId again = MetricsRegistry::Counter("test.counter");
  EXPECT_TRUE(again.valid());
  EXPECT_EQ(again.index, kTestCounter.index);

  MetricId gauge_again = MetricsRegistry::Gauge("test.gauge");
  EXPECT_EQ(gauge_again.index, kTestGauge.index);

  MetricId hist_again = MetricsRegistry::Histogram("test.hist");
  EXPECT_EQ(hist_again.index, kTestHist.index);

  // Distinct names get distinct ids within a kind.
  MetricId other = MetricsRegistry::Counter("test.counter_other");
  ASSERT_TRUE(other.valid());
  EXPECT_NE(other.index, kTestCounter.index);
}

TEST(MetricsRegistryTest, InvalidIdRecordingIsANoOp) {
  MetricsSnapshot before = SnapshotMetrics();
  MetricIncr(MetricId{}, 100);
  MetricGaugeAdd(MetricId{}, -100);
  MetricRecordValue(MetricId{}, 100);
  MetricsSnapshot after = SnapshotMetrics();
  EXPECT_EQ(before.counters, after.counters);
  EXPECT_EQ(before.gauges, after.gauges);
}

TEST(MetricsRegistryTest, CountersSumAcrossThreads) {
  uint64_t base = SnapshotMetrics().CounterValue("test.counter");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([] {
      for (int i = 0; i < 1000; i++) {
        MetricIncr(kTestCounter);
      }
      MetricIncr(kTestCounter, 10);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(SnapshotMetrics().CounterValue("test.counter"), base + 4 * 1010);
}

TEST(MetricsRegistryTest, GaugeDeltasSumToLiveCount) {
  int64_t base = SnapshotMetrics().GaugeValue("test.gauge");
  // One thread "inserts" 50, another "erases" 30 of them: the global live
  // count is the cross-thread sum even though neither thread saw both sides.
  std::thread inserter([] { MetricGaugeAdd(kTestGauge, 50); });
  inserter.join();
  std::thread eraser([] { MetricGaugeAdd(kTestGauge, -30); });
  eraser.join();
  EXPECT_EQ(SnapshotMetrics().GaugeValue("test.gauge"), base + 20);
}

TEST(MetricsRegistryTest, HistogramMergesAcrossThreads) {
  std::thread low([] { MetricRecordValue(kTestHist, 1000); });
  low.join();
  std::thread high([] { MetricRecordValue(kTestHist, 1'000'000); });
  high.join();
  MetricsSnapshot snap = SnapshotMetrics();
  auto it = snap.histograms.find("test.hist");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_GE(it->second.Count(), 2u);
  EXPECT_LE(it->second.MinNanos(), 1000u);
  EXPECT_GE(it->second.MaxNanos(), 1'000'000u);
}

// The fast-path instruments are ordinary registry counters: each recording
// site adds exactly its event count, and a snapshot holds no "fastpath." key.
TEST(MetricsRegistryTest, VStoreFastReadCountsOnce) {
  VStore store;
  store.LoadKey("k", "v", Timestamp{1, 0});
  uint64_t before = SnapshotMetrics().CounterValue("vstore.fast_reads");
  ReadResult r = store.Read("k");
  ASSERT_TRUE(r.found);
  EXPECT_EQ(SnapshotMetrics().CounterValue("vstore.fast_reads"), before + 1);
}

TEST(MetricsRegistryTest, ChannelPushWithoutParkedConsumerCountsSkippedNotify) {
  Channel<int> channel;
  uint64_t before = SnapshotMetrics().CounterValue("channel.notifies_skipped");
  ASSERT_TRUE(channel.Push(1));
  EXPECT_EQ(SnapshotMetrics().CounterValue("channel.notifies_skipped"), before + 1);
}

TEST(MetricsRegistryTest, ValidateFanOutCountsSharedPayloads) {
  CapturingTransport transport;
  CommitCoordinator coordinator(&transport, Address::Client(1), QuorumConfig::ForReplicas(3),
                                RetryPolicy::Disabled());
  uint64_t before = SnapshotMetrics().CounterValue("coord.payload_fanout_shares");
  coordinator.Start(/*core=*/0, TxnId{1, 1}, Timestamp{100, 1}, {{"k", Timestamp{1, 0}}},
                    {{"k", "v"}}, /*timer_base=*/100);
  ASSERT_EQ(transport.Count<ValidateRequest>(), 3u);
  // Three VALIDATEs share one payload: two set copies avoided.
  EXPECT_EQ(SnapshotMetrics().CounterValue("coord.payload_fanout_shares"), before + 2);
}

TEST(MetricsRegistryTest, SnapshotHasNoFastPathFold) {
  for (const auto& [name, value] : SnapshotMetrics().counters) {
    EXPECT_NE(name.rfind("fastpath.", 0), 0u) << name;
  }
}

TEST(MetricsRegistryTest, ToJsonRendersEveryKindWellFormed) {
  MetricIncr(kTestCounter);
  MetricGaugeAdd(kTestGauge, 1);
  MetricRecordValue(kTestHist, 5000);
  std::string json = SnapshotMetrics().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.hist\": {\"count\""), std::string::npos);
  // Balanced braces => no truncated fragment.
  int depth = 0;
  for (char c : json) {
    if (c == '{') depth++;
    if (c == '}') depth--;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(MetricsRegistryTest, MissingNamesReadAsZero) {
  MetricsSnapshot snap = SnapshotMetrics();
  EXPECT_EQ(snap.CounterValue("test.never_registered"), 0u);
  EXPECT_EQ(snap.GaugeValue("test.never_registered"), 0);
}

TEST(MetricsRegistryTest, CapacityOverflowYieldsInvalidIdNotCorruption) {
  // Exhaust the gauge registry (the smallest). Ids handed out before the
  // overflow — including the static-init ones above — must keep working.
  MetricId last_valid{};
  MetricId overflowed{};
  for (size_t i = 0; i < MetricsRegistry::kMaxGauges + 4; i++) {
    MetricId id = MetricsRegistry::Gauge("test.overflow_gauge_" + std::to_string(i));
    if (id.valid()) {
      last_valid = id;
    } else {
      overflowed = id;
    }
  }
  EXPECT_FALSE(overflowed.valid());
  ASSERT_TRUE(last_valid.valid());

  int64_t base = SnapshotMetrics().GaugeValue("test.gauge");
  MetricGaugeAdd(overflowed, 1000);  // Dropped, not written anywhere.
  MetricGaugeAdd(kTestGauge, 7);     // Pre-overflow id still lands.
  EXPECT_EQ(SnapshotMetrics().GaugeValue("test.gauge"), base + 7);
}

// The TSan target: recorder threads spin on counter/gauge records while the
// main thread snapshots mid-flight. Torn totals are expected; data races and
// non-monotone counter totals are not.
TEST(MetricsRegistryTest, TornSnapshotStressIsMonotoneAndRaceFree) {
  uint64_t counter_base = SnapshotMetrics().CounterValue("test.stress_counter");
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 200'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < kPerThread; i++) {
        MetricIncr(kStressCounter);
        MetricGaugeAdd(kStressGauge, 1);
        MetricGaugeAdd(kStressGauge, -1);
      }
    });
  }
  go.store(true, std::memory_order_release);

  uint64_t last = counter_base;
  for (int i = 0; i < 50; i++) {
    uint64_t now = SnapshotMetrics().CounterValue("test.stress_counter");
    EXPECT_GE(now, last) << "counter total went backwards across snapshots";
    last = now;
  }
  for (auto& th : threads) {
    th.join();
  }
  MetricsSnapshot final_snap = SnapshotMetrics();
  EXPECT_EQ(final_snap.CounterValue("test.stress_counter"),
            counter_base + kThreads * kPerThread);
  // Every +1 was paired with a -1, so quiescent gauge total is unchanged.
  EXPECT_EQ(final_snap.GaugeValue("test.stress_gauge"), 0);
}

#if MEERKAT_TRACE

TEST(TraceRingTest, CollectFiltersByTxnAndSortsByTime) {
  ResetTraces();
  TxnId mine{7, 100};
  TxnId other{8, 200};
  TraceRecord(mine, TraceStep::kTxnStart, 3);
  TraceRecord(other, TraceStep::kTxnStart, 1);
  TraceRecord(mine, TraceStep::kValidateSent, 3);
  TraceRecord(mine, TraceStep::kTxnCommitted, 1);

  std::vector<TraceEvent> events = CollectTrace(mine);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].step, TraceStep::kTxnStart);
  EXPECT_EQ(events[1].step, TraceStep::kValidateSent);
  EXPECT_EQ(events[2].step, TraceStep::kTxnCommitted);
  for (size_t i = 1; i < events.size(); i++) {
    EXPECT_LE(events[i - 1].t_ns, events[i].t_ns);
    EXPECT_EQ(events[i].tid.client_id, mine.client_id);
    EXPECT_EQ(events[i].tid.seq, mine.seq);
  }
}

TEST(TraceRingTest, CollectSpansThreads) {
  ResetTraces();
  TxnId tid{9, 1};
  TraceRecord(tid, TraceStep::kValidateSent);
  std::thread replica([&tid] { TraceRecord(tid, TraceStep::kValidateReply, 2); });
  replica.join();
  std::vector<TraceEvent> events = CollectTrace(tid);
  EXPECT_EQ(events.size(), 2u);
}

TEST(TraceRingTest, RingOverwritesOldestKeepsNewest) {
  ResetTraces();
  TxnId tid{10, 1};
  // Far more events than one ring holds; the newest must survive.
  for (uint32_t i = 0; i < 10000; i++) {
    TraceRecord(tid, TraceStep::kGetSent, i);
  }
  std::vector<TraceEvent> events = CollectTrace(tid);
  ASSERT_FALSE(events.empty());
  EXPECT_LT(events.size(), 10000u);
  EXPECT_EQ(events.back().arg, 9999u);
}

TEST(TraceRingTest, FormatAndDumpAreWellFormed) {
  ResetTraces();
  TxnId tid{11, 42};
  TraceRecord(tid, TraceStep::kTxnAborted, 2);
  std::vector<TraceEvent> events = CollectTrace(tid);
  ASSERT_EQ(events.size(), 1u);
  std::string line = events[0].Format();
  EXPECT_NE(line.find("TXN_ABORTED"), std::string::npos);
  EXPECT_NE(line.find("11"), std::string::npos);

  // Dumps must not crash on empty or populated rings.
  FILE* sink = fopen("/dev/null", "w");
  ASSERT_NE(sink, nullptr);
  DumpRecentTraces(sink, 16);
  DumpTraceForTxn(tid, sink);
  ResetTraces();
  DumpRecentTraces(sink, 16);
  fclose(sink);
}

#endif  // MEERKAT_TRACE

}  // namespace
}  // namespace meerkat
