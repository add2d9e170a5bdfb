// Stress tests for the MPSC channel's fast-path machinery: multi-producer
// pushes against a batch-draining consumer, the push/close race, the
// FIFO-per-producer ordering guarantee through PopAll, and the liveness of
// spin-then-park consumers that outnumber the CPUs. Consumers run the
// endpoint loop's sequence (endpoint_runtime.h) reduced to one channel:
// drain, probe for the probe window, park. One test counts operator new
// over steady-state push/drain cycles. Run these under ThreadSanitizer
// (see .github/workflows/ci.yml) to validate the lock-free probe atomic.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "src/transport/channel.h"
#include "src/transport/spin_then_park.h"

// Thread-local allocation counter wired into global operator new (same
// pattern as the UDP zero-allocation audit).
namespace {
thread_local int64_t t_alloc_count = 0;
}  // namespace

__attribute__((noinline)) void* operator new(size_t size) {
  t_alloc_count++;
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace meerkat {
namespace {

// Drains `ch` into `out`, probing (spin_then_park.h) and then parking while
// it is empty. Returns false once the channel is closed and drained.
template <typename T>
bool PopAllBlocking(Channel<T>& ch, std::vector<T>& out) {
  if (ch.PopAll(out) > 0) {
    return true;
  }
  ProbeBeforePark([&ch] { return !ch.Empty(); });
  while (ch.PopAll(out) == 0) {
    if (!ch.WaitUntil(std::chrono::steady_clock::time_point::max())) {
      return false;
    }
  }
  return true;
}

TEST(ChannelStressTest, MultiProducerBatchDrainDeliversEverythingInOrder) {
  Channel<uint64_t> ch;
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 20000;

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&ch, p] {
      // Encode (producer, seq) so the consumer can check per-producer FIFO.
      for (uint64_t i = 0; i < kPerProducer; i++) {
        ASSERT_TRUE(ch.Push((static_cast<uint64_t>(p) << 32) | i));
      }
    });
  }

  uint64_t total = 0;
  uint64_t batches = 0;
  uint64_t max_batch = 0;
  std::vector<uint64_t> next_seq(kProducers, 0);
  std::thread consumer([&] {
    std::vector<uint64_t> batch;
    while (PopAllBlocking(ch, batch)) {
      batches++;
      max_batch = std::max<uint64_t>(max_batch, batch.size());
      for (uint64_t v : batch) {
        uint64_t p = v >> 32;
        uint64_t seq = v & 0xFFFFFFFFu;
        // A producer's items arrive in the order it pushed them, even across
        // batch boundaries.
        ASSERT_EQ(seq, next_seq[p]) << "producer " << p << " reordered";
        next_seq[p]++;
        total++;
      }
    }
  });

  for (auto& t : producers) {
    t.join();
  }
  ch.Close();
  consumer.join();

  EXPECT_EQ(total, static_cast<uint64_t>(kProducers) * kPerProducer);
  for (int p = 0; p < kProducers; p++) {
    EXPECT_EQ(next_seq[p], kPerProducer);
  }
  // The whole point of PopAll: strictly fewer lock round-trips than messages
  // whenever the consumer ever falls behind. (>= 1 batch always holds.)
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, total);
}

// A mailbox entry's size (EndpointRuntime::Pending is 192 bytes).
struct WideItem {
  uint64_t seq = 0;
  char pad[184] = {};
};

// Once the queue and the consumer's staging vector have grown to the largest
// backlog, pushing (one at a time and as a span) and draining allocate
// nothing. The counter is thread-local, so playing both roles on one thread
// sees both sides' allocations.
TEST(ChannelStressTest, SteadyStatePushDrainAllocatesNothing) {
  Channel<WideItem> ch;
  std::vector<WideItem> out;
  WideItem span[4];
  uint64_t next = 0;
  uint64_t expect = 0;
  bool in_order = true;
  // One cycle: a backlog of 1-8 entries, half pushed singly, half as a span,
  // then one drain.
  auto cycle = [&](int c) {
    const int singles = c % 5;
    const int spanned = c % 4 + 1;
    for (int i = 0; i < singles; i++) {
      WideItem item;
      item.seq = next++;
      ASSERT_TRUE(ch.Push(item));
    }
    for (int i = 0; i < spanned; i++) {
      span[i].seq = next++;
    }
    ASSERT_EQ(ch.PushAll(span, spanned), static_cast<size_t>(spanned));
    ASSERT_EQ(ch.PopAll(out), static_cast<size_t>(singles + spanned));
    for (const WideItem& item : out) {
      in_order = in_order && item.seq == expect++;
    }
  };
  for (int c = 0; c < 64; c++) {
    cycle(c);
  }
  constexpr int kCycles = 10'000;
  const int64_t before = t_alloc_count;
  for (int c = 0; c < kCycles; c++) {
    cycle(c);
  }
  EXPECT_EQ(t_alloc_count - before, 0) << "over " << kCycles << " push/drain cycles";
  EXPECT_TRUE(in_order);
}

TEST(ChannelStressTest, PushCloseRaceNeverLosesAcceptedItems) {
  // Producers race Close(): every Push that returned true must be delivered;
  // pushes after close must return false. Repeat to catch interleavings.
  for (int round = 0; round < 50; round++) {
    Channel<int> ch;
    std::atomic<uint64_t> accepted{0};
    constexpr int kProducers = 4;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; p++) {
      producers.emplace_back([&] {
        for (int i = 0; i < 1000; i++) {
          if (ch.Push(i)) {
            accepted.fetch_add(1, std::memory_order_relaxed);
          } else {
            // Channel closed: all subsequent pushes must also fail.
            ASSERT_FALSE(ch.Push(i));
            return;
          }
        }
      });
    }
    uint64_t received = 0;
    std::thread consumer([&] {
      std::vector<int> batch;
      while (PopAllBlocking(ch, batch)) {
        received += batch.size();
      }
      // Once the consumer is done the channel must be closed and empty.
      ASSERT_FALSE(ch.Push(0));
      ASSERT_TRUE(ch.Empty());
    });
    std::thread closer([&] { ch.Close(); });
    for (auto& t : producers) {
      t.join();
    }
    closer.join();
    consumer.join();
    EXPECT_EQ(received, accepted.load());
  }
}

TEST(ChannelStressTest, TryPopAllDrainsWithoutBlocking) {
  Channel<int> ch;
  std::vector<int> out;
  EXPECT_EQ(ch.PopAll(out), 0u);  // Empty: returns immediately.
  for (int i = 0; i < 100; i++) {
    ch.Push(i);
  }
  EXPECT_FALSE(ch.Empty());
  EXPECT_EQ(ch.PopAll(out), 100u);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
  EXPECT_TRUE(ch.Empty());
  EXPECT_EQ(ch.PopAll(out), 0u);
}

TEST(ChannelStressTest, PopAllBlocksUntilPushThenDrains) {
  Channel<int> ch;
  std::vector<int> out;
  std::thread producer([&] {
    // Give the consumer time to pass the spin phase and park on the condvar,
    // exercising the waiter-count notify path.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Push(1);
    ch.Push(2);
  });
  ASSERT_TRUE(PopAllBlocking(ch, out));
  producer.join();
  ASSERT_GE(out.size(), 1u);
  EXPECT_EQ(out[0], 1);
  std::vector<int> rest;
  ch.PopAll(rest);
  EXPECT_EQ(out.size() + rest.size(), 2u);
}

TEST(ChannelStressTest, CloseUnblocksParkedBatchConsumer) {
  Channel<int> ch;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    std::vector<int> out;
    EXPECT_FALSE(PopAllBlocking(ch, out));
    EXPECT_TRUE(out.empty());
    returned.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load(std::memory_order_acquire));
  ch.Close();
  consumer.join();
  EXPECT_TRUE(returned.load(std::memory_order_acquire));
}

// --- Spin-then-park consumers -----------------------------------------------

TEST(ChannelSpinThenParkTest, TokenRingWithMoreConsumersThanCpusKeepsMoving) {
  // Every consumer probes before parking, four per CPU: the yield between
  // probes must let the thread holding the token run.
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const size_t n = 4 * static_cast<size_t>(cpus);
  constexpr int kHops = 20000;
  std::vector<std::unique_ptr<Channel<int>>> ring;
  for (size_t i = 0; i < n; i++) {
    ring.push_back(std::make_unique<Channel<int>>());
  }
  std::atomic<int> hops{0};
  std::atomic<bool> finished{false};
  std::vector<std::thread> consumers;
  for (size_t i = 0; i < n; i++) {
    consumers.emplace_back([&, i] {
      std::vector<int> batch;
      while (PopAllBlocking(*ring[i], batch)) {
        for (int hop : batch) {
          hops.store(hop, std::memory_order_relaxed);
          if (hop == kHops) {
            finished.store(true, std::memory_order_release);
          } else {
            ring[(i + 1) % n]->Push(hop + 1);
          }
        }
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  ring[0]->Push(0);
  // Generous: ~0.3 s on a 4-vCPU host, far more under sanitizers.
  const auto deadline = start + std::chrono::seconds(60);
  while (!finished.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& ch : ring) {
    ch->Close();
  }
  for (auto& t : consumers) {
    t.join();
  }
  EXPECT_TRUE(finished.load(std::memory_order_acquire))
      << "token stalled at hop " << hops.load() << " of " << kHops << " over " << n
      << " consumers";
}

TEST(ChannelSpinThenParkTest, CloseEndsAProbingPopAllPromptly) {
  Channel<int> ch;
  std::atomic<bool> entered{false};
  std::chrono::steady_clock::time_point returned_at;
  std::thread consumer([&] {
    std::vector<int> out;
    entered.store(true, std::memory_order_release);
    EXPECT_FALSE(PopAllBlocking(ch, out));
    EXPECT_TRUE(out.empty());
    returned_at = std::chrono::steady_clock::now();
  });
  // Close while the consumer is (most likely) still inside its probe window.
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  const auto closed_at = std::chrono::steady_clock::now();
  ch.Close();
  consumer.join();
  EXPECT_LT(returned_at - closed_at, std::chrono::seconds(1));
}

}  // namespace
}  // namespace meerkat
