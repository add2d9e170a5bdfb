// Unit tests for the transport substrate: channel, fault injector, threaded
// transport (delivery, core affinity, timers), the real-clock transports'
// test quiesce, and simulated transport (latency, CPU charging, coordination
// accounting).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/sim/sim_time_source.h"
#include "src/sim/simulator.h"
#include "src/transport/channel.h"
#include "src/transport/fault_injector.h"
#include "src/transport/sim_transport.h"
#include "src/transport/threaded_transport.h"
#include "src/transport/udp_transport.h"

namespace meerkat {
namespace {

TEST(ChannelTest, PushPopFifo) {
  Channel<int> channel;
  channel.Push(1);
  channel.Push(2);
  EXPECT_EQ(channel.TryPop().value(), 1);
  EXPECT_EQ(channel.TryPop().value(), 2);
  EXPECT_FALSE(channel.TryPop().has_value());
}

TEST(ChannelTest, CloseUnblocksAndRejects) {
  Channel<int> channel;
  std::thread waiter([&] {
    // Blocks until close.
    EXPECT_FALSE(channel.Pop().has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel.Close();
  waiter.join();
  EXPECT_FALSE(channel.Push(1));
  EXPECT_TRUE(channel.closed());
}

TEST(ChannelTest, PopForTimesOut) {
  Channel<int> channel;
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(channel.PopFor(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(15));
  channel.Push(7);
  EXPECT_EQ(channel.PopFor(std::chrono::milliseconds(20)).value(), 7);
}

TEST(ChannelTest, CrossThreadHandoff) {
  Channel<int> channel;
  std::thread producer([&] {
    for (int i = 0; i < 1000; i++) {
      channel.Push(i);
    }
  });
  int sum = 0;
  for (int i = 0; i < 1000; i++) {
    sum += channel.Pop().value();
  }
  producer.join();
  EXPECT_EQ(sum, 499500);
}

TEST(FaultInjectorTest, DefaultPassesEverything) {
  FaultInjector faults;
  Message msg;
  msg.src = Address::Client(1);
  msg.dst = Address::Replica(0);
  for (int i = 0; i < 100; i++) {
    FaultInjector::Verdict v = faults.Judge(msg);
    EXPECT_FALSE(v.drop);
    EXPECT_FALSE(v.duplicate);
    EXPECT_EQ(v.extra_delay_ns, 0u);
  }
}

TEST(FaultInjectorTest, DropProbabilityRoughlyHolds) {
  FaultInjector faults;
  faults.SetDropProbability(0.3);
  Message msg;
  msg.src = Address::Client(1);
  msg.dst = Address::Replica(0);
  int drops = 0;
  for (int i = 0; i < 10000; i++) {
    if (faults.Judge(msg).drop) {
      drops++;
    }
  }
  EXPECT_NEAR(drops, 3000, 300);
  EXPECT_GT(faults.dropped(), 0u);
}

TEST(FaultInjectorTest, CrashedReplicaDropsBothDirections) {
  FaultInjector faults;
  faults.CrashReplica(1);
  Message to_crashed;
  to_crashed.src = Address::Client(1);
  to_crashed.dst = Address::Replica(1);
  Message from_crashed;
  from_crashed.src = Address::Replica(1);
  from_crashed.dst = Address::Client(1);
  Message unrelated;
  unrelated.src = Address::Client(1);
  unrelated.dst = Address::Replica(0);
  EXPECT_TRUE(faults.Judge(to_crashed).drop);
  EXPECT_TRUE(faults.Judge(from_crashed).drop);
  EXPECT_FALSE(faults.Judge(unrelated).drop);
  EXPECT_TRUE(faults.IsCrashed(1));
  faults.RecoverReplica(1);
  EXPECT_FALSE(faults.Judge(to_crashed).drop);
}

TEST(FaultInjectorTest, DirectedLinkBlocks) {
  FaultInjector faults;
  faults.BlockLink(Address::Replica(0), Address::Replica(1));
  Message forward;
  forward.src = Address::Replica(0);
  forward.dst = Address::Replica(1);
  Message reverse;
  reverse.src = Address::Replica(1);
  reverse.dst = Address::Replica(0);
  EXPECT_TRUE(faults.Judge(forward).drop);
  EXPECT_FALSE(faults.Judge(reverse).drop);  // Directed.
  faults.UnblockLink(Address::Replica(0), Address::Replica(1));
  EXPECT_FALSE(faults.Judge(forward).drop);
}

class Collector : public TransportReceiver {
 public:
  void Receive(Message&& msg) override {
    std::lock_guard<std::mutex> lock(mu_);
    messages_.push_back(std::move(msg));
    count_.fetch_add(1, std::memory_order_release);
  }

  size_t Count() const { return count_.load(std::memory_order_acquire); }

  std::vector<Message> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

  bool WaitFor(size_t n, int timeout_ms = 2000) {
    for (int i = 0; i < timeout_ms; i++) {
      if (Count() >= n) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Count() >= n;
  }

 private:
  std::mutex mu_;
  std::vector<Message> messages_;
  std::atomic<size_t> count_{0};
};

TEST(ThreadedTransportTest, RoutesByReplicaAndCore) {
  ThreadedTransport transport;
  Collector core0;
  Collector core1;
  Collector client;
  transport.RegisterReplica(0, 0, &core0);
  transport.RegisterReplica(0, 1, &core1);
  transport.RegisterClient(7, &client);

  Message msg;
  msg.src = Address::Client(7);
  msg.dst = Address::Replica(0);
  msg.core = 1;
  msg.payload = GetRequest{};
  transport.Send(msg);
  msg.core = 0;
  transport.Send(msg);
  msg.core = 0;
  transport.Send(msg);

  ASSERT_TRUE(core0.WaitFor(2));
  ASSERT_TRUE(core1.WaitFor(1));
  EXPECT_EQ(core0.Count(), 2u);
  EXPECT_EQ(core1.Count(), 1u);
  EXPECT_EQ(client.Count(), 0u);
  transport.Stop();
}

TEST(ThreadedTransportTest, SendToUnregisteredEndpointIsDropped) {
  ThreadedTransport transport;
  Message msg;
  msg.src = Address::Client(1);
  msg.dst = Address::Replica(9);
  msg.payload = GetRequest{};
  transport.Send(msg);  // Must not crash.
  transport.Stop();
}

TEST(ThreadedTransportTest, TimerFires) {
  ThreadedTransport transport;
  Collector client;
  transport.RegisterClient(1, &client);
  transport.SetTimer(Address::Client(1), 0, 5'000'000, 42);  // 5 ms.
  ASSERT_TRUE(client.WaitFor(1));
  auto messages = client.Take();
  const auto* fire = std::get_if<TimerFire>(&messages[0].payload);
  ASSERT_NE(fire, nullptr);
  EXPECT_EQ(fire->timer_id, 42u);
  transport.Stop();
}

TEST(ThreadedTransportTest, DelayedDeliveryArrivesLater) {
  ThreadedTransport transport(/*base_delay_ns=*/10'000'000);  // 10 ms.
  Collector client;
  transport.RegisterClient(1, &client);
  Message msg;
  msg.src = Address::Client(1);
  msg.dst = Address::Client(1);
  msg.payload = PutReply{1};
  auto start = std::chrono::steady_clock::now();
  transport.Send(msg);
  ASSERT_TRUE(client.WaitFor(1));
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(8));
  transport.Stop();
}

TEST(ThreadedTransportTest, DuplicationDeliversTwice) {
  ThreadedTransport transport;
  Collector client;
  transport.RegisterClient(1, &client);
  transport.faults().SetDuplicateProbability(1.0);
  Message msg;
  msg.src = Address::Client(1);
  msg.dst = Address::Client(1);
  msg.payload = PutReply{1};
  transport.Send(msg);
  ASSERT_TRUE(client.WaitFor(2));
  EXPECT_EQ(client.Count(), 2u);
  transport.Stop();
}

// --- DrainForTesting and a delivery still in flight -------------------------

// Blocks every delivery until the test opens the latch.
class LatchedReceiver : public TransportReceiver {
 public:
  void Receive(Message&&) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  bool WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5), [this] { return entered_; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

// The message has left the inbox (or the socket) but its delivery is still
// running: DrainForTesting, called from another thread, must wait it out.
template <typename TransportT>
void ExpectDrainWaitsForDeliveryInFlight() {
  LatchedReceiver receiver;  // Outlives the transport's delivery threads.
  TransportT transport;
  transport.RegisterReplica(0, 0, &receiver);
  Message msg;
  msg.src = Address::Client(1);
  msg.dst = Address::Replica(0);
  msg.core = 0;
  msg.payload = GetRequest{TxnId{1, 1}, 1, "k"};
  transport.Send(msg);
  if (!receiver.WaitEntered()) {
    receiver.Open();
    FAIL() << "the message never reached the receiver";
  }

  std::atomic<bool> opened{false};
  std::atomic<bool> returned_while_closed{false};
  std::thread drainer([&] {
    transport.DrainForTesting();
    returned_while_closed.store(!opened.load(std::memory_order_acquire),
                                std::memory_order_release);
  });
  // Well past the ~4 ms of three idle sweeps, well short of the sweep cap.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  opened.store(true, std::memory_order_release);
  receiver.Open();
  drainer.join();
  EXPECT_FALSE(returned_while_closed.load(std::memory_order_acquire))
      << "DrainForTesting returned while a delivery was still in flight";
  transport.Stop();
}

TEST(TransportDrainTest, ThreadedWaitsForDeliveryInFlight) {
  ExpectDrainWaitsForDeliveryInFlight<ThreadedTransport>();
}

TEST(TransportDrainTest, UdpWaitsForDeliveryInFlight) {
  ExpectDrainWaitsForDeliveryInFlight<UdpTransport>();
}

TEST(SimTransportTest, DeliveryChargesLatencyAndCpu) {
  CostModel cost;
  cost.one_way_latency_ns = 2000;
  cost.msg_recv_cpu_ns = 850;
  Simulator sim(cost);
  SimTransport transport(&sim);

  struct Recorder : TransportReceiver {
    uint64_t received_at = 0;
    void Receive(Message&&) override { received_at = SimContext::Current()->now(); }
  };
  Recorder recorder;
  transport.RegisterReplica(0, 0, &recorder);

  Message msg;
  msg.src = Address::Client(1);
  msg.dst = Address::Replica(0);
  msg.payload = GetRequest{};
  transport.Send(std::move(msg));  // Sent outside a handler at t=0.
  sim.Run();
  // Delivered at latency, then the receive CPU charge lands before the
  // handler body runs.
  EXPECT_EQ(recorder.received_at, 2000u + 850u);
}

TEST(SimTransportTest, CountsCoordinationByEndpointKinds) {
  CostModel cost;
  Simulator sim(cost);
  SimTransport transport(&sim);

  struct Forwarder : TransportReceiver {
    Transport* transport = nullptr;
    void Receive(Message&&) override {
      Message out;
      out.src = Address::Replica(0);
      out.dst = Address::Replica(1);
      out.payload = ReplicateRequest{};
      transport->Send(std::move(out));
    }
  };
  struct Sink : TransportReceiver {
    int count = 0;
    void Receive(Message&&) override { count++; }
  };
  Forwarder replica0;
  replica0.transport = &transport;
  Sink replica1;
  transport.RegisterReplica(0, 0, &replica0);
  transport.RegisterReplica(1, 0, &replica1);

  Message msg;
  msg.src = Address::Client(1);
  msg.dst = Address::Replica(0);
  msg.payload = GetRequest{};
  transport.Send(std::move(msg));
  sim.Run();
  EXPECT_EQ(replica1.count, 1);
  // The replica-originated message was counted as replica-to-replica (the
  // client-originated one was sent outside a handler, so it is not counted).
  EXPECT_EQ(sim.context().stats().replica_to_replica_msgs, 1u);
}

TEST(SimTransportTest, FaultInjectionDropsInSimToo) {
  CostModel cost;
  Simulator sim(cost);
  SimTransport transport(&sim);
  struct Sink : TransportReceiver {
    int count = 0;
    void Receive(Message&&) override { count++; }
  };
  Sink sink;
  transport.RegisterReplica(0, 0, &sink);
  transport.faults().SetDropProbability(1.0);
  Message msg;
  msg.src = Address::Client(1);
  msg.dst = Address::Replica(0);
  msg.payload = GetRequest{};
  transport.Send(std::move(msg));
  sim.Run();
  EXPECT_EQ(sink.count, 0);
}

}  // namespace
}  // namespace meerkat
