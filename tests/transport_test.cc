// Unit tests for the transport substrate: channel, fault injector, threaded
// transport (delivery, core affinity), the endpoint runtime both real-clock
// transports share (one thread per endpoint, endpoint-owned timers, delayed
// delivery, quiesce and Stop), and simulated transport (latency, CPU
// charging, coordination accounting).

#include <dirent.h>
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/metrics.h"
#include "src/sim/sim_time_source.h"
#include "src/sim/simulator.h"
#include "src/transport/channel.h"
#include "src/transport/fault_injector.h"
#include "src/transport/fault_plan.h"
#include "src/transport/sim_transport.h"
#include "src/transport/threaded_transport.h"
#include "src/transport/udp_transport.h"

namespace meerkat {
namespace {

constexpr auto kForever = std::chrono::steady_clock::time_point::max();

TEST(ChannelTest, PushPopFifo) {
  Channel<int> channel;
  channel.Push(1);
  channel.Push(2);
  std::vector<int> out;
  EXPECT_EQ(channel.PopAll(out), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(channel.PopAll(out), 0u);
  EXPECT_TRUE(channel.Empty());
}

TEST(ChannelTest, CloseUnblocksAndRejects) {
  Channel<int> channel;
  std::thread waiter([&] {
    // Blocks until close.
    EXPECT_FALSE(channel.WaitUntil(kForever));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel.Close();
  waiter.join();
  EXPECT_FALSE(channel.Push(1));
  EXPECT_TRUE(channel.Empty());
}

TEST(ChannelTest, PopForTimesOut) {
  Channel<int> channel;
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(channel.WaitUntil(start + std::chrono::milliseconds(20)));
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(15));
  channel.Push(7);
  EXPECT_TRUE(channel.WaitUntil(std::chrono::steady_clock::now() + std::chrono::milliseconds(20)));
  std::vector<int> out;
  EXPECT_EQ(channel.PopAll(out), 1u);
  EXPECT_EQ(out[0], 7);
}

TEST(ChannelTest, CrossThreadHandoff) {
  Channel<int> channel;
  std::thread producer([&] {
    for (int i = 0; i < 1000; i++) {
      channel.Push(i);
    }
  });
  int sum = 0;
  int received = 0;
  std::vector<int> out;
  while (received < 1000) {
    if (channel.PopAll(out) == 0) {
      channel.WaitUntil(kForever);
      continue;
    }
    for (int v : out) {
      sum += v;
    }
    received += static_cast<int>(out.size());
  }
  producer.join();
  EXPECT_EQ(received, 1000);
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

// --- The endpoint runtime, on both real-clock wires --------------------------

enum class Wire { kThreaded, kUdp };

std::unique_ptr<EndpointRuntime> MakeRuntime(Wire wire, uint64_t base_delay_ns = 0) {
  if (wire == Wire::kThreaded) {
    return std::make_unique<ThreadedTransport>(base_delay_ns);
  }
  UdpTransport::Options options;
  options.base_delay_ns = base_delay_ns;
  return std::make_unique<UdpTransport>(options);
}

std::string WireName(Wire wire) { return wire == Wire::kThreaded ? "Threaded" : "Udp"; }

// Threads in this process, from the entries of /proc/self/task.
int ProcessThreadCount() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) {
    return -1;
  }
  int n = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') {
      n++;
    }
  }
  ::closedir(dir);
  return n;
}

// Records every delivery with the thread that made it.
class ThreadRecorder : public TransportReceiver {
 public:
  void Receive(Message&& msg) override {
    std::lock_guard<std::mutex> lock(mu_);
    messages_.push_back(std::move(msg));
    threads_.push_back(std::this_thread::get_id());
    count_.fetch_add(1, std::memory_order_release);
  }

  size_t Count() const { return count_.load(std::memory_order_acquire); }

  bool WaitFor(size_t n, int timeout_ms = 5000) {
    for (int i = 0; i < timeout_ms && Count() < n; i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Count() >= n;
  }

  std::vector<Message> Messages() {
    std::lock_guard<std::mutex> lock(mu_);
    return messages_;
  }

  std::vector<std::thread::id> Threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 private:
  std::mutex mu_;
  std::vector<Message> messages_;
  std::vector<std::thread::id> threads_;
  std::atomic<size_t> count_{0};
};

Message ClientMessage(uint32_t to, uint64_t tag) {
  Message msg;
  msg.src = Address::Client(to);
  msg.dst = Address::Client(to);
  msg.payload = PutReply{tag};
  return msg;
}

class EndpointRuntimeTest : public ::testing::TestWithParam<Wire> {};

// ProcessThreadCount once it has stopped changing: a joined thread's /proc
// entry can outlive the join by a moment, so an earlier test's threads may
// still be listed. Waits for five unchanged reads a millisecond apart, bounded
// like the wait at the end of RunsOneThreadPerEndpoint.
int SettledThreadCount() {
  int count = ProcessThreadCount();
  for (int i = 0, unchanged = 0; i < 1000 && unchanged < 5; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const int next = ProcessThreadCount();
    unchanged = next == count ? unchanged + 1 : 0;
    count = next;
  }
  return count;
}

TEST_P(EndpointRuntimeTest, RunsOneThreadPerEndpoint) {
  const int before = SettledThreadCount();
  ASSERT_GT(before, 0);
  std::unique_ptr<EndpointRuntime> transport = MakeRuntime(GetParam());
  EXPECT_EQ(ProcessThreadCount(), before) << "a transport with no endpoints runs a thread";
  ThreadRecorder r0, r1, client;
  transport->RegisterReplica(0, 0, &r0);
  transport->RegisterReplica(0, 1, &r1);
  transport->RegisterClient(7, &client);
  EXPECT_EQ(ProcessThreadCount(), before + 3);
  // Re-registration swaps the receiver of the living endpoint.
  transport->UnregisterReplica(0, 1);
  transport->RegisterReplica(0, 1, &r0);
  EXPECT_EQ(ProcessThreadCount(), before + 3);
  transport->Stop();
  // A joined thread's /proc entry can outlive the join by a moment.
  for (int i = 0; i < 1000 && ProcessThreadCount() != before; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ProcessThreadCount(), before);
}

TEST_P(EndpointRuntimeTest, FiredTimerSendsNoDatagram) {
  std::unique_ptr<EndpointRuntime> transport = MakeRuntime(GetParam());
  ThreadRecorder client;
  transport->RegisterClient(1, &client);
  const uint64_t sent_before = SnapshotMetrics().CounterValue("udp.sent_datagrams");
  transport->SetTimer(Address::Client(1), 0, 2'000'000, 9);
  ASSERT_TRUE(client.WaitFor(1));
  EXPECT_EQ(SnapshotMetrics().CounterValue("udp.sent_datagrams"), sent_before);
  transport->Stop();
}

TEST_P(EndpointRuntimeTest, DelayedDeliveryArrivesLater) {
  // Every message waits 5 ms; the first waits 5 ms more.
  std::unique_ptr<EndpointRuntime> transport = MakeRuntime(GetParam(), 5'000'000);
  transport->faults().InstallPlan(FaultPlan().DelayNth(MsgKind::kPutReply, 1, 5'000'000));
  ThreadRecorder client;
  transport->RegisterClient(1, &client);
  const auto start = std::chrono::steady_clock::now();
  transport->Send(ClientMessage(1, 1));
  transport->Send(ClientMessage(1, 2));
  ASSERT_TRUE(client.WaitFor(1));
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(4));
  ASSERT_TRUE(client.WaitFor(2));
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(8));
  std::vector<Message> got = client.Messages();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(std::get<PutReply>(got[0].payload).req_seq, 2u) << "deadline order";
  EXPECT_EQ(std::get<PutReply>(got[1].payload).req_seq, 1u);
  transport->Stop();
}

TEST_P(EndpointRuntimeTest, DrainWaitsForAPendingTimer) {
  std::unique_ptr<EndpointRuntime> transport = MakeRuntime(GetParam());
  ThreadRecorder client;
  transport->RegisterClient(1, &client);
  transport->SetTimer(Address::Client(1), 0, 20'000'000, 3);
  transport->DrainForTesting();
  EXPECT_EQ(client.Count(), 1u) << "DrainForTesting returned before a pending timer fired";
  transport->Stop();
}

TEST_P(EndpointRuntimeTest, StopReturnsPromptlyWithALongTimerPending) {
  std::unique_ptr<EndpointRuntime> transport = MakeRuntime(GetParam());
  ThreadRecorder client;
  transport->RegisterClient(1, &client);
  transport->SetTimer(Address::Client(1), 0, 10'000'000'000, 3);
  // Let the owner take the timer into its heap and park until it is due.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto start = std::chrono::steady_clock::now();
  transport->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(200));
  EXPECT_EQ(client.Count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Wires, EndpointRuntimeTest,
                         ::testing::Values(Wire::kThreaded, Wire::kUdp),
                         [](const ::testing::TestParamInfo<Wire>& info) {
                           return WireName(info.param);
                         });

// Arms a timer for itself from inside Receive (owner = true), or lets the
// test thread arm it.
class TimerArmer : public ThreadRecorder {
 public:
  TimerArmer(Transport* transport, CoreId core) : transport_(transport), core_(core) {}

  void Receive(Message&& msg) override {
    const bool arm = std::holds_alternative<GetRequest>(msg.payload);
    ThreadRecorder::Receive(std::move(msg));
    if (arm) {
      transport_->SetTimer(Address::Replica(0), core_, 2'000'000, 77);
    }
  }

 private:
  Transport* const transport_;
  const CoreId core_;
};

class EndpointTimerTest : public ::testing::TestWithParam<std::tuple<Wire, bool>> {};

TEST_P(EndpointTimerTest, FiresOnceOnTheOwnerThread) {
  const auto [wire, armed_by_owner] = GetParam();
  std::unique_ptr<EndpointRuntime> transport = MakeRuntime(wire);
  TimerArmer core0(transport.get(), 0);
  TimerArmer core1(transport.get(), 1);
  transport->RegisterReplica(0, 0, &core0);
  transport->RegisterReplica(0, 1, &core1);
  // A first message pins down core 1's delivery thread (and, for the owner
  // case, arms the timer from inside Receive).
  Message msg;
  msg.src = Address::Client(1);
  msg.dst = Address::Replica(0);
  msg.core = 1;
  msg.payload = armed_by_owner ? Payload{GetRequest{}} : Payload{PutReply{1}};
  transport->Send(msg);
  ASSERT_TRUE(core1.WaitFor(1));
  if (!armed_by_owner) {
    transport->SetTimer(Address::Replica(0), 1, 2'000'000, 77);
  }
  ASSERT_TRUE(core1.WaitFor(2));
  // Well past the timer, so a second firing would have landed.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<Message> got = core1.Messages();
  std::vector<std::thread::id> threads = core1.Threads();
  ASSERT_EQ(got.size(), 2u);
  const auto* fire = std::get_if<TimerFire>(&got[1].payload);
  ASSERT_NE(fire, nullptr);
  EXPECT_EQ(fire->timer_id, 77u);
  EXPECT_EQ(threads[1], threads[0]) << "the timer fired off its owner's thread";
  EXPECT_NE(threads[1], std::this_thread::get_id());
  EXPECT_EQ(core0.Count(), 0u);
  transport->Stop();
}

INSTANTIATE_TEST_SUITE_P(
    WiresAndArmingThreads, EndpointTimerTest,
    ::testing::Combine(::testing::Values(Wire::kThreaded, Wire::kUdp), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Wire, bool>>& info) {
      return WireName(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "ArmedByOwner" : "ArmedByOtherThread");
    });

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
