// UDP transport unit tests: wire round-trips, per-core flow steering (in
// both steering modes), sendmmsg fan-out batching, fault injection,
// spin-then-park endpoint threads (stop and pause), the endpoint directory's
// range guards on both real-clock wires, and the steady-state zero-allocation
// guarantee of the encode/send path, the write-phase cork included. Timers
// are covered in both steering modes here, and with the rest of the shared
// endpoint runtime in transport_test.cc.

#include "src/transport/udp_transport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <mutex>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/transport/serialization.h"
#include "src/transport/threaded_transport.h"

// Thread-local allocation counter wired into global operator new: lets the
// zero-alloc test observe exactly the sending thread's heap traffic while
// poller threads decode (and legitimately allocate) concurrently.
namespace {
thread_local int64_t t_alloc_count = 0;
}  // namespace

// noinline keeps GCC from pairing a specific inlined new with the generic
// delete and warning about a mismatch that cannot happen (both sides always
// forward to malloc/free).
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

struct RecordingReceiver : TransportReceiver {
  std::mutex mu;
  std::vector<Message> msgs;
  std::set<std::thread::id> threads;
  std::atomic<uint64_t> count{0};

  void Receive(Message&& msg) override {
    {
      std::lock_guard<std::mutex> lock(mu);
      msgs.push_back(std::move(msg));
      threads.insert(std::this_thread::get_id());
    }
    count.fetch_add(1, std::memory_order_release);
  }

  bool WaitForCount(uint64_t n, int timeout_ms = 5000) {
    for (int i = 0; i < timeout_ms; i++) {
      if (count.load(std::memory_order_acquire) >= n) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return count.load(std::memory_order_acquire) >= n;
  }
};

Message MakeGet(uint32_t from_client, const Address& dst, CoreId core, uint64_t seq,
                const std::string& key) {
  Message msg;
  msg.src = Address::Client(from_client);
  msg.dst = dst;
  msg.core = core;
  msg.payload = GetRequest{TxnId{from_client, seq}, seq, key};
  return msg;
}

// Both steering modes must produce identical routing behavior; the param is
// force_distinct_ports.
class UdpModeTest : public ::testing::TestWithParam<bool> {
 protected:
  UdpTransport::Options Opts() const {
    UdpTransport::Options o;
    o.force_distinct_ports = GetParam();
    return o;
  }
};

TEST_P(UdpModeTest, ClientRoundTripAcrossTheWire) {
  UdpTransport t(Opts());
  RecordingReceiver a;
  RecordingReceiver b;
  t.RegisterClient(1, &a);
  t.RegisterClient(2, &b);

  Message msg;
  msg.src = Address::Client(1);
  msg.dst = Address::Client(2);
  msg.core = 0;
  msg.payload = GetReply{TxnId{1, 9}, 9, "key", "value", Timestamp{42, 1}, true};
  t.Send(std::move(msg));

  ASSERT_TRUE(b.WaitForCount(1));
  std::lock_guard<std::mutex> lock(b.mu);
  ASSERT_EQ(b.msgs.size(), 1u);
  const auto* reply = std::get_if<GetReply>(&b.msgs[0].payload);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->key, "key");
  EXPECT_EQ(reply->value, "value");
  EXPECT_EQ(reply->wts, (Timestamp{42, 1}));
  EXPECT_EQ(b.msgs[0].src, Address::Client(1));
  EXPECT_EQ(a.count.load(), 0u);
}

TEST_P(UdpModeTest, SteeringDeliversEachCoreOnItsOwnPollerThread) {
  constexpr CoreId kCores = 4;
  constexpr uint64_t kPerCore = 25;
  UdpTransport t(Opts());
  RecordingReceiver receivers[kCores];
  for (CoreId c = 0; c < kCores; c++) {
    t.RegisterReplica(0, c, &receivers[c]);
  }

  for (uint64_t i = 0; i < kPerCore; i++) {
    for (CoreId c = 0; c < kCores; c++) {
      t.Send(MakeGet(1, Address::Replica(0), c, i * kCores + c, "k"));
    }
  }

  std::set<std::thread::id> all_threads;
  for (CoreId c = 0; c < kCores; c++) {
    ASSERT_TRUE(receivers[c].WaitForCount(kPerCore)) << "core " << c;
    std::lock_guard<std::mutex> lock(receivers[c].mu);
    EXPECT_EQ(receivers[c].msgs.size(), kPerCore) << "core " << c;
    // Every message landed on the endpoint it was steered to...
    for (const Message& m : receivers[c].msgs) {
      EXPECT_EQ(m.core, c);
    }
    // ...and each core's traffic was dispatched by exactly one thread,
    // distinct from every other core's (software RSS preserves DAP).
    ASSERT_EQ(receivers[c].threads.size(), 1u) << "core " << c;
    all_threads.insert(*receivers[c].threads.begin());
  }
  EXPECT_EQ(all_threads.size(), kCores);
}

TEST_P(UdpModeTest, SendManyFanoutIsDelivered) {
  UdpTransport t(Opts());
  RecordingReceiver receivers[3];
  for (ReplicaId r = 0; r < 3; r++) {
    t.RegisterReplica(r, 0, &receivers[r]);
  }

  TxnSetsPtr sets = MakeTxnSets({ReadSetEntry{"rk", Timestamp{5, 1}}},
                                {WriteSetEntry{"wk", "wv"}});
  std::vector<Message> batch(3);
  for (ReplicaId r = 0; r < 3; r++) {
    batch[r].src = Address::Client(1);
    batch[r].dst = Address::Replica(r);
    batch[r].core = 0;
    batch[r].payload = ValidateRequest{TxnId{1, 7}, Timestamp{10, 1}, sets};
  }
  t.SendMany(batch.data(), batch.size());

  for (ReplicaId r = 0; r < 3; r++) {
    ASSERT_TRUE(receivers[r].WaitForCount(1)) << "replica " << r;
    std::lock_guard<std::mutex> lock(receivers[r].mu);
    const auto* req = std::get_if<ValidateRequest>(&receivers[r].msgs[0].payload);
    ASSERT_NE(req, nullptr);
    EXPECT_EQ(req->tid, (TxnId{1, 7}));
    ASSERT_EQ(req->read_set().size(), 1u);
    EXPECT_EQ(req->read_set()[0].key, "rk");
    ASSERT_EQ(req->write_set().size(), 1u);
    EXPECT_EQ(req->write_set()[0].value, "wv");
  }
}

// Wire-identical fan-out siblings take WireSend's encode-once path (the
// staged datagram is byte-copied with only the dst field patched); every
// replica must still decode ITS OWN address, not the first sibling's.
TEST_P(UdpModeTest, FanoutSharedPayloadPatchesDestination) {
  UdpTransport t(Opts());
  RecordingReceiver receivers[3];
  for (ReplicaId r = 0; r < 3; r++) {
    t.RegisterReplica(r, 0, &receivers[r]);
  }

  TxnSetsPtr sets = MakeTxnSets({ReadSetEntry{"rk", Timestamp{5, 1}}},
                                {WriteSetEntry{"wk", "wv"}});
  std::vector<Message> batch(3);
  for (ReplicaId r = 0; r < 3; r++) {
    batch[r].src = Address::Client(9);
    batch[r].dst = Address::Replica(r);
    batch[r].core = 0;
    batch[r].payload = ValidateRequest{TxnId{9, 1}, Timestamp{10, 1}, sets};
  }
  t.SendMany(batch.data(), batch.size());

  for (ReplicaId r = 0; r < 3; r++) {
    ASSERT_TRUE(receivers[r].WaitForCount(1)) << "replica " << r;
    std::lock_guard<std::mutex> lock(receivers[r].mu);
    EXPECT_EQ(receivers[r].msgs[0].src, Address::Client(9));
    EXPECT_EQ(receivers[r].msgs[0].dst, Address::Replica(r));
    EXPECT_EQ(receivers[r].msgs[0].core, 0u);
  }
}

// Batches that are ALMOST wire-identical — same shared sets, one field
// different per sibling — must not be collapsed by the encode-once path:
// every replica gets the payload sent to it, not a copy of the first
// sibling's.
TEST_P(UdpModeTest, FanoutWithDistinctTidsIsNotCollapsed) {
  UdpTransport t(Opts());
  RecordingReceiver receivers[3];
  for (ReplicaId r = 0; r < 3; r++) {
    t.RegisterReplica(r, 0, &receivers[r]);
  }

  TxnSetsPtr sets = MakeTxnSets({ReadSetEntry{"rk", Timestamp{5, 1}}},
                                {WriteSetEntry{"wk", "wv"}});
  const std::function<Payload(ReplicaId)> siblings[] = {
      [&](ReplicaId r) -> Payload {
        return ValidateRequest{TxnId{9, 100 + r}, Timestamp{10, 1}, sets};
      },
      [&](ReplicaId r) -> Payload {
        ValidateRequest req{TxnId{9, 1}, Timestamp{10, 1}, sets};
        req.priority = static_cast<uint8_t>(r);
        return req;
      },
      [&](ReplicaId r) -> Payload {
        return ValidateRequest{TxnId{9, 1}, Timestamp{10 + r, 1}, sets};
      },
      [](ReplicaId r) -> Payload {
        return CommitRequest{TxnId{9, 1}, true, Timestamp{10 + r, 1}};
      },
      [](ReplicaId r) -> Payload {
        return CommitRequest{TxnId{9, 1}, r == 0, Timestamp{10, 1}};
      },
  };
  for (size_t c = 0; c < std::size(siblings); c++) {
    std::vector<Message> batch(3);
    for (ReplicaId r = 0; r < 3; r++) {
      batch[r].src = Address::Client(9);
      batch[r].dst = Address::Replica(r);
      batch[r].core = 0;
      batch[r].payload = siblings[c](r);
    }
    std::vector<Message> sent = batch;
    t.SendMany(batch.data(), batch.size());

    for (ReplicaId r = 0; r < 3; r++) {
      ASSERT_TRUE(receivers[r].WaitForCount(c + 1)) << "case " << c << " replica " << r;
      std::lock_guard<std::mutex> lock(receivers[r].mu);
      EXPECT_EQ(EncodeMessage(receivers[r].msgs[c]), EncodeMessage(sent[r]))
          << "case " << c << ": replica " << r << " got another sibling's payload";
    }
  }
}

TEST_P(UdpModeTest, TimerFiresOnTheOwningCore) {
  UdpTransport t(Opts());
  RecordingReceiver r0;
  RecordingReceiver r1;
  t.RegisterReplica(0, 0, &r0);
  t.RegisterReplica(0, 1, &r1);
  // A first datagram pins down core 1's endpoint thread.
  t.Send(MakeGet(1, Address::Replica(0), 1, 1, "k"));
  ASSERT_TRUE(r1.WaitForCount(1));

  t.SetTimer(Address::Replica(0), 1, 1'000'000, 77);
  ASSERT_TRUE(r1.WaitForCount(2));
  std::lock_guard<std::mutex> lock(r1.mu);
  ASSERT_EQ(r1.msgs.size(), 2u);
  const auto* fire = std::get_if<TimerFire>(&r1.msgs[1].payload);
  ASSERT_NE(fire, nullptr);
  EXPECT_EQ(fire->timer_id, 77u);
  EXPECT_EQ(r1.threads.size(), 1u) << "the timer fired off core 1's endpoint thread";
  EXPECT_EQ(r0.count.load(), 0u);
}

TEST_P(UdpModeTest, InjectedDropsSuppressDelivery) {
  UdpTransport t(Opts());
  RecordingReceiver r;
  t.RegisterClient(1, &r);
  t.faults().SetDropProbability(1.0);
  for (int i = 0; i < 10; i++) {
    Message msg;
    msg.src = Address::Client(2);
    msg.dst = Address::Client(1);
    msg.core = 0;
    msg.payload = PutReply{static_cast<uint64_t>(i)};
    t.Send(std::move(msg));
  }
  t.DrainForTesting();
  EXPECT_EQ(r.count.load(), 0u);
}

TEST_P(UdpModeTest, UnregisteredEndpointDropsInsteadOfCrashing) {
  UdpTransport t(Opts());
  RecordingReceiver r;
  t.RegisterClient(1, &r);
  t.UnregisterClient(1);
  uint64_t drops_before = SnapshotMetrics().CounterValue("udp.no_receiver_drops");
  t.Send(MakeGet(2, Address::Client(1), 0, 1, "k"));
  t.DrainForTesting();
  EXPECT_EQ(r.count.load(), 0u);
  EXPECT_GE(SnapshotMetrics().CounterValue("udp.no_receiver_drops"), drops_before + 1);
}

TEST_P(UdpModeTest, UnroutableDestinationIsCountedNotSent) {
  UdpTransport t(Opts());
  uint64_t before = SnapshotMetrics().CounterValue("udp.unroutable_drops");
  t.Send(MakeGet(1, Address::Client(999), 0, 1, "k"));
  EXPECT_GE(SnapshotMetrics().CounterValue("udp.unroutable_drops"), before + 1);
}

TEST_P(UdpModeTest, GarbageDatagramsFailDecodeCleanly) {
  UdpTransport t(Opts());
  RecordingReceiver r;
  t.RegisterReplica(0, 0, &r);
  uint16_t port = t.PortOfForTesting(Address::Replica(0), 0);
  ASSERT_NE(port, 0);

  uint64_t decode_before = SnapshotMetrics().CounterValue("udp.decode_failures");
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dst.sin_port = htons(port);
  // Steering word for core 0, then junk the codec must reject.
  uint8_t garbage[32] = {0, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef};
  for (int i = 0; i < 5; i++) {
    garbage[8] = static_cast<uint8_t>(i);
    ASSERT_EQ(::sendto(fd, garbage, sizeof(garbage), 0,
                       reinterpret_cast<sockaddr*>(&dst), sizeof(dst)),
              static_cast<ssize_t>(sizeof(garbage)));
  }
  // A well-formed frame forging a timer: timers never cross the wire, so its
  // tag must not decode.
  WireWriter forged;
  forged.U32(0);  // Steering word for core 0.
  forged.U8(0);   // src: client 7
  forged.U32(7);
  forged.U8(1);   // dst: replica 0
  forged.U32(0);
  forged.U32(0);  // core
  forged.U8(static_cast<uint8_t>(Payload(TimerFire{}).index()));
  forged.U64(77);  // timer id
  std::vector<uint8_t> timer = forged.Take();
  ASSERT_EQ(::sendto(fd, timer.data(), timer.size(), 0, reinterpret_cast<sockaddr*>(&dst),
                     sizeof(dst)),
            static_cast<ssize_t>(timer.size()));
  ::close(fd);
  t.DrainForTesting();
  EXPECT_EQ(r.count.load(), 0u);
  EXPECT_GE(SnapshotMetrics().CounterValue("udp.decode_failures"), decode_before + 6);
}

// The acceptance criterion for the wire path: once thread-local buffers are
// warm, a coordinator-style SendMany fan-out performs zero heap allocations
// per message on the sending thread. Shared txn sets (refcounted) + reusable
// encode buffers + stack-staged batches make this hold by construction; this
// test keeps it true.
TEST_P(UdpModeTest, ZeroAllocationsPerMessageAtSteadyState) {
  UdpTransport t(Opts());
  RecordingReceiver receivers[3];
  for (ReplicaId r = 0; r < 3; r++) {
    t.RegisterReplica(r, 0, &receivers[r]);
  }

  TxnSetsPtr sets = MakeTxnSets(
      {ReadSetEntry{"read-key-one", Timestamp{5, 1}}, ReadSetEntry{"read-key-two", Timestamp{6, 1}}},
      {WriteSetEntry{"write-key", "written-value"}});
  std::vector<Message> batch(3);
  auto fill = [&] {
    for (ReplicaId r = 0; r < 3; r++) {
      batch[r].src = Address::Client(7);
      batch[r].dst = Address::Replica(r);
      batch[r].core = 0;
      // Variant assignment of a ValidateRequest copies the TxnSetsPtr — a
      // refcount bump, not a deep copy or allocation.
      batch[r].payload = ValidateRequest{TxnId{7, 1}, Timestamp{1, 7}, sets};
    }
  };

  // Warmup: first sends grow the thread-local encode buffers and metric
  // slabs to their steady-state capacity.
  for (int i = 0; i < 64; i++) {
    fill();
    t.SendMany(batch.data(), batch.size());
  }

  constexpr int kMessagesPerIter = 3;
  constexpr int kIters = 256;
  int64_t before = t_alloc_count;
  for (int i = 0; i < kIters; i++) {
    fill();
    t.SendMany(batch.data(), batch.size());
  }
  int64_t allocs = t_alloc_count - before;
  EXPECT_EQ(allocs, 0) << "encode/send path allocated " << allocs << " times over "
                       << kIters * kMessagesPerIter << " messages";

  for (ReplicaId r = 0; r < 3; r++) {
    EXPECT_TRUE(receivers[r].WaitForCount(64 + kIters)) << "replica " << r;
  }
}

// An endpoint thread that, inside each delivery, sends a COMMIT fan-out
// (held by the cork), a GET to one of the replicas (the matching COMMIT
// rides with it, the other two follow), and a second fan-out that it then
// Flushes: the client's write phase and next request, as the session sends
// them. Counts its own thread's allocations across those sends.
class CorkingClient : public TransportReceiver {
 public:
  explicit CorkingClient(UdpTransport* transport) : transport_(transport) {}

  void Receive(Message&& msg) override {
    const uint64_t seq = std::get<GetReply>(msg.payload).req_seq;
    const int64_t before = t_alloc_count;
    FillCommits(seq);
    transport_->SendMany(commits_, 3);
    transport_->Send(MakeGet(7, Address::Replica(static_cast<ReplicaId>(seq % 3)), 0, seq, "k"));
    FillCommits(seq + 1);
    transport_->SendMany(commits_, 3);
    transport_->Flush();
    allocs_.fetch_add(t_alloc_count - before, std::memory_order_relaxed);
    delivered_.fetch_add(1, std::memory_order_release);
  }

  int64_t allocs() const { return allocs_.load(std::memory_order_relaxed); }
  uint64_t delivered() const { return delivered_.load(std::memory_order_acquire); }

 private:
  void FillCommits(uint64_t seq) {
    for (ReplicaId r = 0; r < 3; r++) {
      commits_[r].src = Address::Client(7);
      commits_[r].dst = Address::Replica(r);
      commits_[r].core = 0;
      commits_[r].payload = CommitRequest{TxnId{7, seq}, true, Timestamp{seq, 7}};
    }
  }

  UdpTransport* const transport_;
  Message commits_[3];
  std::atomic<int64_t> allocs_{0};
  std::atomic<uint64_t> delivered_{0};
};

// The zero-allocation guarantee covers the cork: holding COMMITs, merging
// them into the next request's sendmmsg and flushing the rest allocate
// nothing on the endpoint thread once its buffers are warm. Per delivery the
// wire carries 6 datagrams for 7 messages: the GET shares one with its
// replica's COMMIT.
TEST_P(UdpModeTest, CorkedCommitsAllocateNothingAtSteadyState) {
  // Metric snapshots are race-free only while no endpoint thread records:
  // before the transport starts any, and after Stop.
  const uint64_t sent_before = SnapshotMetrics().CounterValue("udp.sent_datagrams");
  UdpTransport t(Opts());
  RecordingReceiver replicas[3];
  for (ReplicaId r = 0; r < 3; r++) {
    t.RegisterReplica(r, 0, &replicas[r]);
  }
  CorkingClient client(&t);
  t.RegisterClient(7, &client);

  // Sends delivery `seq` to the client and waits until it has run.
  auto kick = [&](uint64_t seq) {
    Message msg;
    msg.src = Address::Client(8);
    msg.dst = Address::Client(7);
    msg.payload = GetReply{TxnId{8, seq}, seq, "k", "v", Timestamp{1, 8}, true};
    t.Send(std::move(msg));
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (client.delivered() < seq && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    return client.delivered() == seq;
  };

  constexpr uint64_t kWarmup = 64;
  constexpr uint64_t kIters = 256;
  for (uint64_t seq = 1; seq <= kWarmup; seq++) {
    ASSERT_TRUE(kick(seq)) << "delivery " << seq << " lost";
  }
  const int64_t warm_allocs = client.allocs();
  for (uint64_t seq = kWarmup + 1; seq <= kWarmup + kIters; seq++) {
    ASSERT_TRUE(kick(seq)) << "delivery " << seq << " lost";
  }
  EXPECT_EQ(client.allocs() - warm_allocs, 0)
      << "corked send path allocated over " << kIters << " deliveries";
  t.DrainForTesting();
  t.Stop();
  uint64_t delivered = 0;
  for (ReplicaId r = 0; r < 3; r++) {
    delivered += replicas[r].count.load();
  }
  EXPECT_EQ(delivered, (kWarmup + kIters) * 7);
  // The kick plus the client's six datagrams per delivery.
  EXPECT_EQ(SnapshotMetrics().CounterValue("udp.sent_datagrams") - sent_before,
            (kWarmup + kIters) * 7);
}

INSTANTIATE_TEST_SUITE_P(SteeringModes, UdpModeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "DistinctPorts" : "ReuseportGroups";
                         });

TEST(UdpSteeringModeTest, ReuseportGroupsActiveOnThisKernel) {
  // The primary design — SO_REUSEPORT groups steered by cBPF — must engage
  // on any kernel this repo targets (>= 4.6); the distinct-port fallback is
  // for exotic sandboxes and is exercised explicitly by UdpModeTest.
  UdpTransport t;
  RecordingReceiver r;
  t.RegisterReplica(0, 0, &r);
  t.RegisterReplica(0, 1, &r);
  EXPECT_TRUE(t.reuseport_steering());
  // Group members share one port.
  EXPECT_EQ(t.PortOfForTesting(Address::Replica(0), 0),
            t.PortOfForTesting(Address::Replica(0), 1));
}

TEST(UdpSteeringModeTest, DistinctPortModeUsesOnePortPerCore) {
  UdpTransport::Options o;
  o.force_distinct_ports = true;
  UdpTransport t(o);
  RecordingReceiver r;
  t.RegisterReplica(0, 0, &r);
  t.RegisterReplica(0, 1, &r);
  EXPECT_FALSE(t.reuseport_steering());
  EXPECT_NE(t.PortOfForTesting(Address::Replica(0), 0),
            t.PortOfForTesting(Address::Replica(0), 1));
}

TEST(UdpTransportLifecycleTest, ReRegisterSwapsReceiverWithoutRebinding) {
  // Crash-restart drills re-register endpoints; the socket (and its slot in
  // the reuseport group join order) must survive, with traffic flowing to
  // the new receiver.
  UdpTransport t;
  RecordingReceiver old_r;
  RecordingReceiver new_r;
  t.RegisterReplica(0, 0, &old_r);
  uint16_t port = t.PortOfForTesting(Address::Replica(0), 0);
  t.UnregisterReplica(0, 0);
  t.RegisterReplica(0, 0, &new_r);
  EXPECT_EQ(t.PortOfForTesting(Address::Replica(0), 0), port);

  t.Send(MakeGet(1, Address::Replica(0), 0, 1, "k"));
  ASSERT_TRUE(new_r.WaitForCount(1));
  EXPECT_EQ(old_r.count.load(), 0u);
}

// --- Spin-then-park endpoint threads -------------------------------------------

TEST(UdpTransportLifecycleTest, StopJoinsProbingPollersPromptly) {
  RecordingReceiver r;
  UdpTransport t;
  t.RegisterReplica(0, 0, &r);
  t.RegisterReplica(0, 1, &r);
  // Stream datagrams at both cores, then stop right after the last one, so
  // both pollers are still inside their probe windows when Stop lands.
  std::atomic<bool> sending{true};
  std::thread sender([&] {
    for (uint64_t seq = 1; sending.load(std::memory_order_acquire); seq++) {
      t.Send(MakeGet(1, Address::Replica(0), static_cast<CoreId>(seq % 2), seq, "k"));
    }
  });
  ASSERT_TRUE(r.WaitForCount(100));
  sending.store(false, std::memory_order_release);
  sender.join();
  const auto start = std::chrono::steady_clock::now();
  t.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

TEST(UdpTransportLifecycleTest, PausedPollerDispatchesNothing) {
  RecordingReceiver r;  // Outlives the pollers.
  UdpTransport t;
  t.RegisterReplica(0, 0, &r);
  t.Send(MakeGet(1, Address::Replica(0), 0, 1, "k"));
  ASSERT_TRUE(r.WaitForCount(1));
  t.SetPollersPausedForTesting(true);
  // Let a probe or drain already past its pause check finish.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  constexpr uint64_t kQueued = 8;
  for (uint64_t seq = 2; seq < 2 + kQueued; seq++) {
    t.Send(MakeGet(1, Address::Replica(0), 0, seq, "k"));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(r.count.load(std::memory_order_acquire), 1u)
      << "a paused poller dispatched the datagrams that woke it";
  // Unpaused, the poller delivers what queued in the socket meanwhile.
  t.SetPollersPausedForTesting(false);
  EXPECT_TRUE(r.WaitForCount(1 + kQueued));
}

// --- Endpoint-directory range guards, on both real-clock wires ---------------

template <typename TransportT>
void RegisterReplicaAt(ReplicaId replica, CoreId core) {
  TransportT t;
  RecordingReceiver r;
  t.RegisterReplica(replica, core, &r);
}

TEST(EndpointKeyGuardDeathTest, UdpRegistrationChecksReplicaRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(RegisterReplicaAt<UdpTransport>(UdpTransport::kMaxReplicas, 0),
               "replica id.*out of range");
}

TEST(EndpointKeyGuardDeathTest, UdpRegistrationChecksCoreRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(RegisterReplicaAt<UdpTransport>(0, UdpTransport::kMaxCoresPerReplica),
               "core.*out of range");
}

TEST(EndpointKeyGuardDeathTest, ThreadedRegistrationChecksReplicaRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(RegisterReplicaAt<ThreadedTransport>(ThreadedTransport::kMaxReplicas, 0),
               "replica id.*out of range");
}

TEST(EndpointKeyGuardDeathTest, ThreadedRegistrationChecksCoreRange) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(RegisterReplicaAt<ThreadedTransport>(0, ThreadedTransport::kMaxCoresPerReplica),
               "core.*out of range");
}

}  // namespace
}  // namespace meerkat
