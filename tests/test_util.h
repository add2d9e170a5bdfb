// Shared fixtures for driving the systems under the simulator and the
// threaded runtime from tests.

#ifndef MEERKAT_TESTS_TEST_UTIL_H_
#define MEERKAT_TESTS_TEST_UTIL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/api/system.h"
#include "src/sim/sim_time_source.h"
#include "src/sim/simulator.h"
#include "src/transport/sim_transport.h"
#include "src/transport/threaded_transport.h"
#include "src/transport/udp_transport.h"

namespace meerkat {

// A clock a test sets by hand. Replicas built outside CreateSystem take one
// so their GC watermark (clock − horizon) is read in the same time the
// test's synthetic timestamps are stamped in; it stays where the test put it
// (0: no watermark at all) until the test moves it. Atomic: a threaded
// replica reads it from its worker thread.
class TestClock : public TimeSource {
 public:
  explicit TestClock(uint64_t now = 0) : now_(now) {}
  uint64_t NowNanos() override { return now_.load(std::memory_order_relaxed); }
  void Set(uint64_t now) { now_.store(now, std::memory_order_relaxed); }
  void Advance(uint64_t ns) { now_.fetch_add(ns, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> now_;
};

// Simulator-backed cluster of one system kind. Single-threaded and
// deterministic: ideal for protocol-level assertions.
class SimHarness {
 public:
  explicit SimHarness(const SystemOptions& options)
      : sim_(options.cost), transport_(&sim_), time_source_(&sim_) {
    system_ = CreateSystem(options, &transport_, &time_source_);
  }

  Simulator& sim() { return sim_; }
  SimTransport& transport() { return transport_; }
  System& system() { return *system_; }
  SimTimeSource& time_source() { return time_source_; }

  std::unique_ptr<ClientSession> MakeSession(uint32_t client_id, uint64_t seed = 1) {
    return system_->CreateSession(client_id, seed);
  }

  // Runs one transaction to completion (drains all resulting events,
  // including the asynchronous commit broadcast).
  TxnResult RunTxn(ClientSession& session, TxnPlan plan) {
    return RunTxnOutcome(session, std::move(plan)).result;
  }

  // Same, returning the full outcome (fault drills assert on path/reason/
  // retransmit counts, not just the result).
  TxnOutcome RunTxnOutcome(ClientSession& session, TxnPlan plan) {
    std::optional<TxnOutcome> outcome;
    SimActor* actor = transport_.ActorFor(Address::Client(session.client_id()), 0);
    sim_.Schedule(sim_.now() + 1, actor, [&](SimContext&) {
      session.ExecuteAsync(std::move(plan),
                           [&outcome](const TxnOutcome& o) { outcome = o; });
    });
    sim_.Run();
    return outcome.value_or(TxnOutcome{});
  }

  // Reads committed state directly from a replica's store.
  std::string ValueAt(ReplicaId r, const std::string& key) {
    ReadResult read = system_->ReadAtReplica(r, key);
    return read.found ? read.value : std::string();
  }

 private:
  Simulator sim_;
  SimTransport transport_;
  SimTimeSource time_source_;
  std::unique_ptr<System> system_;
};

// Threaded-runtime cluster (real threads, real locks).
class ThreadedHarness {
 public:
  explicit ThreadedHarness(const SystemOptions& options, uint64_t base_delay_ns = 0)
      : transport_(base_delay_ns) {
    system_ = CreateSystem(options, &transport_, &time_source_);
  }

  ~ThreadedHarness() { transport_.Stop(); }

  ThreadedTransport& transport() { return transport_; }
  System& system() { return *system_; }
  SystemTimeSource& time_source() { return time_source_; }

  std::unique_ptr<ClientSession> MakeSession(uint32_t client_id, uint64_t seed = 1) {
    return system_->CreateSession(client_id, seed);
  }

 private:
  ThreadedTransport transport_;
  SystemTimeSource time_source_;
  std::unique_ptr<System> system_;
};

// Loopback-UDP cluster (real sockets, real datagram loss). Same surface as
// ThreadedHarness so integration suites can run unchanged over the wire.
class UdpHarness {
 public:
  explicit UdpHarness(const SystemOptions& options,
                      UdpTransport::Options udp_options = UdpTransport::Options{})
      : transport_(udp_options) {
    system_ = CreateSystem(options, &transport_, &time_source_);
  }

  ~UdpHarness() { transport_.Stop(); }

  UdpTransport& transport() { return transport_; }
  System& system() { return *system_; }
  SystemTimeSource& time_source() { return time_source_; }

  std::unique_ptr<ClientSession> MakeSession(uint32_t client_id, uint64_t seed = 1) {
    return system_->CreateSession(client_id, seed);
  }

 private:
  UdpTransport transport_;
  SystemTimeSource time_source_;
  std::unique_ptr<System> system_;
};

// Records outbound messages and armed timers; delivers nothing. Tests drive
// a coordinator or session on it by hand with synthetic replies.
class CapturingTransport : public Transport {
 public:
  void RegisterReplica(ReplicaId, CoreId, TransportReceiver*) override {}
  void RegisterClient(uint32_t, TransportReceiver*) override {}
  void UnregisterClient(uint32_t) override {}
  void Send(Message msg) override { sent.push_back(std::move(msg)); }
  void SetTimer(const Address&, CoreId, uint64_t, uint64_t timer_id) override {
    timers.push_back(timer_id);
  }

  template <typename T>
  size_t Count() const {
    size_t n = 0;
    for (const Message& msg : sent) {
      if (std::holds_alternative<T>(msg.payload)) {
        n++;
      }
    }
    return n;
  }

  template <typename T>
  const T* Last() const {
    for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
      if (const T* p = std::get_if<T>(&it->payload)) {
        return p;
      }
    }
    return nullptr;
  }

  std::vector<Message> sent;
  std::vector<uint64_t> timers;
};

inline SystemOptions DefaultOptions(SystemKind kind, size_t cores = 2, size_t replicas = 3) {
  SystemOptions options;
  options.kind = kind;
  options.quorum = QuorumConfig::ForReplicas(replicas);
  options.cores_per_replica = cores;
  return options;
}

}  // namespace meerkat

#endif  // MEERKAT_TESTS_TEST_UTIL_H_
