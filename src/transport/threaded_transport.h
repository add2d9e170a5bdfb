// Threaded in-process transport: the "real" runtime used by tests and
// examples.
//
// Each registered endpoint — one per (replica, core) and one per client —
// owns an MPSC inbox and a dedicated worker thread that drains it into the
// receiver, emulating one RSS-steered NIC queue polled by one pinned core
// (paper §6.2). Message sends pass through the fault injector, then an
// optional delivery delay, then the destination inbox.

#ifndef MEERKAT_SRC_TRANSPORT_THREADED_TRANSPORT_H_
#define MEERKAT_SRC_TRANSPORT_THREADED_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/annotations.h"
#include "src/transport/channel.h"
#include "src/transport/fault_injector.h"
#include "src/transport/transport.h"

namespace meerkat {

class ThreadedTransport : public Transport {
 public:
  // base_delay_ns: one-way delivery delay applied to every message (0 = none;
  // tests that exercise reordering combine this with the injector's extra
  // delay).
  explicit ThreadedTransport(uint64_t base_delay_ns = 0);
  ~ThreadedTransport() override;

  ThreadedTransport(const ThreadedTransport&) = delete;
  ThreadedTransport& operator=(const ThreadedTransport&) = delete;

  void RegisterReplica(ReplicaId replica, CoreId core, TransportReceiver* receiver) override;
  void RegisterClient(uint32_t client_id, TransportReceiver* receiver) override;
  void UnregisterClient(uint32_t client_id) override;
  void UnregisterReplica(ReplicaId replica, CoreId core) override;
  void Send(Message msg) override;
  // Coalesces consecutive same-endpoint messages into one Channel::PushAll
  // (one inbox lock, one notify) when batching is enabled — the producer half
  // of the batched pipeline. Each message is still judged individually by the
  // fault injector BEFORE coalescing, so drop/duplicate/delay semantics are
  // exactly per logical message.
  void SendMany(Message* msgs, size_t n) override;
  void SetTimer(const Address& to, CoreId core, uint64_t delay_ns, uint64_t timer_id) override;

  FaultInjector& faults() { return faults_; }
  FaultInjector* fault_injector() override { return &faults_; }

  // Stops all worker threads and the timer thread. Idempotent; also called by
  // the destructor. After Stop, Send is a no-op.
  void Stop();

  // Blocks until every inbox is empty, with no popped batch still in delivery
  // and no pending timer, on kDrainIdleSweeps consecutive sweeps (or ~100 ms
  // pass) — a best-effort quiesce used by tests and benches that want
  // asynchronous commit messages applied before asserting.
  void DrainForTesting();

 private:
  struct Endpoint {
    Channel<Message> inbox;
    TransportReceiver* receiver = nullptr;
    std::thread worker;
  };

  struct PendingTimer {
    std::chrono::steady_clock::time_point deadline;
    Message msg;
    bool operator<(const PendingTimer& other) const { return deadline > other.deadline; }
  };

  // Shared packed-key scheme (transport.h); aborts on an out-of-range core
  // instead of letting it alias a neighboring endpoint's key.
  static uint64_t EndpointKey(const Address& addr, CoreId core) {
    return PackEndpointKey(addr, core);
  }

  Endpoint* Lookup(const Address& addr, CoreId core) EXCLUDES(endpoints_mu_);
  void UnregisterEndpoint(uint64_t key) EXCLUDES(endpoints_mu_);
  void StartEndpoint(Endpoint* ep) REQUIRES(endpoints_mu_);
  void Deliver(Message msg, uint64_t delay_ns) EXCLUDES(timer_mu_);
  void TimerLoop() EXCLUDES(timer_mu_);

  const uint64_t base_delay_ns_;
  FaultInjector faults_;

  Mutex endpoints_mu_;  // Guards the map shape; endpoints are stable once added.
  std::map<uint64_t, std::unique_ptr<Endpoint>> endpoints_ GUARDED_BY(endpoints_mu_);
  // Unregistered endpoints, kept alive (inbox closed) until Stop() because a
  // racing Send may still hold their pointer.
  std::vector<std::unique_ptr<Endpoint>> retired_ GUARDED_BY(endpoints_mu_);

  Mutex timer_mu_;
  CondVar timer_cv_;
  std::vector<PendingTimer> timer_heap_ GUARDED_BY(timer_mu_);
  std::thread timer_thread_;
  bool stopping_ GUARDED_BY(timer_mu_) = false;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_TRANSPORT_THREADED_TRANSPORT_H_
