// The endpoint runtime shared by the two real-clock transports.
//
// Each registered endpoint — one per (replica, core) and one per client —
// owns one thread, emulating one RSS-steered NIC queue polled by one pinned
// core (paper §6.2). That thread runs one loop: drain the endpoint's wire and
// deliver, fire its own due timers, probe for more work (spin_then_park.h),
// then park until its next deadline. No other thread touches the endpoint's
// timers, so no cross-core coordination sits on the message path:
//
//  - A timer armed on the owner's thread (a retry armed inside Receive, a
//    replica's epoch timer) goes straight into its deadline heap, with no
//    lock and no wake-up.
//  - A timer armed on another thread, and a message delayed by a fault or by
//    base_delay_ns, goes into the endpoint's MPSC mailbox; the pusher wakes
//    the owner through the wire it parks on.
//  - Timers never cross the wire. A delayed message does, once due: the
//    destination's thread hands it to the wire like any other send.
//
// ThreadedTransport and UdpTransport are the two wires: an in-process inbox
// that doubles as the mailbox, and loopback UDP sockets with kernel flow
// steering. A wire supplies transmission, its receive drain, its park and
// wake, and the emptiness check of the test quiesce. Registration, the
// endpoint directory, fault judgement, timers, delivery, Stop and
// DrainForTesting live here, once.
//
// Lifecycle: an endpoint and its thread live until Stop. Unregistering
// detaches the receiver (behind the seq_cst `busy` handshake, so the
// receiver is never called once the call returns); re-registering swaps a
// receiver in.

#ifndef MEERKAT_SRC_TRANSPORT_ENDPOINT_RUNTIME_H_
#define MEERKAT_SRC_TRANSPORT_ENDPOINT_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/metrics.h"
#include "src/transport/channel.h"
#include "src/transport/fault_injector.h"
#include "src/transport/transport.h"

namespace meerkat {

class EndpointRuntime : public Transport {
 public:
  // Directory bounds, the one limit for both wires: registering a replica id,
  // core or client past them aborts (see CheckEndpointCoord in transport.h).
  static constexpr uint32_t kMaxReplicas = 64;
  static constexpr uint32_t kMaxCoresPerReplica = 64;
  static constexpr size_t kMaxClientSlots = 4096;

  // Each wire's destructor calls Stop while its hooks still exist.
  ~EndpointRuntime() override;
  EndpointRuntime(const EndpointRuntime&) = delete;
  EndpointRuntime& operator=(const EndpointRuntime&) = delete;

  void RegisterReplica(ReplicaId replica, CoreId core, TransportReceiver* receiver) final;
  void RegisterClient(uint32_t client_id, TransportReceiver* receiver) final;
  void UnregisterClient(uint32_t client_id) final;
  void UnregisterReplica(ReplicaId replica, CoreId core) final;
  void Send(Message msg) final;
  // Judges each logical message once, before the wire coalesces anything, so
  // drop/duplicate/delay semantics are exactly per message; the survivors
  // due now go to the wire as one span.
  void SendMany(Message* msgs, size_t n) final;
  void SetTimer(const Address& to, CoreId core, uint64_t delay_ns, uint64_t timer_id) final;

  FaultInjector& faults() { return faults_; }
  FaultInjector* fault_injector() override { return &faults_; }

  // Stops and joins every endpoint thread and closes the wires. Idempotent;
  // the wires' destructors call it. After Stop, sends vanish, which is
  // indistinguishable from loss.
  void Stop();

  // Best-effort quiesce for tests and benches: returns once every endpoint
  // has been idle — wire empty, not busy, no pending timer or mailbox entry
  // — on kDrainIdleSweeps consecutive sweeps (or ~1 s passes).
  void DrainForTesting();

  // Parks every endpoint thread: it sleeps instead of draining, and one
  // woken while paused leaves what woke it queued, so send-path benches can
  // time the TX side without receive work competing for CPU. Sends are
  // unaffected. Unpause before DrainForTesting or Stop.
  void SetPollersPausedForTesting(bool paused);

 protected:
  using Clock = std::chrono::steady_clock;

  // A mailbox or deadline-heap entry. A zero `due` marks a message to
  // deliver now (the threaded wire's inbox is the mailbox); any other `due`
  // is a timer or a delayed message waiting in the owner's heap.
  struct Pending {
    explicit Pending(Message&& m, Clock::time_point d = {}) : msg(std::move(m)), due(d) {}
    Message msg;
    Clock::time_point due;
  };

  struct Endpoint {
    virtual ~Endpoint() = default;

    // Swapped on re-registration, nulled on unregister. seq_cst, paired with
    // `busy` (Dekker-style: the owner publishes busy=true before loading the
    // receiver; unregister publishes nullptr before loading busy — the total
    // order guarantees unregister either sees busy and waits, or the owner
    // sees the nullptr).
    std::atomic<TransportReceiver*> receiver{nullptr};
    // True from just before a take off the wire or the heap until what was
    // taken is delivered.
    std::atomic<bool> busy{false};
    // Timers and delayed messages queued in the mailbox or the heap, not yet
    // fired. Counted up before the push, down after the firing.
    std::atomic<uint32_t> deferred{0};
    Channel<Pending> mailbox;
    // The deadline heap (earliest first). Owner thread only.
    std::vector<Pending> heap;
    std::thread thread;
  };

  // injected_drops names the counter for messages the fault injector drops
  // (an invalid id counts nothing).
  EndpointRuntime(uint64_t base_delay_ns, MetricId injected_drops);

  // --- The wire ---------------------------------------------------------
  // Creates the endpoint for (addr, core) with its wire half, under the
  // registration lock; the runtime publishes it and starts its thread.
  virtual std::unique_ptr<Endpoint> OpenEndpoint(const Address& addr, CoreId core)
      REQUIRES(registry_mu_) = 0;
  // Sends msgs[0..n), all due now, moving from them. Any thread.
  virtual void Transmit(Message* msgs, size_t n) = 0;
  // Owner thread: takes what the wire holds without blocking and delivers
  // it (Deliver, inside the busy bracket). Returns how much it took.
  virtual size_t DrainWire(Endpoint* ep, std::vector<Message>* batch) = 0;
  // Owner thread: blocks until the wire or the mailbox has work, a Wake, or
  // `deadline`. May return early.
  virtual void Park(Endpoint* ep, Clock::time_point deadline) = 0;
  // Any thread, after a mailbox push or on Stop: gets a parked owner moving.
  virtual void Wake(Endpoint* ep) = 0;
  // True when nothing is queued on the wire.
  virtual bool WireIdle(Endpoint* ep) = 0;
  // After the endpoint's thread has been joined.
  virtual void CloseWire(Endpoint* ep) = 0;

  // The endpoint registered at (addr, core), nullptr if none. Lock-free.
  // Clients always sit at core 0, whatever `core` says.
  Endpoint* Find(const Address& addr, CoreId core) const;

  // Hands msgs to `receiver` (nullptr: a detached endpoint, drop them) in
  // governor chunks of ReceiveBatch, or per message with batching off, then
  // Flushes and clears msgs. The caller holds the endpoint's busy bracket, so
  // whatever the wire held back during the delivery leaves inside it.
  void Deliver(TransportReceiver* receiver, std::vector<Message>* msgs);

  // True on this runtime's endpoint thread while Deliver runs its receiver:
  // the window in which a wire may hold sends back until Flush.
  bool DeliveringOnThisThread() const;

  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  Mutex registry_mu_;

 private:
  void Register(const Address& addr, CoreId core, TransportReceiver* receiver)
      EXCLUDES(registry_mu_);
  void Unregister(const Address& addr, CoreId core);
  // Below kMaxClientSlots clients the table always has a free slot.
  void PublishClient(uint32_t client_id, Endpoint* ep) REQUIRES(registry_mu_);
  // Queues msg at its destination endpoint for delivery (a TimerFire) or for
  // the wire (anything else) after delay_ns.
  void Defer(Message msg, uint64_t delay_ns);
  void Run(Endpoint* ep);
  bool DrainMailbox(Endpoint* ep, std::vector<Pending>* mail, std::vector<Message>* batch);
  bool FireDueTimers(Endpoint* ep, std::vector<Message>* batch);

  const uint64_t base_delay_ns_;
  const MetricId injected_drops_;
  FaultInjector faults_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> paused_{false};

  // Owns every endpoint; registration and the quiesce iterate it.
  std::vector<std::unique_ptr<Endpoint>> endpoints_ GUARDED_BY(registry_mu_);
  size_t num_clients_ GUARDED_BY(registry_mu_) = 0;

  // The lock-free directory the send path reads. Replica endpoints sit in a
  // flat array indexed by (replica, core); clients in an open-addressed
  // table of (occupied | client_id) keys, each beside its endpoint pointer
  // (stored first, so a reader that matched the key sees it). Written under
  // registry_mu_, never cleared: endpoints live until the runtime dies.
  std::atomic<Endpoint*> replica_eps_[kMaxReplicas * kMaxCoresPerReplica];
  std::atomic<uint64_t> client_keys_[kMaxClientSlots];
  std::atomic<Endpoint*> client_eps_[kMaxClientSlots];
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_TRANSPORT_ENDPOINT_RUNTIME_H_
