// Transport abstraction shared by the real-clock runtimes and the simulator.
//
// A receiver registers under an Address (replica receivers register one
// endpoint per core, emulating one RSS-steered NIC queue per core, paper
// §5.2.2/§6.2). Senders address (Address, core); the transport guarantees all
// messages for a given (replica, core) are processed by the same execution
// context, which is the invariant Meerkat's per-core trecord partitioning
// relies on.

#ifndef MEERKAT_SRC_TRANSPORT_TRANSPORT_H_
#define MEERKAT_SRC_TRANSPORT_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "src/transport/message.h"

namespace meerkat {

class FaultInjector;

// Batch governor thresholds for the coalesced delivery pipeline. With
// batching enabled, transports hand a whole drained backlog to the receiver
// in one ReceiveBatch call and coalesce same-destination sends into MsgBatch
// wire frames; the thresholds bound how much is coalesced so low-load runs
// degenerate to per-message behavior. Disabled, every path reverts to exactly
// the unbatched per-message delivery.
struct BatchOptions {
  bool enabled = true;
  // Flush a wire frame / dispatch chunk at this many messages. A UDP frame
  // also flushes before it would outgrow one datagram.
  uint32_t max_messages = 16;

  // Batching only amortizes backlog that already exists (a drain flushes
  // what it took), so it adds no latency at low load. A zero max_messages
  // would never flush; it clamps to one.
  BatchOptions Clamped() const {
    BatchOptions c = *this;
    if (c.max_messages == 0) {
      c.max_messages = 1;
    }
    return c;
  }

  BatchOptions& WithEnabled(bool e) {
    enabled = e;
    return *this;
  }
  BatchOptions& WithMaxMessages(uint32_t m) {
    max_messages = m;
    return *this;
  }
};

// Endpoint coordinates index fixed-size directory slots (the real-clock
// transports' endpoint directory, endpoint_runtime.h). A coordinate outside
// its bound would silently alias another endpoint's slot, so registration
// aborts instead. This must hold in release builds too (RelWithDebInfo
// defines NDEBUG, which compiles assert() out), hence an explicit check
// rather than assert.
inline void CheckEndpointCoord(uint64_t value, uint64_t limit, const char* what) {
  if (value >= limit) {
    std::fprintf(stderr, "meerkat: endpoint %s %llu out of range (limit %llu)\n", what,
                 static_cast<unsigned long long>(value), static_cast<unsigned long long>(limit));
    std::abort();
  }
}

// How many consecutive idle sweeps (2 ms apart) a real-clock transport's
// DrainForTesting must observe before it returns: one idle sweep can fall
// between a delivery and the work it enqueues elsewhere.
inline constexpr int kDrainIdleSweeps = 3;

// Handler for inbound messages. Implementations must be safe to call from the
// transport's delivery context (the endpoint's own thread in the real-clock
// runtimes; the simulator's event loop in the simulated runtime).
class TransportReceiver {
 public:
  virtual ~TransportReceiver() = default;
  virtual void Receive(Message&& msg) = 0;

  // Batched delivery: the transport hands over a whole drained backlog,
  // consuming (moving from) msgs[0..n). Semantically identical to n Receive
  // calls in order; receivers with per-batch amortizable work (one DapCoreScope,
  // one epoch-gate acquisition, one OCC validation sweep, one staged reply
  // flush) override this. The default shim keeps every other receiver —
  // baselines, client sessions — correct without changes.
  virtual void ReceiveBatch(Message* msgs, size_t n) {
    for (size_t i = 0; i < n; i++) {
      Receive(std::move(msgs[i]));
    }
  }
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Register the handler for one core of a replica. Must be called before any
  // traffic is sent to that endpoint.
  virtual void RegisterReplica(ReplicaId replica, CoreId core, TransportReceiver* receiver) = 0;

  // Register a client endpoint.
  virtual void RegisterClient(uint32_t client_id, TransportReceiver* receiver) = 0;

  // Detach a client endpoint: after this returns, the receiver will not be
  // invoked again and may be destroyed. Client sessions call this from their
  // destructors. Must not be called from the endpoint's own delivery context.
  virtual void UnregisterClient(uint32_t client_id) = 0;

  // Detach one core endpoint of a replica, with the same guarantee as
  // UnregisterClient. Replica destructors call this for each registered core:
  // epoch watchdog timers and late retransmissions keep arriving at replica
  // endpoints until the transport itself stops, so destroying the receivers
  // without detaching first is a use-after-free. Defaulted to a no-op for
  // transports that deliver synchronously from the caller's context.
  virtual void UnregisterReplica(ReplicaId /*replica*/, CoreId /*core*/) {}

  // Send a message (msg.dst / msg.core select the endpoint). Fire-and-forget;
  // delivery may fail silently under fault injection, exactly like UDP.
  virtual void Send(Message msg) = 0;

  // Send a batch of messages, consuming (moving from) msgs[0..n). Semantically
  // identical to n Send calls; transports with a real wire override this to
  // amortize per-datagram syscall cost across the batch (one VALIDATE fan-out
  // to n replicas = one sendmmsg under the UDP transport). Coordinator
  // fan-outs (VALIDATE / ACCEPT / COMMIT broadcast) go through this.
  virtual void SendMany(Message* msgs, size_t n) {
    for (size_t i = 0; i < n; i++) {
      Send(std::move(msgs[i]));
    }
  }

  // Puts on the wire whatever this thread's sends the transport still holds.
  // The UDP wire holds the write-phase COMMITs an endpoint thread sends during
  // a delivery, so they ride in the same sendmmsg as that thread's next
  // request, and releases the rest when the delivery ends (udp_transport.h).
  // A sender that hands its decision to code that may send from another
  // thread flushes first: MeerkatSession does so after each completion
  // callback. A no-op on every transport that holds nothing.
  virtual void Flush() {}

  // Deliver TimerFire{timer_id} to `to` after `delay_ns` (virtual or real
  // time depending on the runtime). Timers are how receivers implement
  // retransmission and failure detection without blocking. The timer fires
  // in the endpoint's own delivery context whichever thread armed it, and
  // never crosses the wire or the fault injector. In the real-clock runtimes
  // a timer armed from that context (inside Receive) costs no lock and no
  // wake-up; one armed from any other thread goes through the endpoint's
  // mailbox and wakes it.
  virtual void SetTimer(const Address& to, CoreId core, uint64_t delay_ns, uint64_t timer_id) = 0;

  // The transport's fault injector, if it has one (both in-process transports
  // do). Lets CreateSystem install a SystemOptions::fault_plan without the
  // caller knowing the concrete transport. nullptr = faults unsupported.
  virtual FaultInjector* fault_injector() { return nullptr; }

  // Batch governor configuration. Like the fault plan, this is setup-time
  // state: set it before traffic flows (CreateSystem does; workers read it
  // without synchronization on the hot path).
  void set_batch_options(const BatchOptions& options) { batch_ = options.Clamped(); }
  const BatchOptions& batch_options() const { return batch_; }

 private:
  BatchOptions batch_;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_TRANSPORT_TRANSPORT_H_
