// Real-socket UDP transport: the wire runtime.
//
// Where the threaded transport emulates one RSS-steered NIC queue per core
// with an in-process inbox, this wire builds the same topology out of actual
// UDP sockets on loopback under the same endpoint runtime
// (endpoint_runtime.h), and reproduces the paper's NIC flow steering
// (§5.2.2/§6.2) in software:
//
//  - Each replica owns one SO_REUSEPORT socket *group* sharing a single UDP
//    port, one member socket per core, with a classic-BPF steering program
//    (SO_ATTACH_REUSEPORT_CBPF) attached to the group. Every datagram starts
//    with a 4-byte big-endian steering word holding the destination core id;
//    the BPF program returns that word as the group index, so the kernel
//    hands the datagram to exactly core c's socket — the software analogue
//    of programming the NIC's RSS indirection table. The datagram is then
//    received, decoded, and dispatched entirely on core c's endpoint thread,
//    preserving DAP (the runtime DapCoreScope/thread-owner checkers stay
//    zero-violation over this transport).
//  - Where the cBPF attach is unavailable (old kernels, restricted
//    containers) — or when Options::force_distinct_ports asks for it — each
//    (replica, core) endpoint falls back to its own ephemeral port. Senders
//    read the port from the runtime's lock-free endpoint directory either
//    way, so the steering rule (destination core -> destination socket) is
//    identical in both modes.
//
// The data path is allocation-free and syscall-batched at steady state:
// senders encode into per-thread reusable buffers (WireWriter::Reset /
// EncodeMessageInto) and flush a whole fan-out with one sendmmsg; endpoint
// threads recvmmsg into a pooled receive slab and decode straight out of it.
// The write phase is corked: the COMMITs an endpoint thread sends while it
// delivers (the broadcast of a decision made inside Receive) are judged by
// the fault injector at the call as usual, then held until that thread's next
// send. There each COMMIT rides ahead of the request for the same replica
// core in one MsgBatch datagram, and the others follow in the same sendmmsg,
// so the decision costs the application no syscall of its own. Flush, and the
// end of the delivery (still inside the `busy` bracket), send whatever is
// left. The threaded wire sends at once: a push there is no syscall, so
// holding a COMMIT saves nothing and only delays its writes (DESIGN.md §5).
//
// An endpoint's probe is a non-blocking drain of its socket; it parks in
// ppoll() with a nanosecond timeout at its next timer deadline, and a mailbox
// push or Stop wakes it with a steer-only datagram. Timers never touch the
// socket. Per-core MetricsRegistry counters track batch sizes, EAGAIN
// stalls, and every class of datagram drop.
//
// Ports are ephemeral (bind to 127.0.0.1:0), so any number of
// transports/tests can coexist on one host without colliding. Delivery is
// genuinely lossy — kernel buffer overruns drop datagrams for real — which
// is exactly what the protocol's retry/recovery machinery is specified
// against.

#ifndef MEERKAT_SRC_TRANSPORT_UDP_TRANSPORT_H_
#define MEERKAT_SRC_TRANSPORT_UDP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/transport/endpoint_runtime.h"

namespace meerkat {

class UdpTransport : public EndpointRuntime {
 public:
  struct Options {
    // One-way delivery delay applied to every message (0 = none); delayed
    // messages wait at their destination endpoint and hit the wire when due.
    uint64_t base_delay_ns = 0;
    // Use one ephemeral port per (replica, core) instead of SO_REUSEPORT
    // groups + cBPF steering even where the latter is available. Tests
    // exercise both steering modes.
    bool force_distinct_ports = false;
  };

  UdpTransport() : UdpTransport(Options{}) {}
  explicit UdpTransport(const Options& options);
  ~UdpTransport() override;

  // True when replica endpoints share SO_REUSEPORT groups steered by cBPF;
  // false in the one-port-per-core fallback (or before any replica
  // registered).
  bool reuseport_steering() const;

  // Sends the COMMITs this thread holds, when it is one of this transport's
  // endpoint threads inside a delivery; elsewhere nothing is held.
  void Flush() override;

  // The UDP port an endpoint is bound to, 0 if unregistered. Benches use
  // this to aim raw comparison traffic at a live endpoint.
  uint16_t PortOfForTesting(const Address& addr, CoreId core) const;

  // Syscall batch width for sendmmsg/recvmmsg.
  static constexpr size_t kSendBatch = 16;
  static constexpr size_t kRecvBatch = 16;

 private:
  struct SocketEndpoint;  // The endpoint with its socket and receive slab.

  std::unique_ptr<Endpoint> OpenEndpoint(const Address& addr, CoreId core) override
      REQUIRES(registry_mu_);
  void Transmit(Message* msgs, size_t n) override;
  size_t DrainWire(Endpoint* ep, std::vector<Message>* batch) override;
  void Park(Endpoint* ep, Clock::time_point deadline) override;
  void Wake(Endpoint* ep) override;
  bool WireIdle(Endpoint* ep) override;
  void CloseWire(Endpoint* ep) override;

  // Sends msgs[0..n) with this thread's held COMMITs merged in, and empties
  // the cork.
  void SendWithHeld(Message* msgs, size_t n);
  void WireSend(const Message* const* msgs, size_t n);
  // Receives and dispatches until the socket reports EAGAIN; returns the
  // number of datagrams taken. `inbox` is the reusable decode staging: every
  // logical message of one recvmmsg round (batch frames fanned back out)
  // lands there and is delivered with one ReceiveBatch per governor chunk.
  size_t DrainReadySocket(SocketEndpoint* ep, std::vector<Message>* inbox);
  // The port of the endpoint at (addr, core), 0 if unroutable. Lock-free.
  uint16_t LookupPort(const Address& addr, CoreId core) const;

  const bool force_distinct_ports_;

  // Steering mode, decided at the first replica registration: 0 = undecided,
  // 1 = reuseport groups + cBPF, 2 = distinct ports.
  std::atomic<int> steering_mode_{0};

  // Per-replica reuseport group bookkeeping (group mode only): the shared
  // port and how many member sockets have joined. Join order is socket index
  // for the cBPF program, so cores must bind in ascending order; registration
  // aborts if a caller ever violates that.
  uint16_t group_port_[kMaxReplicas] GUARDED_BY(registry_mu_) = {};
  uint32_t group_joined_[kMaxReplicas] GUARDED_BY(registry_mu_) = {};
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_TRANSPORT_UDP_TRANSPORT_H_
