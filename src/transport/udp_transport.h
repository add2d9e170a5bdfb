// Real-socket UDP transport: the wire runtime.
//
// Where the threaded transport emulates one RSS-steered NIC queue per core
// with an in-process inbox, this transport builds the same topology out of
// actual UDP sockets on loopback and reproduces the paper's NIC flow
// steering (§5.2.2/§6.2) in software:
//
//  - Each replica owns one SO_REUSEPORT socket *group* sharing a single UDP
//    port, one member socket per core, with a classic-BPF steering program
//    (SO_ATTACH_REUSEPORT_CBPF) attached to the group. Every datagram starts
//    with a 4-byte big-endian steering word holding the destination core id;
//    the BPF program returns that word as the group index, so the kernel
//    hands the datagram to exactly core c's socket — the software analogue
//    of programming the NIC's RSS indirection table. The datagram is then
//    received, decoded, and dispatched entirely on core c's poller thread,
//    preserving DAP (the runtime DapCoreScope/thread-owner checkers stay
//    zero-violation over this transport).
//  - Where the cBPF attach is unavailable (old kernels, restricted
//    containers) — or when Options::force_distinct_ports asks for it — each
//    (replica, core) endpoint falls back to its own ephemeral port. Senders
//    consult a lock-free port directory either way, so the steering rule
//    (destination core -> destination socket) is identical in both modes.
//
// The data path is allocation-free and syscall-batched at steady state:
// senders encode into per-thread reusable buffers (WireWriter::Reset /
// EncodeMessageInto) and flush a whole fan-out with one sendmmsg; pollers
// recvmmsg into a pooled receive slab and decode straight out of it. A
// poller spins, then parks (spin_then_park.h): after each drain it retries
// non-blocking drains for a short window, yielding between them, and only
// then blocks in poll() — so back-to-back datagrams skip the wake-up.
// Per-core MetricsRegistry counters track batch sizes, EAGAIN stalls, and
// every class of datagram drop.
//
// Ports are ephemeral (bind to 127.0.0.1:0) and published in an in-process
// directory, so any number of transports/tests can coexist on one host
// without colliding. Delivery is genuinely lossy — kernel buffer overruns
// drop datagrams for real — which is exactly what the protocol's
// retry/recovery machinery is specified against.

#ifndef MEERKAT_SRC_TRANSPORT_UDP_TRANSPORT_H_
#define MEERKAT_SRC_TRANSPORT_UDP_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/annotations.h"
#include "src/transport/fault_injector.h"
#include "src/transport/transport.h"

struct mmsghdr;  // <sys/socket.h>; kept out of this header.

namespace meerkat {

class UdpTransport : public Transport {
 public:
  struct Options {
    // One-way delivery delay applied to every message (0 = none); delayed
    // messages ride the timer heap and hit the wire when due.
    uint64_t base_delay_ns = 0;
    // Use one ephemeral port per (replica, core) instead of SO_REUSEPORT
    // groups + cBPF steering even where the latter is available. Tests
    // exercise both steering modes.
    bool force_distinct_ports = false;
  };

  UdpTransport() : UdpTransport(Options{}) {}
  explicit UdpTransport(const Options& options);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  void RegisterReplica(ReplicaId replica, CoreId core, TransportReceiver* receiver) override;
  void RegisterClient(uint32_t client_id, TransportReceiver* receiver) override;
  void UnregisterClient(uint32_t client_id) override;
  void UnregisterReplica(ReplicaId replica, CoreId core) override;
  void Send(Message msg) override;
  void SendMany(Message* msgs, size_t n) override;
  void SetTimer(const Address& to, CoreId core, uint64_t delay_ns, uint64_t timer_id) override;

  FaultInjector& faults() { return faults_; }
  FaultInjector* fault_injector() override { return &faults_; }

  // Joins all poller threads and the timer thread and closes every socket.
  // Idempotent; also called by the destructor. After Stop, sends go to
  // now-unbound ports and vanish, which is indistinguishable from loss.
  void Stop();

  // Best-effort quiesce: returns once kernel receive queues, the timer heap,
  // and in-flight dispatches have been observed empty on kDrainIdleSweeps
  // consecutive sweeps (or ~1 s passes). Used by tests before asserting on
  // asynchronously applied state.
  void DrainForTesting();

  // True when replica endpoints share SO_REUSEPORT groups steered by cBPF;
  // false in the one-port-per-core fallback (or before any replica
  // registered).
  bool reuseport_steering() const;

  // The UDP port an endpoint is bound to, 0 if unregistered. Benches use
  // this to aim raw comparison traffic at a live endpoint.
  uint16_t PortOfForTesting(const Address& addr, CoreId core) const;

  // Parks every poller thread (they sleep instead of draining, and a poller
  // woken by a datagram while paused leaves it queued; kernel drops datagrams
  // once socket buffers fill) so send-path benches can time the TX side
  // without receive work competing for CPU. Sends are unaffected — the
  // full syscall path runs, the kernel just discards at the destination.
  // Unpause before DrainForTesting or Stop.
  void SetPollersPausedForTesting(bool paused);

  // Directory sizing: endpoint coordinates outside these bounds abort at
  // registration (see CheckEndpointCoord in transport.h) — a replica id or
  // core that overflowed its directory slot would silently alias another
  // endpoint's port otherwise.
  static constexpr uint32_t kMaxReplicas = 64;
  static constexpr uint32_t kMaxCoresPerReplica = 64;
  static constexpr size_t kMaxClientSlots = 4096;

  // Syscall batch width for sendmmsg/recvmmsg.
  static constexpr size_t kSendBatch = 16;
  static constexpr size_t kRecvBatch = 16;

 private:
  struct Endpoint {
    int fd = -1;
    uint16_t port = 0;
    // Steering word this endpoint expects: the core id for replica
    // endpoints, 0 for clients.
    uint32_t steer = 0;
    // Swapped (not closed) on re-registration after a crash drill; nulled on
    // unregister. seq_cst paired with `busy` (Dekker-style: the poller
    // publishes busy=true before loading receiver; unregister publishes
    // nullptr before loading busy — the total order guarantees unregister
    // either sees busy and waits, or the poller sees the nullptr).
    std::atomic<TransportReceiver*> receiver{nullptr};
    // True from just before recvmmsg until the resulting batch is fully
    // dispatched.
    std::atomic<bool> busy{false};
    std::atomic<bool> stop{false};
    std::thread poller;
  };

  struct PendingTimer {
    std::chrono::steady_clock::time_point deadline;
    Message msg;
    bool operator<(const PendingTimer& other) const { return deadline > other.deadline; }
  };

  void WireSend(const Message* const* msgs, size_t n);
  void DeliverDelayed(Message msg, uint64_t delay_ns) EXCLUDES(timer_mu_);
  void TimerLoop() EXCLUDES(timer_mu_);
  void PollerLoop(Endpoint* ep);
  // Receives and dispatches until the socket reports EAGAIN; returns the
  // number of datagrams taken. `inbox` is the poller's reusable decode
  // staging: every logical message of one recvmmsg round (batch frames
  // fanned back out) lands there and is dispatched with one ReceiveBatch per
  // governor chunk.
  size_t DrainReadySocket(Endpoint* ep, uint8_t* slab, ::mmsghdr* hdrs,
                          std::vector<Message>* inbox);
  Endpoint* RegisterEndpoint(const Address& addr, CoreId core, TransportReceiver* receiver)
      EXCLUDES(endpoints_mu_);
  void UnregisterEndpoint(const Address& addr, CoreId core) EXCLUDES(endpoints_mu_);
  // Lock-free port lookup used by the send path. Returns 0 if unroutable.
  uint16_t LookupPort(const Address& addr, CoreId core) const;
  void PublishClientPort(uint32_t client_id, uint16_t port) REQUIRES(endpoints_mu_);

  const uint64_t base_delay_ns_;
  const bool force_distinct_ports_;
  FaultInjector faults_;

  // Steering mode, decided at the first replica registration: 0 = undecided,
  // 1 = reuseport groups + cBPF, 2 = distinct ports.
  std::atomic<int> steering_mode_{0};

  // See SetPollersPausedForTesting.
  std::atomic<bool> pollers_paused_{false};

  Mutex endpoints_mu_;
  std::map<uint64_t, std::unique_ptr<Endpoint>> endpoints_ GUARDED_BY(endpoints_mu_);
  // Per-replica reuseport group bookkeeping (group mode only): the shared
  // port and how many member sockets have joined. Join order is socket index
  // for the cBPF program, so cores must bind in ascending order; registration
  // aborts if a caller ever violates that.
  uint16_t group_port_[kMaxReplicas] GUARDED_BY(endpoints_mu_) = {};
  uint32_t group_joined_[kMaxReplicas] GUARDED_BY(endpoints_mu_) = {};

  // Lock-free send-plane directory. Replica ports are a flat array indexed
  // by (replica, core); client ports live in an open-addressed table of
  // packed (occupied | client_id | port) slots, inserted under endpoints_mu_
  // and probed lock-free by senders. Entries are never removed: an
  // unregistered endpoint keeps its socket (with a null receiver) until
  // Stop, so a stale route is at worst a counted drop.
  std::atomic<uint32_t> replica_ports_[kMaxReplicas * kMaxCoresPerReplica];
  std::atomic<uint64_t> client_slots_[kMaxClientSlots];

  Mutex timer_mu_;
  CondVar timer_cv_;
  std::vector<PendingTimer> timer_heap_ GUARDED_BY(timer_mu_);
  std::thread timer_thread_;
  bool stopping_ GUARDED_BY(timer_mu_) = false;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_TRANSPORT_UDP_TRANSPORT_H_
