#include "src/transport/udp_transport.h"

#include <arpa/inet.h>
#include <linux/filter.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstring>

#include "src/common/dap_check.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/transport/serialization.h"
#include "src/transport/spin_then_park.h"

#ifndef SO_ATTACH_REUSEPORT_CBPF
#define SO_ATTACH_REUSEPORT_CBPF 51
#endif

namespace meerkat {
namespace {

// All counters/histograms below live in per-thread slabs (src/common/
// metrics.h), so every poller — i.e. every emulated core — accounts its own
// traffic without shared-cacheline traffic on the fast path.
const MetricId kSendBatchSize = MetricsRegistry::Histogram("udp.send_batch_size");
const MetricId kRecvBatchSize = MetricsRegistry::Histogram("udp.recv_batch_size");
const MetricId kSentDatagrams = MetricsRegistry::Counter("udp.sent_datagrams");
const MetricId kRecvDatagrams = MetricsRegistry::Counter("udp.recv_datagrams");
const MetricId kSendEagainStalls = MetricsRegistry::Counter("udp.send_eagain_stalls");
const MetricId kSendErrors = MetricsRegistry::Counter("udp.send_errors");
const MetricId kRecvErrors = MetricsRegistry::Counter("udp.recv_errors");
const MetricId kInjectedDrops = MetricsRegistry::Counter("udp.injected_drops");
const MetricId kUnroutableDrops = MetricsRegistry::Counter("udp.unroutable_drops");
const MetricId kOversizedDrops = MetricsRegistry::Counter("udp.oversized_drops");
const MetricId kTruncatedDrops = MetricsRegistry::Counter("udp.truncated_drops");
const MetricId kMissteeredDrops = MetricsRegistry::Counter("udp.missteered_drops");
const MetricId kMalformedDrops = MetricsRegistry::Counter("udp.malformed_drops");
const MetricId kDecodeFailures = MetricsRegistry::Counter("udp.decode_failures");
const MetricId kNoReceiverDrops = MetricsRegistry::Counter("udp.no_receiver_drops");

// Wire-frame coalescing (MsgBatch): how many batch frames went out and how
// many logical messages each one carried. N validate-replies from one replica
// core to one client core per drain is the headline beneficiary — N datagrams
// collapse into one.
const MetricId kWireFrames = MetricsRegistry::Counter("batch.wire_frames");
const MetricId kWireFrameWidth = MetricsRegistry::Histogram("batch.wire_frame_width");

// Every datagram is [steering word: 4 bytes, big-endian destination core]
// followed by the serialized Message frame. The word is big-endian because
// classic-BPF absolute loads read network byte order — the steering program
// returns it verbatim as the reuseport group index.
constexpr size_t kSteerBytes = 4;
// Largest UDP payload that fits one datagram (65535 - 8 UDP - 20 IP).
constexpr size_t kMaxDatagram = 65507;
// Receive slab stride; at 64 KiB no legal datagram can truncate.
constexpr size_t kRecvBufSize = 1u << 16;

[[noreturn]] void Fatal(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
  std::abort();
}

// Binds a UDP socket on 127.0.0.1:`port` (0 = ephemeral) and reports the
// actual port. Returns -1 on failure.
int OpenBoundSocket(uint16_t port, bool reuseport, uint16_t* bound_port) {
  int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return -1;
  }
  if (reuseport) {
    int one = 1;
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      ::close(fd);
      return -1;
    }
  }
  // Deep receive queue: bursts beyond it are genuine datagram loss, which the
  // protocol tolerates, but there is no reason to make loss the common case.
  int rcvbuf = 1 << 20;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

// The software RSS indirection table: return the first 4 payload bytes (the
// steering word) as the reuseport group index. Join order is socket index,
// which is why group members must bind in ascending core order.
bool AttachSteeringFilter(int fd) {
  sock_filter code[] = {
      {BPF_LD | BPF_W | BPF_ABS, 0, 0, 0},
      {BPF_RET | BPF_A, 0, 0, 0},
  };
  sock_fprog prog{};
  prog.len = 2;
  prog.filter = code;
  return ::setsockopt(fd, SOL_SOCKET, SO_ATTACH_REUSEPORT_CBPF, &prog, sizeof(prog)) == 0;
}

// Per-thread send resources: one unbound socket plus reusable encode buffers
// and scatter/gather arrays sized for a full sendmmsg batch. Thread-local so
// replica pollers, client threads, and the timer thread all send without
// sharing (DAP for the send side); buffers keep their capacity, so steady
// state performs zero allocations per message.
struct SendSlab {
  int fd = -1;
  std::vector<uint8_t> bufs[UdpTransport::kSendBatch];
  ::mmsghdr hdrs[UdpTransport::kSendBatch];
  ::iovec iovs[UdpTransport::kSendBatch];
  sockaddr_in dsts[UdpTransport::kSendBatch];

  ~SendSlab() {
    if (fd >= 0) {
      ::close(fd);
    }
  }

  int Fd() {
    if (fd < 0) {
      fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    }
    return fd;
  }
};

thread_local SendSlab t_send_slab;

// True when two payloads are byte-identical on the wire, decided by O(1)
// identity checks rather than deep comparison: fan-out siblings share their
// TxnSets by pointer, so the heavy VALIDATE/ACCEPT payloads compare in
// constant time. Conservative — false only costs a redundant encode.
bool SameWirePayload(const Payload& a, const Payload& b) {
  if (a.index() != b.index()) {
    return false;
  }
  if (const auto* va = std::get_if<ValidateRequest>(&a)) {
    const auto* vb = std::get_if<ValidateRequest>(&b);
    return va->tid == vb->tid && va->ts == vb->ts && va->sets == vb->sets;
  }
  if (const auto* aa = std::get_if<AcceptRequest>(&a)) {
    const auto* ab = std::get_if<AcceptRequest>(&b);
    return aa->tid == ab->tid && aa->view == ab->view && aa->commit == ab->commit &&
           aa->ts == ab->ts && aa->sets == ab->sets;
  }
  if (const auto* ca = std::get_if<CommitRequest>(&a)) {
    const auto* cb = std::get_if<CommitRequest>(&b);
    return ca->tid == cb->tid && ca->commit == cb->commit;
  }
  if (const auto* ea = std::get_if<EpochChangeRequest>(&a)) {
    const auto* eb = std::get_if<EpochChangeRequest>(&b);
    return ea->epoch == eb->epoch;
  }
  return false;
}

// Byte offset of the encoded `dst` field in a staged datagram: steering
// word (4) + src kind (1) + src id (4). The header is fixed-width (see
// EncodeMessageInto), which is what makes dst patchable in place.
constexpr size_t kDstFieldOffset = kSteerBytes + 5;

void PatchDstField(uint8_t* datagram, const Address& dst) {
  uint8_t* d = datagram + kDstFieldOffset;
  d[0] = static_cast<uint8_t>(dst.kind);
  d[1] = static_cast<uint8_t>(dst.id);
  d[2] = static_cast<uint8_t>(dst.id >> 8);
  d[3] = static_cast<uint8_t>(dst.id >> 16);
  d[4] = static_cast<uint8_t>(dst.id >> 24);
}

void AppendSteerWord(std::vector<uint8_t>* buf, uint32_t core) {
  buf->push_back(static_cast<uint8_t>(core >> 24));
  buf->push_back(static_cast<uint8_t>(core >> 16));
  buf->push_back(static_cast<uint8_t>(core >> 8));
  buf->push_back(static_cast<uint8_t>(core));
}

uint32_t ReadSteerWord(const uint8_t* data) {
  return (static_cast<uint32_t>(data[0]) << 24) | (static_cast<uint32_t>(data[1]) << 16) |
         (static_cast<uint32_t>(data[2]) << 8) | static_cast<uint32_t>(data[3]);
}

}  // namespace

UdpTransport::UdpTransport(const Options& options)
    : base_delay_ns_(options.base_delay_ns),
      force_distinct_ports_(options.force_distinct_ports) {
  for (auto& p : replica_ports_) {
    p.store(0, std::memory_order_relaxed);
  }
  for (auto& s : client_slots_) {
    s.store(0, std::memory_order_relaxed);
  }
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

UdpTransport::~UdpTransport() { Stop(); }

void UdpTransport::RegisterReplica(ReplicaId replica, CoreId core,
                                   TransportReceiver* receiver) {
  RegisterEndpoint(Address::Replica(replica), core, receiver);
}

void UdpTransport::RegisterClient(uint32_t client_id, TransportReceiver* receiver) {
  RegisterEndpoint(Address::Client(client_id), 0, receiver);
}

void UdpTransport::UnregisterClient(uint32_t client_id) {
  UnregisterEndpoint(Address::Client(client_id), 0);
}

void UdpTransport::UnregisterReplica(ReplicaId replica, CoreId core) {
  UnregisterEndpoint(Address::Replica(replica), core);
}

UdpTransport::Endpoint* UdpTransport::RegisterEndpoint(const Address& addr, CoreId core,
                                                       TransportReceiver* receiver) {
  uint64_t key = PackEndpointKey(addr, core);
  MutexLock lock(endpoints_mu_);
  auto it = endpoints_.find(key);
  if (it != endpoints_.end()) {
    // Re-registration (crash-restart drills): the socket — and its slot in
    // the reuseport group join order — survives; only the receiver changes.
    it->second->receiver.store(receiver, std::memory_order_seq_cst);
    return it->second.get();
  }

  bool is_replica = addr.kind == Address::Kind::kReplica;
  int fd = -1;
  uint16_t port = 0;
  if (is_replica) {
    // Out-of-range coordinates would alias another endpoint's directory
    // slot; abort rather than mis-deliver (mirrors PackEndpointKey's guard).
    CheckEndpointCoord(addr.id, kMaxReplicas, "replica id");
    CheckEndpointCoord(core, kMaxCoresPerReplica, "core");
    int mode = steering_mode_.load(std::memory_order_relaxed);
    if (mode == 0 && force_distinct_ports_) {
      mode = 2;
    }
    if (mode != 2) {
      // Group mode (or still undecided): join this replica's SO_REUSEPORT
      // group, creating it — and attaching the steering program — on the
      // first core.
      if (core != group_joined_[addr.id]) {
        Fatal("meerkat: udp reuseport group for replica %u expected core %u to register "
              "next, got core %u (group members must bind in ascending core order)",
              addr.id, group_joined_[addr.id], core);
      }
      fd = OpenBoundSocket(group_port_[addr.id], /*reuseport=*/true, &port);
      if (fd < 0) {
        if (mode == 1) {
          Fatal("meerkat: udp bind into live reuseport group failed (replica %u core %u)",
                addr.id, core);
        }
      } else if (group_joined_[addr.id] == 0 && !AttachSteeringFilter(fd)) {
        if (mode == 1) {
          Fatal("meerkat: cBPF steering attach failed for replica %u after an earlier "
                "group succeeded", addr.id);
        }
        // First-ever attach failed: this kernel/container cannot steer
        // reuseport groups. Fall back to one port per core for the whole
        // transport.
        ::close(fd);
        fd = -1;
      }
      if (fd >= 0) {
        steering_mode_.store(1, std::memory_order_relaxed);
        group_port_[addr.id] = port;
        group_joined_[addr.id]++;
      } else {
        steering_mode_.store(2, std::memory_order_relaxed);
      }
    }
    if (fd < 0) {
      fd = OpenBoundSocket(0, /*reuseport=*/false, &port);
      if (fd < 0) {
        Fatal("meerkat: udp socket/bind failed for replica %u core %u: %s", addr.id, core,
              std::strerror(errno));
      }
      steering_mode_.store(2, std::memory_order_relaxed);
    }
    replica_ports_[addr.id * kMaxCoresPerReplica + core].store(port,
                                                              std::memory_order_release);
  } else {
    // Clients never share ports; no steering needed.
    fd = OpenBoundSocket(0, /*reuseport=*/false, &port);
    if (fd < 0) {
      Fatal("meerkat: udp socket/bind failed for client %u: %s", addr.id,
            std::strerror(errno));
    }
    PublishClientPort(addr.id, port);
  }

  auto ep = std::make_unique<Endpoint>();
  ep->fd = fd;
  ep->port = port;
  ep->steer = is_replica ? core : 0;
  ep->receiver.store(receiver, std::memory_order_seq_cst);
  Endpoint* raw = ep.get();
  raw->poller = std::thread([this, raw] { PollerLoop(raw); });
  endpoints_[key] = std::move(ep);
  return raw;
}

void UdpTransport::PublishClientPort(uint32_t client_id, uint16_t port) {
  constexpr uint64_t kOccupied = 1ull << 63;
  uint64_t h = client_id * 0x9E3779B97F4A7C15ull;
  for (size_t probe = 0; probe < kMaxClientSlots; probe++) {
    size_t idx = (h + probe) & (kMaxClientSlots - 1);
    uint64_t slot = client_slots_[idx].load(std::memory_order_relaxed);
    if (slot == 0) {
      client_slots_[idx].store(kOccupied | (static_cast<uint64_t>(client_id) << 16) | port,
                               std::memory_order_release);
      return;
    }
    if (((slot >> 16) & 0xFFFFFFFFull) == client_id) {
      return;  // Re-registration; the socket (and port) is reused.
    }
  }
  Fatal("meerkat: udp client port directory full (%zu clients)", kMaxClientSlots);
}

uint16_t UdpTransport::LookupPort(const Address& addr, CoreId core) const {
  if (addr.kind == Address::Kind::kReplica) {
    if (addr.id >= kMaxReplicas || core >= kMaxCoresPerReplica) {
      return 0;
    }
    return static_cast<uint16_t>(
        replica_ports_[addr.id * kMaxCoresPerReplica + core].load(std::memory_order_acquire));
  }
  uint64_t h = addr.id * 0x9E3779B97F4A7C15ull;
  for (size_t probe = 0; probe < kMaxClientSlots; probe++) {
    size_t idx = (h + probe) & (kMaxClientSlots - 1);
    uint64_t slot = client_slots_[idx].load(std::memory_order_acquire);
    if (slot == 0) {
      return 0;
    }
    if (((slot >> 16) & 0xFFFFFFFFull) == addr.id) {
      return static_cast<uint16_t>(slot & 0xFFFF);
    }
  }
  return 0;
}

void UdpTransport::UnregisterEndpoint(const Address& addr, CoreId core) {
  Endpoint* ep = nullptr;
  {
    MutexLock lock(endpoints_mu_);
    auto it = endpoints_.find(PackEndpointKey(addr, core));
    if (it == endpoints_.end()) {
      return;
    }
    ep = it->second.get();
  }
  // The socket stays bound (late retransmissions land as counted
  // no-receiver drops, and a reuseport group member must never leave the
  // group or the join-order/core mapping breaks); only the receiver detaches.
  ep->receiver.store(nullptr, std::memory_order_seq_cst);
  // Wait out an in-flight dispatch batch so the caller may destroy the
  // receiver. The seq_cst pairing with `busy` in DrainReadySocket guarantees
  // the poller either saw the nullptr or we see busy==true and wait.
  while (ep->busy.load(std::memory_order_seq_cst)) {
    std::this_thread::yield();
  }
}

// --- Send path -------------------------------------------------------------

void UdpTransport::Send(Message msg) {
  FaultInjector::Verdict v = faults_.Judge(msg);
  if (v.drop) {
    MetricIncr(kInjectedDrops);
    return;
  }
  uint64_t delay = base_delay_ns_ + v.extra_delay_ns;
  if (delay == 0) {
    const Message* batch[2] = {&msg, &msg};
    WireSend(batch, v.duplicate ? 2 : 1);
    return;
  }
  if (v.duplicate) {
    DeliverDelayed(msg, delay);
  }
  DeliverDelayed(std::move(msg), delay);
}

void UdpTransport::SendMany(Message* msgs, size_t n) {
  // Judge each message, then flush every immediate one in a single wire
  // batch (one sendmmsg for a whole quorum fan-out). Delayed/duplicated
  // messages take the timer heap like Send.
  const Message* immediate[kSendBatch];
  size_t k = 0;
  for (size_t i = 0; i < n; i++) {
    FaultInjector::Verdict v = faults_.Judge(msgs[i]);
    if (v.drop) {
      MetricIncr(kInjectedDrops);
      continue;
    }
    uint64_t delay = base_delay_ns_ + v.extra_delay_ns;
    if (delay == 0) {
      if (v.duplicate) {
        if (k == kSendBatch) {
          WireSend(immediate, k);
          k = 0;
        }
        immediate[k++] = &msgs[i];
      }
      if (k == kSendBatch) {
        WireSend(immediate, k);
        k = 0;
      }
      immediate[k++] = &msgs[i];
    } else {
      if (v.duplicate) {
        DeliverDelayed(msgs[i], delay);
      }
      DeliverDelayed(std::move(msgs[i]), delay);
    }
  }
  if (k != 0) {
    WireSend(immediate, k);
  }
}

ZCP_FAST_PATH void UdpTransport::WireSend(const Message* const* msgs, size_t n) {
  SendSlab& slab = t_send_slab;
  int fd = slab.Fd();
  if (fd < 0) {
    MetricIncr(kSendErrors);
    return;
  }
  const BatchOptions opts = batch_options();
  size_t i = 0;
  while (i < n) {
    // Stage up to one sendmmsg batch: encode each message into this thread's
    // reusable buffer (steering word + frame) and aim it at the destination
    // endpoint's port from the lock-free directory.
    size_t k = 0;
    // Message behind slab.bufs[k-1] and its steering word; fan-out runs of
    // wire-identical siblings (a VALIDATE to every replica) encode once and
    // byte-copy + dst-patch the rest.
    const Message* staged_prev = nullptr;
    uint32_t staged_prev_steer = 0;
    for (; i < n && k < kSendBatch; i++) {
      const Message& m = *msgs[i];
      uint32_t steer = m.dst.kind == Address::Kind::kReplica ? m.core : 0;
      uint16_t port = LookupPort(m.dst, steer);
      if (port == 0) {
        MetricIncr(kUnroutableDrops);
        continue;
      }
      std::vector<uint8_t>& buf = slab.bufs[k];
      buf.clear();
      // Wire-frame coalescing: a run of consecutive messages for the SAME
      // endpoint (same dst address, same steering word) packs into one
      // MsgBatch datagram, bounded by the governor's message/byte thresholds
      // and the datagram ceiling. Coordinator reply traffic — N validate
      // replies from one replica core to one client per drain — is the run
      // this collapses.
      size_t run = 1;
      if (opts.enabled && opts.max_messages > 1) {
        const size_t byte_cap = std::min(static_cast<size_t>(opts.max_bytes), kMaxDatagram);
        size_t frame_bytes = kSteerBytes + 1 + 4 + 4 + EncodedMessageSize(m);
        while (i + run < n && run < opts.max_messages && frame_bytes <= byte_cap) {
          const Message& next = *msgs[i + run];
          uint32_t next_steer = next.dst.kind == Address::Kind::kReplica ? next.core : 0;
          if (!(next.dst == m.dst) || next_steer != steer) {
            break;
          }
          const size_t add = 4 + EncodedMessageSize(next);
          if (frame_bytes + add > byte_cap) {
            break;
          }
          frame_bytes += add;
          run++;
        }
      }
      if (run >= 2) {
        AppendSteerWord(&buf, steer);
        EncodeBatchInto(msgs + i, run, &buf);
        MetricIncr(kWireFrames);
        MetricRecordValue(kWireFrameWidth, run);
        // A batch frame is not dst-patchable (the dst fields live inside the
        // sub-frames), so it never seeds sibling copy-and-patch.
        staged_prev = nullptr;
        i += run - 1;  // The loop increment consumes the run's last message.
      } else if (staged_prev != nullptr && steer == staged_prev_steer &&
                 m.src == staged_prev->src && m.core == staged_prev->core &&
                 SameWirePayload(m.payload, staged_prev->payload)) {
        // Identical frame except the dst field: skip serialization, copy the
        // previous datagram (steer word included) and patch dst in place.
        const std::vector<uint8_t>& prev_buf = slab.bufs[k - 1];
        buf.resize(prev_buf.size());
        std::memcpy(buf.data(), prev_buf.data(), prev_buf.size());
        PatchDstField(buf.data(), m.dst);
        staged_prev = &m;
        staged_prev_steer = steer;
      } else {
        AppendSteerWord(&buf, steer);
        EncodeMessageInto(m, &buf);
        if (buf.size() > kMaxDatagram) {
          MetricIncr(kOversizedDrops);
          continue;
        }
        staged_prev = &m;
        staged_prev_steer = steer;
      }
      sockaddr_in& dst = slab.dsts[k];
      dst.sin_family = AF_INET;
      dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      dst.sin_port = htons(port);
      slab.iovs[k].iov_base = buf.data();
      slab.iovs[k].iov_len = buf.size();
      ::msghdr& h = slab.hdrs[k].msg_hdr;
      std::memset(&h, 0, sizeof(h));
      h.msg_name = &dst;
      h.msg_namelen = sizeof(dst);
      h.msg_iov = &slab.iovs[k];
      h.msg_iovlen = 1;
      k++;
    }
    if (k == 0) {
      continue;
    }
    MetricRecordValue(kSendBatchSize, k);
    size_t off = 0;
    int stalls = 0;
    while (off < k) {
      int sent = ::sendmmsg(fd, slab.hdrs + off, static_cast<unsigned>(k - off), 0);
      if (sent < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // Socket buffer back-pressure: wait for writability briefly, then
          // give up and let the datagrams count as loss (UDP semantics; the
          // protocol retries).
          MetricIncr(kSendEagainStalls);
          if (++stalls > 100) {
            MetricIncr(kSendErrors);
            break;
          }
          ::pollfd pfd{fd, POLLOUT, 0};
          (void)::poll(&pfd, 1, 10);
          continue;
        }
        MetricIncr(kSendErrors);
        break;
      }
      off += static_cast<size_t>(sent);
    }
    for (size_t s = 0; s < off; s++) {
      MetricIncr(kSentDatagrams);
    }
  }
}

void UdpTransport::DeliverDelayed(Message msg, uint64_t delay_ns) {
  {
    MutexLock lock(timer_mu_);
    if (stopping_) {
      return;
    }
    timer_heap_.push_back(PendingTimer{
        std::chrono::steady_clock::now() + std::chrono::nanoseconds(delay_ns), std::move(msg)});
    std::push_heap(timer_heap_.begin(), timer_heap_.end());
  }
  timer_cv_.NotifyOne();
}

void UdpTransport::SetTimer(const Address& to, CoreId core, uint64_t delay_ns,
                            uint64_t timer_id) {
  Message msg;
  msg.src = to;
  msg.dst = to;
  msg.core = core;
  msg.payload = TimerFire{timer_id};
  // Timers are local to the node; they bypass fault injection (but still
  // travel the wire, so they arrive on the owning core's poller).
  DeliverDelayed(std::move(msg), delay_ns == 0 ? 1 : delay_ns);
}

void UdpTransport::TimerLoop() {
  // Same shape as ThreadedTransport::TimerLoop: lexically balanced
  // lock()/unlock() so the thread-safety analysis tracks the capability
  // through the mid-loop release around the wire send.
  timer_mu_.lock();
  while (!stopping_) {
    if (timer_heap_.empty()) {
      timer_cv_.Wait(timer_mu_);
      continue;
    }
    auto deadline = timer_heap_.front().deadline;
    if (timer_cv_.WaitUntil(timer_mu_, deadline) == std::cv_status::timeout ||
        std::chrono::steady_clock::now() >= deadline) {
      while (!timer_heap_.empty() &&
             timer_heap_.front().deadline <= std::chrono::steady_clock::now()) {
        std::pop_heap(timer_heap_.begin(), timer_heap_.end());
        Message msg = std::move(timer_heap_.back().msg);
        timer_heap_.pop_back();
        timer_mu_.unlock();
        const Message* one[1] = {&msg};
        WireSend(one, 1);
        timer_mu_.lock();
        if (stopping_) {
          timer_mu_.unlock();
          return;
        }
      }
    }
  }
  timer_mu_.unlock();
}

// --- Receive path ----------------------------------------------------------

void UdpTransport::PollerLoop(Endpoint* ep) {
  // This thread is one logical core's delivery context — exactly the threads
  // the DAP detector stamps as partition owners.
  DapAudit::BindCurrentThread();
  WarmupMetricsForThisThread();
  WarmupTraceForThisThread();
  // Pooled receive slab, allocated once per poller: recvmmsg scatters into
  // it and DecodeMessage reads straight out of it — no per-datagram buffers.
  std::unique_ptr<uint8_t[]> slab(new uint8_t[kRecvBatch * kRecvBufSize]);
  ::mmsghdr hdrs[kRecvBatch];
  ::iovec iovs[kRecvBatch];
  std::memset(hdrs, 0, sizeof(hdrs));
  for (size_t i = 0; i < kRecvBatch; i++) {
    iovs[i].iov_base = slab.get() + i * kRecvBufSize;
    iovs[i].iov_len = kRecvBufSize;
    hdrs[i].msg_hdr.msg_iov = &iovs[i];
    hdrs[i].msg_hdr.msg_iovlen = 1;
  }
  // Reusable decode staging for DrainReadySocket: batch frames fan out into
  // it, and its capacity survives across rounds (no steady-state allocation
  // for the vector itself).
  std::vector<Message> inbox;
  ::pollfd pfd{ep->fd, POLLIN, 0};
  // Spin-then-park (spin_then_park.h): after a drain, keep probing with
  // non-blocking drains before parking in poll() again. Stop and pause end
  // the probe before it touches the socket.
  auto probe = [&] {
    return ep->stop.load(std::memory_order_acquire) ||
           pollers_paused_.load(std::memory_order_acquire) ||
           DrainReadySocket(ep, slab.get(), hdrs, &inbox) > 0;
  };
  bool drained = false;
  while (!ep->stop.load(std::memory_order_acquire)) {
    if (pollers_paused_.load(std::memory_order_acquire)) {
      // Parked for a send-path bench: sleep instead of draining so receive
      // work stops competing for CPU. The kernel discards overflow once the
      // socket buffer fills.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    if (drained && ProbeBeforePark(probe)) {
      continue;  // Took more datagrams (or is stopping): probe afresh.
    }
    drained = false;
    pfd.revents = 0;
    // Finite timeout so a lost wake datagram can never wedge shutdown. A
    // poller paused while parked must not dispatch the datagram that woke it.
    int pr = ::poll(&pfd, 1, 100);
    if (pr <= 0 || pollers_paused_.load(std::memory_order_acquire)) {
      continue;
    }
    DrainReadySocket(ep, slab.get(), hdrs, &inbox);
    drained = true;
  }
}

void UdpTransport::SetPollersPausedForTesting(bool paused) {
  pollers_paused_.store(paused, std::memory_order_release);
}

ZCP_FAST_PATH size_t UdpTransport::DrainReadySocket(Endpoint* ep, uint8_t* slab,
                                                    ::mmsghdr* hdrs,
                                                    std::vector<Message>* inbox) {
  const BatchOptions opts = batch_options();
  size_t taken = 0;
  // Drain until EAGAIN: one poll wakeup handles the whole backlog, and the
  // batch-size histogram records how much each recvmmsg amortized.
  for (;;) {
    // `busy` brackets both the kernel dequeue and the dispatches so
    // UnregisterEndpoint/DrainForTesting never observe a datagram that is
    // neither in the kernel queue nor delivered. seq_cst: Dekker-style
    // pairing with the receiver swap (see Endpoint::receiver).
    ep->busy.store(true, std::memory_order_seq_cst);
    int n = ::recvmmsg(ep->fd, hdrs, kRecvBatch, MSG_DONTWAIT, nullptr);
    if (n <= 0) {
      ep->busy.store(false, std::memory_order_seq_cst);
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        MetricIncr(kRecvErrors);
      }
      return taken;
    }
    taken += static_cast<size_t>(n);
    MetricRecordValue(kRecvBatchSize, static_cast<uint64_t>(n));
    TransportReceiver* receiver = ep->receiver.load(std::memory_order_seq_cst);
    inbox->clear();
    for (int i = 0; i < n; i++) {
      const uint8_t* data = slab + static_cast<size_t>(i) * kRecvBufSize;
      size_t len = hdrs[i].msg_len;
      MetricIncr(kRecvDatagrams);
      if ((hdrs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0) {
        MetricIncr(kTruncatedDrops);
        continue;
      }
      if (len < kSteerBytes) {
        MetricIncr(kMalformedDrops);
        continue;
      }
      if (ReadSteerWord(data) != ep->steer) {
        // Either a mis-programmed sender or kernel steering broke; in both
        // cases delivering would violate DAP, so drop and count.
        MetricIncr(kMissteeredDrops);
        continue;
      }
      if (len == kSteerBytes) {
        continue;  // Steer-only wake datagram (Stop).
      }
      if (receiver == nullptr) {
        // Checked before decoding: a detached endpoint's datagrams are
        // counted and discarded without paying deserialization for a message
        // nobody will consume.
        MetricIncr(kNoReceiverDrops);
        continue;
      }
      const uint8_t* frame = data + kSteerBytes;
      const size_t frame_len = len - kSteerBytes;
      if (IsBatchFrame(frame, frame_len)) {
        // Coalesced datagram: fan the sub-messages back out. DecodeBatch is
        // all-or-nothing, so a corrupt frame drops whole (UDP loses whole
        // datagrams; sub-message granularity would invent partial loss the
        // wire cannot produce).
        if (!DecodeBatch(frame, frame_len, inbox)) {
          MetricIncr(kDecodeFailures);
        }
        continue;
      }
      Message msg;
      if (!DecodeMessage(frame, frame_len, &msg)) {
        MetricIncr(kDecodeFailures);
        continue;
      }
      inbox->push_back(std::move(msg));
    }
    // Dispatch the round's logical messages: one ReceiveBatch per governor
    // chunk with batching on, the exact legacy per-message path with it off.
    // Still inside the busy bracket, so unregister cannot race the receiver.
    if (!inbox->empty()) {
      if (opts.enabled) {
        const size_t chunk_max = opts.max_messages > 0 ? opts.max_messages : inbox->size();
        for (size_t off = 0; off < inbox->size(); off += chunk_max) {
          const size_t chunk = std::min(chunk_max, inbox->size() - off);
          receiver->ReceiveBatch(inbox->data() + off, chunk);
        }
      } else {
        for (Message& msg : *inbox) {
          receiver->Receive(std::move(msg));
        }
      }
      inbox->clear();
    }
    ep->busy.store(false, std::memory_order_seq_cst);
  }
}

// --- Shutdown / test support ----------------------------------------------

void UdpTransport::Stop() {
  {
    MutexLock lock(timer_mu_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
  }
  timer_cv_.NotifyAll();
  if (timer_thread_.joinable()) {
    timer_thread_.join();
  }
  // No new endpoints are registered during shutdown, so iterating without
  // the lock held across joins is safe.
  std::vector<Endpoint*> eps;
  {
    MutexLock lock(endpoints_mu_);
    for (auto& [key, ep] : endpoints_) {
      (void)key;
      eps.push_back(ep.get());
    }
  }
  for (Endpoint* ep : eps) {
    ep->stop.store(true, std::memory_order_release);
  }
  // Steer-only wake datagrams cut the up-to-100ms poll timeout short; each
  // carries the endpoint's own steering word so reuseport groups route it to
  // the right member.
  int wfd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (wfd >= 0) {
    for (Endpoint* ep : eps) {
      uint8_t wake[kSteerBytes];
      wake[0] = static_cast<uint8_t>(ep->steer >> 24);
      wake[1] = static_cast<uint8_t>(ep->steer >> 16);
      wake[2] = static_cast<uint8_t>(ep->steer >> 8);
      wake[3] = static_cast<uint8_t>(ep->steer);
      sockaddr_in dst{};
      dst.sin_family = AF_INET;
      dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      dst.sin_port = htons(ep->port);
      (void)::sendto(wfd, wake, sizeof(wake), 0, reinterpret_cast<sockaddr*>(&dst),
                     sizeof(dst));
    }
    ::close(wfd);
  }
  for (Endpoint* ep : eps) {
    if (ep->poller.joinable()) {
      ep->poller.join();
    }
    if (ep->fd >= 0) {
      ::close(ep->fd);
      ep->fd = -1;
    }
  }
}

void UdpTransport::DrainForTesting() {
  // Quiesced = kernel receive queues empty, no dispatch in flight, timer
  // heap empty — on kDrainIdleSweeps consecutive sweeps, since a message
  // seen mid-flight can enqueue work for another endpoint.
  int idle_sweeps = 0;
  for (int round = 0; round < 500; round++) {
    bool all_idle = true;
    {
      MutexLock lock(endpoints_mu_);
      for (auto& [key, ep] : endpoints_) {
        (void)key;
        int pending = 0;
        if (ep->fd >= 0 && ::ioctl(ep->fd, FIONREAD, &pending) == 0 && pending > 0) {
          all_idle = false;
          break;
        }
        if (ep->busy.load(std::memory_order_acquire)) {
          all_idle = false;
          break;
        }
      }
    }
    {
      MutexLock lock(timer_mu_);
      if (!timer_heap_.empty()) {
        all_idle = false;
      }
    }
    idle_sweeps = all_idle ? idle_sweeps + 1 : 0;
    if (idle_sweeps == kDrainIdleSweeps) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool UdpTransport::reuseport_steering() const {
  return steering_mode_.load(std::memory_order_relaxed) == 1;
}

uint16_t UdpTransport::PortOfForTesting(const Address& addr, CoreId core) const {
  return LookupPort(addr, addr.kind == Address::Kind::kClient ? 0 : core);
}

}  // namespace meerkat
