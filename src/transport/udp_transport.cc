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
#include <ctime>
#include <variant>

#include "src/common/metrics.h"
#include "src/transport/serialization.h"

#ifndef SO_ATTACH_REUSEPORT_CBPF
#define SO_ATTACH_REUSEPORT_CBPF 51
#endif

namespace meerkat {
namespace {

// All counters/histograms below live in per-thread slabs (src/common/
// metrics.h), so every endpoint thread — i.e. every emulated core — accounts
// its own traffic without shared-cacheline traffic on the fast path.
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
// Longest park without a wake: a lost wake datagram can never wedge Stop.
constexpr std::chrono::milliseconds kMaxPark(100);

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
// endpoint threads and application threads all send without sharing (DAP
// for the send side); buffers keep their capacity, so steady state performs
// zero allocations per message.
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

// The write-phase cork: COMMITs an endpoint thread sent during the delivery
// it is running, held for that thread's next send or the delivery's end.
// Thread-local like the slab: a thread delivers for one endpoint at a time.
// Every vector keeps its capacity, so holding and merging allocate nothing
// at steady state.
struct Cork {
  std::vector<Message> held;
  // Staging for one merged send: where each held COMMIT rides, and the order
  // WireSend stages.
  std::vector<size_t> ride;
  std::vector<const Message*> order;
};

thread_local Cork t_cork;

bool IsCommit(const Message& m) { return std::holds_alternative<CommitRequest>(m.payload); }

uint32_t SteerWordFor(const Message& m) {
  return m.dst.kind == Address::Kind::kReplica ? m.core : 0;
}

// True when a and b land on the same endpoint socket: WireSend packs a run
// of such messages into one MsgBatch datagram.
bool SameEndpoint(const Message& a, const Message& b) {
  return a.dst == b.dst && SteerWordFor(a) == SteerWordFor(b);
}

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
    return va->tid == vb->tid && va->ts == vb->ts && va->sets == vb->sets &&
           va->priority == vb->priority;
  }
  if (const auto* aa = std::get_if<AcceptRequest>(&a)) {
    const auto* ab = std::get_if<AcceptRequest>(&b);
    return aa->tid == ab->tid && aa->view == ab->view && aa->commit == ab->commit &&
           aa->ts == ab->ts && aa->sets == ab->sets;
  }
  if (const auto* ca = std::get_if<CommitRequest>(&a)) {
    const auto* cb = std::get_if<CommitRequest>(&b);
    return ca->tid == cb->tid && ca->commit == cb->commit && ca->ts == cb->ts;
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

struct UdpTransport::SocketEndpoint : EndpointRuntime::Endpoint {
  // Read by every sender (the port) on its own cache line: the owner writes
  // the heap above and the fields below on every park and every drain.
  alignas(64) int fd = -1;
  uint16_t port = 0;
  // Steering word this endpoint expects: the core id for replica endpoints,
  // 0 for clients.
  uint32_t steer = 0;
  // True while the owner is about to block or blocked in ppoll, so a
  // mailbox push sends a wake datagram only when one is needed.
  alignas(64) std::atomic<bool> parked{false};
  // Pooled receive slab: recvmmsg scatters into it and DecodeMessage reads
  // straight out of it — no per-datagram buffers.
  std::unique_ptr<uint8_t[]> slab{new uint8_t[kRecvBatch * kRecvBufSize]};
  ::mmsghdr hdrs[kRecvBatch];
  ::iovec iovs[kRecvBatch];

  SocketEndpoint(int socket_fd, uint16_t bound_port, uint32_t steer_word)
      : fd(socket_fd), port(bound_port), steer(steer_word) {
    std::memset(hdrs, 0, sizeof(hdrs));
    for (size_t i = 0; i < kRecvBatch; i++) {
      iovs[i].iov_base = slab.get() + i * kRecvBufSize;
      iovs[i].iov_len = kRecvBufSize;
      hdrs[i].msg_hdr.msg_iov = &iovs[i];
      hdrs[i].msg_hdr.msg_iovlen = 1;
    }
  }
};

UdpTransport::UdpTransport(const Options& options)
    : EndpointRuntime(options.base_delay_ns, kInjectedDrops),
      force_distinct_ports_(options.force_distinct_ports) {}

UdpTransport::~UdpTransport() { Stop(); }

std::unique_ptr<EndpointRuntime::Endpoint> UdpTransport::OpenEndpoint(const Address& addr,
                                                                     CoreId core) {
  int fd = -1;
  uint16_t port = 0;
  if (addr.kind == Address::Kind::kReplica) {
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
    return std::make_unique<SocketEndpoint>(fd, port, core);
  }
  // Clients never share ports; no steering needed.
  fd = OpenBoundSocket(0, /*reuseport=*/false, &port);
  if (fd < 0) {
    Fatal("meerkat: udp socket/bind failed for client %u: %s", addr.id, std::strerror(errno));
  }
  return std::make_unique<SocketEndpoint>(fd, port, 0);
}

uint16_t UdpTransport::LookupPort(const Address& addr, CoreId core) const {
  const Endpoint* ep = Find(addr, core);
  return ep == nullptr ? 0 : static_cast<const SocketEndpoint*>(ep)->port;
}

// --- Send path -------------------------------------------------------------

void UdpTransport::Transmit(Message* msgs, size_t n) {
  if (DeliveringOnThisThread()) {
    Cork& cork = t_cork;
    if (std::all_of(msgs, msgs + n, IsCommit)) {
      // A decision's write phase: nothing waits on it, so it waits for the
      // next send instead of paying a sendmmsg of its own.
      for (size_t i = 0; i < n; i++) {
        cork.held.push_back(std::move(msgs[i]));
      }
      return;
    }
    if (!cork.held.empty()) {
      SendWithHeld(msgs, n);
      return;
    }
  }
  // One WireSend per sendmmsg batch: a whole quorum fan-out is one syscall.
  const Message* staged[kSendBatch];
  for (size_t off = 0; off < n; off += kSendBatch) {
    const size_t k = std::min(kSendBatch, n - off);
    for (size_t i = 0; i < k; i++) {
      staged[i] = &msgs[off + i];
    }
    WireSend(staged, k);
  }
}

void UdpTransport::Flush() {
  if (DeliveringOnThisThread() && !t_cork.held.empty()) {
    SendWithHeld(nullptr, 0);
  }
}

void UdpTransport::SendWithHeld(Message* msgs, size_t n) {
  Cork& cork = t_cork;
  // Each held COMMIT rides just ahead of the span's first message for the
  // same endpoint, so WireSend packs the two into one MsgBatch and the
  // replica core applies the decision before it serves the request; the
  // other COMMITs follow the span in the same sendmmsg.
  cork.ride.clear();
  for (const Message& held : cork.held) {
    size_t at = 0;
    while (at < n && !SameEndpoint(held, msgs[at])) {
      at++;
    }
    cork.ride.push_back(at);
  }
  cork.order.clear();
  for (size_t i = 0; i <= n; i++) {
    for (size_t h = 0; h < cork.held.size(); h++) {
      if (cork.ride[h] == i) {
        cork.order.push_back(&cork.held[h]);
      }
    }
    if (i < n) {
      cork.order.push_back(&msgs[i]);
    }
  }
  for (size_t off = 0; off < cork.order.size(); off += kSendBatch) {
    WireSend(cork.order.data() + off, std::min(kSendBatch, cork.order.size() - off));
  }
  cork.held.clear();
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
      uint32_t steer = SteerWordFor(m);
      uint16_t port = LookupPort(m.dst, steer);
      if (port == 0) {
        MetricIncr(kUnroutableDrops);
        continue;
      }
      std::vector<uint8_t>& buf = slab.bufs[k];
      buf.clear();
      // Wire-frame coalescing: a run of consecutive messages for the SAME
      // endpoint (same dst address, same steering word) packs into one
      // MsgBatch datagram, bounded by the governor's message threshold and
      // the datagram ceiling. Coordinator reply traffic — N validate
      // replies from one replica core to one client per drain — is the run
      // this collapses.
      size_t run = 1;
      if (opts.enabled && opts.max_messages > 1) {
        size_t frame_bytes = kSteerBytes + 1 + 4 + 4 + EncodedMessageSize(m);
        while (i + run < n && run < opts.max_messages && frame_bytes <= kMaxDatagram) {
          const Message& next = *msgs[i + run];
          if (!SameEndpoint(next, m)) {
            break;
          }
          const size_t add = 4 + EncodedMessageSize(next);
          if (frame_bytes + add > kMaxDatagram) {
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

// --- Receive path ----------------------------------------------------------

size_t UdpTransport::DrainWire(Endpoint* ep, std::vector<Message>* batch) {
  return DrainReadySocket(static_cast<SocketEndpoint*>(ep), batch);
}

void UdpTransport::Park(Endpoint* base, Clock::time_point deadline) {
  auto* ep = static_cast<SocketEndpoint*>(base);
  // Dekker-style with Wake: publish `parked`, then look for work that a
  // pusher may have queued while it still saw parked == false.
  ep->parked.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!ep->mailbox.Empty() || stopping()) {
    ep->parked.store(false, std::memory_order_relaxed);
    return;
  }
  // ppoll's nanosecond timeout: poll()'s millisecond one would round every
  // timer up by as much as a millisecond.
  const auto wait = std::clamp<Clock::duration>(deadline - Clock::now(), Clock::duration::zero(),
                                                kMaxPark);
  const auto secs = std::chrono::duration_cast<std::chrono::seconds>(wait);
  ::timespec ts{};
  ts.tv_sec = static_cast<time_t>(secs.count());
  ts.tv_nsec = static_cast<long>(std::chrono::nanoseconds(wait - secs).count());
  ::pollfd pfd{ep->fd, POLLIN, 0};
  (void)::ppoll(&pfd, 1, &ts, nullptr);
  ep->parked.store(false, std::memory_order_relaxed);
}

void UdpTransport::Wake(Endpoint* base) {
  auto* ep = static_cast<SocketEndpoint*>(base);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!ep->parked.load(std::memory_order_relaxed)) {
    return;
  }
  // A steer-only datagram: its own steering word routes it to the right
  // reuseport group member, which discards it after waking.
  const int fd = t_send_slab.Fd();
  if (fd < 0) {
    return;
  }
  uint8_t wake[kSteerBytes];
  wake[0] = static_cast<uint8_t>(ep->steer >> 24);
  wake[1] = static_cast<uint8_t>(ep->steer >> 16);
  wake[2] = static_cast<uint8_t>(ep->steer >> 8);
  wake[3] = static_cast<uint8_t>(ep->steer);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  dst.sin_port = htons(ep->port);
  (void)::sendto(fd, wake, sizeof(wake), 0, reinterpret_cast<sockaddr*>(&dst), sizeof(dst));
}

ZCP_FAST_PATH size_t UdpTransport::DrainReadySocket(SocketEndpoint* ep,
                                                    std::vector<Message>* inbox) {
  size_t taken = 0;
  // Drain until EAGAIN: one wakeup handles the whole backlog, and the
  // batch-size histogram records how much each recvmmsg amortized.
  for (;;) {
    // `busy` brackets both the kernel dequeue and the dispatches so
    // Unregister/DrainForTesting never observe a datagram that is neither in
    // the kernel queue nor delivered. seq_cst: Dekker-style pairing with the
    // receiver swap (see Endpoint::receiver).
    ep->busy.store(true, std::memory_order_seq_cst);
    int n = ::recvmmsg(ep->fd, ep->hdrs, kRecvBatch, MSG_DONTWAIT, nullptr);
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
    for (int i = 0; i < n; i++) {
      const uint8_t* data = ep->slab.get() + static_cast<size_t>(i) * kRecvBufSize;
      size_t len = ep->hdrs[i].msg_len;
      MetricIncr(kRecvDatagrams);
      if ((ep->hdrs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0) {
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
        continue;  // Steer-only wake datagram (Wake).
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
    // Still inside the busy bracket, so unregister cannot race the receiver.
    Deliver(receiver, inbox);
    ep->busy.store(false, std::memory_order_seq_cst);
  }
}

// --- Test quiesce and shutdown ---------------------------------------------

bool UdpTransport::WireIdle(Endpoint* base) {
  auto* ep = static_cast<SocketEndpoint*>(base);
  int queued = 0;
  return ep->fd < 0 || ::ioctl(ep->fd, FIONREAD, &queued) != 0 || queued == 0;
}

void UdpTransport::CloseWire(Endpoint* base) {
  auto* ep = static_cast<SocketEndpoint*>(base);
  if (ep->fd >= 0) {
    ::close(ep->fd);
    ep->fd = -1;
  }
}

bool UdpTransport::reuseport_steering() const {
  return steering_mode_.load(std::memory_order_relaxed) == 1;
}

uint16_t UdpTransport::PortOfForTesting(const Address& addr, CoreId core) const {
  return LookupPort(addr, core);
}

}  // namespace meerkat
