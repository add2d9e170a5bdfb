#include "src/transport/endpoint_runtime.h"

#include <algorithm>
#include <variant>

#include "src/common/dap_check.h"
#include "src/common/trace.h"
#include "src/transport/spin_then_park.h"

namespace meerkat {
namespace {

// Delivery batch-size distribution of the threaded inbox: the batched-drain
// win (one lock per backlog) only materializes if batches actually exceed one
// message; p50/p99 here quantify queue depth as seen by the drain loop.
const MetricId kDrainBatchSize = MetricsRegistry::Histogram("transport.drain_batch_size");

// The endpoint whose loop runs on this thread, if any: a timer it arms for
// itself skips the mailbox.
thread_local const void* t_owner = nullptr;

// The runtime whose Deliver is running a receiver on this thread, if any.
thread_local const EndpointRuntime* t_delivering = nullptr;

constexpr uint64_t kClientKeyOccupied = 1ull << 32;

size_t ClientSlot(uint32_t client_id, size_t probe) {
  return (client_id * 0x9E3779B97F4A7C15ull + probe) & (EndpointRuntime::kMaxClientSlots - 1);
}

// Heap order: the earliest deadline on top.
template <typename P>
bool Later(const P& a, const P& b) {
  return a.due > b.due;
}

}  // namespace

EndpointRuntime::EndpointRuntime(uint64_t base_delay_ns, MetricId injected_drops)
    : base_delay_ns_(base_delay_ns), injected_drops_(injected_drops) {
  for (auto& ep : replica_eps_) {
    ep.store(nullptr, std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kMaxClientSlots; i++) {
    client_keys_[i].store(0, std::memory_order_relaxed);
    client_eps_[i].store(nullptr, std::memory_order_relaxed);
  }
}

EndpointRuntime::~EndpointRuntime() = default;

// --- Registration and the directory -----------------------------------------

void EndpointRuntime::RegisterReplica(ReplicaId replica, CoreId core,
                                      TransportReceiver* receiver) {
  Register(Address::Replica(replica), core, receiver);
}

void EndpointRuntime::RegisterClient(uint32_t client_id, TransportReceiver* receiver) {
  Register(Address::Client(client_id), 0, receiver);
}

void EndpointRuntime::UnregisterClient(uint32_t client_id) {
  Unregister(Address::Client(client_id), 0);
}

void EndpointRuntime::UnregisterReplica(ReplicaId replica, CoreId core) {
  Unregister(Address::Replica(replica), core);
}

void EndpointRuntime::Register(const Address& addr, CoreId core, TransportReceiver* receiver) {
  MutexLock lock(registry_mu_);
  if (Endpoint* ep = Find(addr, core)) {
    // Re-registration (crash-restart drills): the endpoint, its thread and
    // its wire survive; only the receiver changes.
    ep->receiver.store(receiver, std::memory_order_seq_cst);
    return;
  }
  const bool is_replica = addr.kind == Address::Kind::kReplica;
  if (is_replica) {
    // Out-of-range coordinates would alias another endpoint's directory
    // slot; abort rather than mis-deliver.
    CheckEndpointCoord(addr.id, kMaxReplicas, "replica id");
    CheckEndpointCoord(core, kMaxCoresPerReplica, "core");
  } else {
    CheckEndpointCoord(num_clients_, kMaxClientSlots, "client count");
  }
  std::unique_ptr<Endpoint> owned = OpenEndpoint(addr, core);
  Endpoint* ep = owned.get();
  ep->receiver.store(receiver, std::memory_order_seq_cst);
  if (is_replica) {
    replica_eps_[addr.id * kMaxCoresPerReplica + core].store(ep, std::memory_order_release);
  } else {
    PublishClient(addr.id, ep);
    num_clients_++;
  }
  endpoints_.push_back(std::move(owned));
  ep->thread = std::thread([this, ep] { Run(ep); });
}

void EndpointRuntime::PublishClient(uint32_t client_id, Endpoint* ep) {
  for (size_t probe = 0; probe < kMaxClientSlots; probe++) {
    const size_t idx = ClientSlot(client_id, probe);
    if (client_keys_[idx].load(std::memory_order_relaxed) == 0) {
      client_eps_[idx].store(ep, std::memory_order_release);
      client_keys_[idx].store(kClientKeyOccupied | client_id, std::memory_order_release);
      return;
    }
  }
}

EndpointRuntime::Endpoint* EndpointRuntime::Find(const Address& addr, CoreId core) const {
  if (addr.kind == Address::Kind::kReplica) {
    if (addr.id >= kMaxReplicas || core >= kMaxCoresPerReplica) {
      return nullptr;
    }
    return replica_eps_[addr.id * kMaxCoresPerReplica + core].load(std::memory_order_acquire);
  }
  const uint64_t key = kClientKeyOccupied | addr.id;
  for (size_t probe = 0; probe < kMaxClientSlots; probe++) {
    const size_t idx = ClientSlot(addr.id, probe);
    const uint64_t slot = client_keys_[idx].load(std::memory_order_acquire);
    if (slot == 0) {
      return nullptr;
    }
    if (slot == key) {
      return client_eps_[idx].load(std::memory_order_acquire);
    }
  }
  return nullptr;
}

void EndpointRuntime::Unregister(const Address& addr, CoreId core) {
  Endpoint* ep = Find(addr, core);
  if (ep == nullptr) {
    return;
  }
  // The endpoint, its thread and its wire stay until Stop (late
  // retransmissions and timers land as drops, and a reuseport group member
  // must never leave its group); only the receiver detaches.
  ep->receiver.store(nullptr, std::memory_order_seq_cst);
  // Wait out an in-flight delivery so the caller may destroy the receiver.
  // The seq_cst pairing with `busy` guarantees the owner either saw the
  // nullptr or we see busy==true and wait.
  while (ep->busy.load(std::memory_order_seq_cst)) {
    std::this_thread::yield();
  }
}

// --- Send path and timers ---------------------------------------------------

void EndpointRuntime::Send(Message msg) { SendMany(&msg, 1); }

void EndpointRuntime::SendMany(Message* msgs, size_t n) {
  // Survivors due now compact, in order, into a prefix of msgs.
  size_t due_now = 0;
  for (size_t i = 0; i < n; i++) {
    const FaultInjector::Verdict v = faults_.Judge(msgs[i]);
    if (v.drop) {
      MetricIncr(injected_drops_);
      continue;
    }
    const uint64_t delay = base_delay_ns_ + v.extra_delay_ns;
    if (v.duplicate) {
      Message copy = msgs[i];
      if (delay == 0) {
        Transmit(&copy, 1);
      } else {
        Defer(std::move(copy), delay);
      }
    }
    if (delay != 0) {
      Defer(std::move(msgs[i]), delay);
      continue;
    }
    if (due_now != i) {
      msgs[due_now] = std::move(msgs[i]);
    }
    due_now++;
  }
  if (due_now != 0) {
    Transmit(msgs, due_now);
  }
}

void EndpointRuntime::SetTimer(const Address& to, CoreId core, uint64_t delay_ns,
                               uint64_t timer_id) {
  Message msg;
  msg.src = to;
  msg.dst = to;
  msg.core = core;
  msg.payload = TimerFire{timer_id};
  // Timers are local to the node: they bypass fault injection and never
  // cross the wire.
  Defer(std::move(msg), delay_ns);
}

void EndpointRuntime::Defer(Message msg, uint64_t delay_ns) {
  Endpoint* ep = Find(msg.dst, msg.core);
  if (ep == nullptr) {
    return;  // Unroutable, like a send to an unregistered endpoint.
  }
  Pending entry(std::move(msg), Clock::now() + std::chrono::nanoseconds(delay_ns));
  ep->deferred.fetch_add(1, std::memory_order_relaxed);
  if (t_owner == ep) {
    // The common case — a retry or epoch timer armed inside Receive: the
    // owner's own heap, no lock, no wake-up.
    ep->heap.push_back(std::move(entry));
    std::push_heap(ep->heap.begin(), ep->heap.end(), Later<Pending>);
    return;
  }
  if (!ep->mailbox.Push(std::move(entry))) {
    ep->deferred.fetch_sub(1, std::memory_order_relaxed);  // Stopped.
    return;
  }
  Wake(ep);
}

// --- The endpoint loop --------------------------------------------------------

void EndpointRuntime::Run(Endpoint* ep) {
  // This thread is one logical core's delivery context — exactly the threads
  // whose partition accesses the DAP detector stamps.
  DapAudit::BindCurrentThread();
  // Pay the one-time thread-local slab/ring construction before the first
  // delivery: a cold core applying a commit tens of microseconds behind its
  // warm siblings makes racing reads observably stale.
  WarmupMetricsForThisThread();
  WarmupTraceForThisThread();
  t_owner = ep;
  // Reusable staging; capacity survives across iterations.
  std::vector<Message> batch;
  std::vector<Pending> mail;
  // One round: drain the wire and the mailbox and deliver, then fire due
  // timers. Drained messages go first: a reply that has already arrived is
  // handled before the timer that would retransmit for it.
  auto round = [&] {
    bool worked = DrainWire(ep, &batch) > 0;
    worked |= DrainMailbox(ep, &mail, &batch);
    worked |= FireDueTimers(ep, &batch);
    return worked;
  };
  auto interrupted = [this] { return stopping() || paused_.load(std::memory_order_acquire); };
  while (!stopping()) {
    if (paused_.load(std::memory_order_acquire)) {
      // Parked for a send-path bench: sleep instead of draining so receive
      // work stops competing for CPU.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    // Spin, then park (spin_then_park.h): after a round that did work, keep
    // running rounds, yielding between them, until the probe window passes
    // without work. On UDP a round's drain is a non-blocking recvmmsg, so the
    // probe that finds a datagram has already delivered it. Stop and pause
    // end the probe before it touches the wire.
    bool worked = round();
    while (worked && !interrupted()) {
      worked = ProbeBeforePark([&] { return interrupted() || round(); });
    }
    if (!interrupted()) {
      Park(ep, ep->heap.empty() ? Clock::time_point::max() : ep->heap.front().due);
    }
  }
}

bool EndpointRuntime::DrainMailbox(Endpoint* ep, std::vector<Pending>* mail,
                                   std::vector<Message>* batch) {
  if (ep->mailbox.Empty()) {
    return false;
  }
  // `busy` brackets the take and the deliveries, so Unregister and
  // DrainForTesting never observe a message that is neither queued nor
  // delivered. seq_cst: Dekker-style pairing with the receiver swap.
  ep->busy.store(true, std::memory_order_seq_cst);
  ep->mailbox.PopAll(*mail);
  for (Pending& p : *mail) {
    if (p.due == Clock::time_point{}) {
      batch->push_back(std::move(p.msg));
    } else {
      ep->heap.push_back(std::move(p));
      std::push_heap(ep->heap.begin(), ep->heap.end(), Later<Pending>);
    }
  }
  if (!batch->empty()) {
    MetricRecordValue(kDrainBatchSize, batch->size());
    Deliver(ep->receiver.load(std::memory_order_seq_cst), batch);
  }
  ep->busy.store(false, std::memory_order_seq_cst);
  return true;
}

bool EndpointRuntime::FireDueTimers(Endpoint* ep, std::vector<Message>* batch) {
  if (ep->heap.empty()) {
    return false;
  }
  const Clock::time_point now = Clock::now();
  if (ep->heap.front().due > now) {
    return false;
  }
  ep->busy.store(true, std::memory_order_seq_cst);
  uint32_t fired = 0;
  while (!ep->heap.empty() && ep->heap.front().due <= now) {
    std::pop_heap(ep->heap.begin(), ep->heap.end(), Later<Pending>);
    Message msg = std::move(ep->heap.back().msg);
    ep->heap.pop_back();
    fired++;
    if (std::holds_alternative<TimerFire>(msg.payload)) {
      batch->push_back(std::move(msg));
    } else {
      // A delayed message goes out now, its faults judged when it was sent.
      Transmit(&msg, 1);
    }
  }
  if (!batch->empty()) {
    Deliver(ep->receiver.load(std::memory_order_seq_cst), batch);
  }
  ep->deferred.fetch_sub(fired, std::memory_order_release);
  ep->busy.store(false, std::memory_order_seq_cst);
  return true;
}

void EndpointRuntime::Deliver(TransportReceiver* receiver, std::vector<Message>* msgs) {
  if (receiver != nullptr) {
    t_delivering = this;
    // Governor state is setup-time configuration, re-read per delivery so
    // options installed after registration but before load are honored.
    const BatchOptions opts = batch_options();
    if (!opts.enabled) {
      // Per-message delivery, exactly the unbatched pipeline.
      for (Message& msg : *msgs) {
        receiver->Receive(std::move(msg));
      }
    } else {
      // Chunk at max_messages so one huge backlog still bounds the
      // epoch-gate hold time of each DispatchBatch.
      for (size_t off = 0; off < msgs->size(); off += opts.max_messages) {
        const size_t chunk = std::min<size_t>(opts.max_messages, msgs->size() - off);
        receiver->ReceiveBatch(msgs->data() + off, chunk);
      }
    }
    Flush();
    t_delivering = nullptr;
  }
  msgs->clear();
}

bool EndpointRuntime::DeliveringOnThisThread() const { return t_delivering == this; }

// --- Shutdown and test support ----------------------------------------------

void EndpointRuntime::Stop() {
  stopping_.store(true, std::memory_order_seq_cst);
  // No endpoint registers during shutdown, so the joins need no lock held.
  std::vector<Endpoint*> eps;
  {
    MutexLock lock(registry_mu_);
    for (auto& ep : endpoints_) {
      eps.push_back(ep.get());
    }
  }
  for (Endpoint* ep : eps) {
    ep->mailbox.Close();
    Wake(ep);
  }
  for (Endpoint* ep : eps) {
    if (ep->thread.joinable()) {
      ep->thread.join();
      CloseWire(ep);
    }
  }
}

void EndpointRuntime::DrainForTesting() {
  // A delivery seen in one sweep can enqueue work at another endpoint before
  // the next, hence several consecutive idle sweeps.
  int idle_sweeps = 0;
  for (int round = 0; round < 500 && idle_sweeps < kDrainIdleSweeps; round++) {
    bool idle = true;
    {
      MutexLock lock(registry_mu_);
      for (auto& ep : endpoints_) {
        // The wire before `busy`: whatever the owner took off the wire was
        // covered by busy from before the take.
        if (!WireIdle(ep.get()) || ep->busy.load(std::memory_order_acquire) ||
            ep->deferred.load(std::memory_order_acquire) != 0) {
          idle = false;
          break;
        }
      }
    }
    idle_sweeps = idle ? idle_sweeps + 1 : 0;
    if (idle_sweeps < kDrainIdleSweeps) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

void EndpointRuntime::SetPollersPausedForTesting(bool paused) {
  paused_.store(paused, std::memory_order_release);
}

}  // namespace meerkat
