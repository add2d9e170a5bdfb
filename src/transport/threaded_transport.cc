#include "src/transport/threaded_transport.h"

#include <algorithm>
#include <cassert>

#include "src/common/dap_check.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace meerkat {
namespace {

// Delivery batch-size distribution: the batched-drain win (one lock per
// backlog) only materializes if batches actually exceed one message; p50/p99
// here quantify queue depth as seen by the drain loop.
const MetricId kDrainBatchSize = MetricsRegistry::Histogram("transport.drain_batch_size");

// Batch-governor telemetry: how wide the coalesced producer pushes ran and
// why each delivered batch flushed (drained backlog with no linger window,
// hit the size threshold, or the linger deadline expired).
const MetricId kPushGroupWidth = MetricsRegistry::Histogram("batch.push_group_width");
const MetricId kFlushDrain = MetricsRegistry::Counter("batch.flush_drain");
const MetricId kFlushSize = MetricsRegistry::Counter("batch.flush_size");
const MetricId kFlushDeadline = MetricsRegistry::Counter("batch.flush_deadline");

}  // namespace

ThreadedTransport::ThreadedTransport(uint64_t base_delay_ns) : base_delay_ns_(base_delay_ns) {
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

ThreadedTransport::~ThreadedTransport() { Stop(); }

void ThreadedTransport::RegisterReplica(ReplicaId replica, CoreId core,
                                        TransportReceiver* receiver) {
  MutexLock lock(endpoints_mu_);
  auto ep = std::make_unique<Endpoint>();
  ep->receiver = receiver;
  StartEndpoint(ep.get());
  endpoints_[EndpointKey(Address::Replica(replica), core)] = std::move(ep);
}

void ThreadedTransport::RegisterClient(uint32_t client_id, TransportReceiver* receiver) {
  MutexLock lock(endpoints_mu_);
  auto ep = std::make_unique<Endpoint>();
  ep->receiver = receiver;
  StartEndpoint(ep.get());
  endpoints_[EndpointKey(Address::Client(client_id), 0)] = std::move(ep);
}

void ThreadedTransport::UnregisterClient(uint32_t client_id) {
  UnregisterEndpoint(EndpointKey(Address::Client(client_id), 0));
}

void ThreadedTransport::UnregisterReplica(ReplicaId replica, CoreId core) {
  UnregisterEndpoint(EndpointKey(Address::Replica(replica), core));
}

void ThreadedTransport::UnregisterEndpoint(uint64_t key) {
  std::unique_ptr<Endpoint> ep;
  {
    MutexLock lock(endpoints_mu_);
    auto it = endpoints_.find(key);
    if (it == endpoints_.end()) {
      return;
    }
    ep = std::move(it->second);
    endpoints_.erase(it);
  }
  // Stop delivery before the caller destroys the receiver. Joining waits for
  // an in-flight Receive to drain, which is why sessions must not destroy
  // themselves from their own delivery thread.
  ep->inbox.Close();
  if (ep->worker.joinable()) {
    ep->worker.join();
  }
  // A concurrent Send may already hold this endpoint's pointer (Lookup
  // happens before Push, without the map lock held across both). Keep the
  // endpoint alive — its closed inbox rejects the late Push safely — and
  // reclaim it at Stop().
  MutexLock lock(endpoints_mu_);
  retired_.push_back(std::move(ep));
}

void ThreadedTransport::StartEndpoint(Endpoint* ep) {
  ep->worker = std::thread([this, ep] {
    // Each endpoint worker is one logical core's delivery thread — exactly
    // the threads whose partition accesses the DAP detector stamps.
    DapAudit::BindCurrentThread();
    // Pay the one-time thread-local slab/ring construction before the first
    // delivery: a cold core applying a commit tens of microseconds behind its
    // warm siblings makes racing reads observably stale.
    WarmupMetricsForThisThread();
    WarmupTraceForThisThread();
    // Batch drain: one lock acquisition per backlog instead of one per
    // message. The vectors' capacity is reused across iterations.
    std::vector<Message> batch;
    std::vector<Message> extra;
    while (ep->inbox.PopAll(batch)) {
      // Governor state is setup-time configuration (set before traffic
      // flows), re-read each drain so options installed after registration
      // but before load are honored.
      const BatchOptions opts = batch_options();
      if (!opts.enabled) {
        // Legacy per-message delivery, exactly the unbatched pipeline.
        MetricRecordValue(kDrainBatchSize, batch.size());
        for (Message& msg : batch) {
          ep->receiver->Receive(std::move(msg));
        }
        continue;
      }
      if (opts.flush_delay_ns > 0 && batch.size() < opts.max_messages) {
        // Linger: extend a small drain toward max_messages for up to the
        // flush window. ClampedForHost zeroes the window on 1-CPU hosts,
        // where this poll would starve the producer it waits for.
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::nanoseconds(opts.flush_delay_ns);
        bool hit_size = false;
        while (true) {
          if (ep->inbox.TryPopAll(extra) > 0) {
            for (Message& m : extra) {
              batch.push_back(std::move(m));
            }
          }
          if (batch.size() >= opts.max_messages) {
            hit_size = true;
            break;
          }
          if (ep->inbox.closed() || std::chrono::steady_clock::now() >= deadline) {
            break;
          }
          channel_internal::CpuRelax();
        }
        MetricIncr(hit_size ? kFlushSize : kFlushDeadline);
      } else {
        MetricIncr(kFlushDrain);
      }
      MetricRecordValue(kDrainBatchSize, batch.size());
      // Chunk at max_messages so one huge backlog still bounds the epoch-gate
      // hold time of each DispatchBatch.
      for (size_t off = 0; off < batch.size(); off += opts.max_messages) {
        const size_t chunk =
            std::min(static_cast<size_t>(opts.max_messages), batch.size() - off);
        ep->receiver->ReceiveBatch(batch.data() + off, chunk);
      }
    }
  });
}

ThreadedTransport::Endpoint* ThreadedTransport::Lookup(const Address& addr, CoreId core) {
  MutexLock lock(endpoints_mu_);
  // Clients always register at core 0 regardless of what the sender put in
  // msg.core.
  CoreId effective_core = addr.kind == Address::Kind::kClient ? 0 : core;
  auto it = endpoints_.find(EndpointKey(addr, effective_core));
  return it == endpoints_.end() ? nullptr : it->second.get();
}

void ThreadedTransport::Send(Message msg) {
  FaultInjector::Verdict v = faults_.Judge(msg);
  if (v.drop) {
    return;
  }
  if (v.duplicate) {
    Deliver(msg, base_delay_ns_ + v.extra_delay_ns);
  }
  Deliver(std::move(msg), base_delay_ns_ + v.extra_delay_ns);
}

void ThreadedTransport::SendMany(Message* msgs, size_t n) {
  const BatchOptions opts = batch_options();
  if (!opts.enabled) {
    for (size_t i = 0; i < n; i++) {
      Send(std::move(msgs[i]));
    }
    return;
  }
  size_t i = 0;
  while (i < n) {
    // Destination run [i, j): consecutive messages for the same endpoint
    // (clients always land on their core-0 inbox, whatever msg.core says).
    const Address dst = msgs[i].dst;
    const CoreId eff_core = dst.kind == Address::Kind::kClient ? 0 : msgs[i].core;
    size_t j = i + 1;
    while (j < n && msgs[j].dst == dst &&
           (dst.kind == Address::Kind::kClient || msgs[j].core == eff_core)) {
      j++;
    }
    // Judge each logical message individually (fault semantics are per
    // message, never per coalesced group); zero-delay survivors compact in
    // place into a contiguous prefix and land with one PushAll.
    size_t w = i;
    for (size_t k = i; k < j; k++) {
      FaultInjector::Verdict v = faults_.Judge(msgs[k]);
      if (v.drop) {
        continue;
      }
      const uint64_t delay = base_delay_ns_ + v.extra_delay_ns;
      if (v.duplicate) {
        Deliver(msgs[k], delay);  // Copy; the original continues below.
      }
      if (delay != 0) {
        Deliver(std::move(msgs[k]), delay);
        continue;
      }
      if (w != k) {
        msgs[w] = std::move(msgs[k]);
      }
      w++;
    }
    if (w > i) {
      Endpoint* ep = Lookup(dst, eff_core);
      if (ep != nullptr) {
        MetricRecordValue(kPushGroupWidth, w - i);
        ep->inbox.PushAll(msgs + i, w - i);
      }
    }
    i = j;
  }
}

void ThreadedTransport::Deliver(Message msg, uint64_t delay_ns) {
  if (delay_ns == 0) {
    Endpoint* ep = Lookup(msg.dst, msg.core);
    if (ep != nullptr) {
      ep->inbox.Push(std::move(msg));
    }
    return;
  }
  // Delayed messages ride the timer heap.
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

void ThreadedTransport::SetTimer(const Address& to, CoreId core, uint64_t delay_ns,
                                 uint64_t timer_id) {
  Message msg;
  msg.src = to;
  msg.dst = to;
  msg.core = core;
  msg.payload = TimerFire{timer_id};
  // Timers are local to the node; they bypass fault injection.
  Deliver(std::move(msg), delay_ns == 0 ? 1 : delay_ns);
}

void ThreadedTransport::TimerLoop() {
  // Explicit, lexically balanced lock()/unlock() instead of std::unique_lock:
  // the thread-safety analysis tracks the capability through the loops and
  // the mid-loop release around delivery (pushing into an inbox while holding
  // timer_mu_ would order timer_mu_ ahead of the channel mutex for no
  // reason).
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
        Endpoint* ep = Lookup(msg.dst, msg.core);
        if (ep != nullptr) {
          ep->inbox.Push(std::move(msg));
        }
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

void ThreadedTransport::Stop() {
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
  // Close inboxes, then join workers. No new endpoints are registered during
  // shutdown, so iterating without the lock held across joins is safe.
  std::vector<Endpoint*> eps;
  {
    MutexLock lock(endpoints_mu_);
    for (auto& [key, ep] : endpoints_) {
      (void)key;
      eps.push_back(ep.get());
    }
  }
  for (Endpoint* ep : eps) {
    ep->inbox.Close();
  }
  for (Endpoint* ep : eps) {
    if (ep->worker.joinable()) {
      ep->worker.join();
    }
  }
}

void ThreadedTransport::DrainForTesting() {
  // Quiesced = every inbox empty with no popped batch still in delivery, and
  // the timer heap empty — on kDrainIdleSweeps consecutive sweeps, since a
  // delivery or a timer seen in one sweep may enqueue work for another
  // endpoint before the next.
  int idle_sweeps = 0;
  for (int round = 0; round < 50; round++) {
    bool all_idle = true;
    {
      MutexLock lock(endpoints_mu_);
      for (auto& [key, ep] : endpoints_) {
        (void)key;
        if (!ep->inbox.Idle()) {
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

}  // namespace meerkat
