// MPSC channel behind an endpoint's mailbox (endpoint_runtime.h): many
// producer threads, one consumer — the endpoint's own thread. On the threaded
// wire the mailbox is also the endpoint's inbox.
//
// A mutex + buffer + condvar channel shaped for that consumer's loop, which
// drains, probes, then parks until its next deadline:
//   * PopAll drains the whole backlog under ONE lock acquisition, so a
//     consumer that fell behind pays one mutex round-trip for N messages
//     instead of N. The drain is all-or-nothing, so the queue is a plain
//     vector that PopAll swaps with the consumer's (cleared) one: O(1) under
//     the lock, and both buffers keep their capacity, so at steady state a
//     push allocates nothing. (A deque would malloc a node on the producer's
//     thread every few pushes and free it on the consumer's.)
//   * Empty reads only the `approx_size_` atomic, so the consumer's probe
//     (spin_then_park.h) takes no lock and writes no cache line.
//   * Producers skip the condvar notify entirely when no consumer is parked
//     in WaitUntil (`waiters_` is maintained under the same mutex, so there
//     is no lost wakeup: a consumer registers as a waiter before releasing
//     the mutex a producer must hold to publish an item).
//
// Locking is annotated for Clang's thread-safety analysis (annotations.h);
// the blocking wait uses an explicit `while` loop over CondVar::WaitUntil
// because the analysis treats lambda predicates as separate unannotated
// functions.

#ifndef MEERKAT_SRC_TRANSPORT_CHANNEL_H_
#define MEERKAT_SRC_TRANSPORT_CHANNEL_H_

#include <atomic>
#include <chrono>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/metrics.h"

namespace meerkat {

namespace channel_internal {
// Pushes that found no parked consumer and so skipped the condvar notify.
inline const MetricId kNotifiesSkipped = MetricsRegistry::Counter("channel.notifies_skipped");
}  // namespace channel_internal

template <typename T>
class Channel {
 public:
  Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Returns false if the channel is closed.
  bool Push(T item) EXCLUDES(mu_) {
    bool notify;
    {
      MutexLock lock(mu_);
      if (closed_) {
        return false;
      }
      items_.push_back(std::move(item));
      approx_size_.store(items_.size(), std::memory_order_release);
      notify = waiters_ > 0;
    }
    if (notify) {
      cv_.NotifyOne();
    } else {
      MetricIncr(channel_internal::kNotifiesSkipped);
    }
    return true;
  }

  // Enqueues items[0..n) (moving from them; each becomes a T) under ONE lock
  // acquisition with at most one notify — the producer-side mirror of
  // PopAll, used by the threaded wire to land a coalesced same-destination
  // send group. Returns the number enqueued (0 if the channel is closed);
  // FIFO order of the group is preserved.
  template <typename U>
  size_t PushAll(U* items, size_t n) EXCLUDES(mu_) {
    if (n == 0) {
      return 0;
    }
    bool notify;
    {
      MutexLock lock(mu_);
      if (closed_) {
        return 0;
      }
      for (size_t i = 0; i < n; i++) {
        items_.emplace_back(std::move(items[i]));
      }
      approx_size_.store(items_.size(), std::memory_order_release);
      notify = waiters_ > 0;
    }
    if (notify) {
      cv_.NotifyOne();
    } else {
      MetricIncr(channel_internal::kNotifiesSkipped);
    }
    return n;
  }

  // Moves every queued item into `out` (cleared first) under a single lock
  // acquisition, without blocking, and returns how many it moved. FIFO order
  // is preserved.
  size_t PopAll(std::vector<T>& out) EXCLUDES(mu_) {
    out.clear();
    MutexLock lock(mu_);
    items_.swap(out);
    approx_size_.store(0, std::memory_order_release);
    return out.size();
  }

  // Blocks until an item is queued, the channel closes, or `deadline`
  // passes. Returns false once the channel is closed and empty — the
  // consumer's termination condition.
  bool WaitUntil(std::chrono::steady_clock::time_point deadline) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    waiters_++;
    while (items_.empty() && !closed_) {
      if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    waiters_--;
    return !items_.empty() || !closed_;
  }

  // True when nothing is queued. A lock-free hint that may lag a concurrent
  // push or pop; the consumer probes it, and the test quiesce reads it.
  bool Empty() const { return approx_size_.load(std::memory_order_acquire) == 0; }

  // Unblocks the waiter; subsequent pushes fail.
  void Close() EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.NotifyAll();
  }

 private:
  Mutex mu_;
  CondVar cv_;
  // Pushed items in FIFO order; grows, never shrinks (PopAll swaps it with
  // the consumer's buffer rather than freeing it).
  std::vector<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
  int waiters_ GUARDED_BY(mu_) = 0;  // Consumers parked (or about to park).

  // Lock-free mirror of items_.size() for Empty; written under mu_.
  std::atomic<size_t> approx_size_{0};
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_TRANSPORT_CHANNEL_H_
