// Bounded-ish MPSC channel used by the threaded transport: many producer
// threads (senders, timer thread) and one consumer (the endpoint's worker).
//
// A mutex + deque + condvar channel whose consumer spins, then parks
// (spin_then_park.h): after each drain it probes the lock-free mirrors for
// the next item for a short window, yielding between probes, so back-to-back
// messages never pay a condvar wake-up; an idle consumer parks instead of
// burning a core. The fast path:
//   * PopAll drains the whole backlog under ONE lock acquisition, so a
//     consumer that fell behind pays one mutex round-trip for N messages
//     instead of N.
//   * The probe reads only the `approx_size_` / `closed_flag_` atomics: no
//     lock and no cache-line writes while the consumer waits.
//   * Producers skip the condvar notify entirely when no consumer is parked
//     (`waiters_` is maintained under the same mutex, so there is no lost
//     wakeup: a consumer registers as a waiter before releasing the mutex a
//     producer must hold to publish an item).
//
// Locking is annotated for Clang's thread-safety analysis (annotations.h);
// the blocking waits use explicit `while` loops over CondVar::Wait because
// the analysis treats lambda predicates as separate unannotated functions.

#ifndef MEERKAT_SRC_TRANSPORT_CHANNEL_H_
#define MEERKAT_SRC_TRANSPORT_CHANNEL_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/stats.h"
#include "src/transport/spin_then_park.h"

namespace meerkat {

namespace channel_internal {
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}
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
      LocalFastPathCounters().channel_notifies_skipped++;
    }
    return true;
  }

  // Enqueues items[0..n) (moving from them) under ONE lock acquisition with
  // at most one notify — the producer-side mirror of PopAll, used by the
  // threaded transport to land a coalesced same-destination send group.
  // Returns the number enqueued (0 if the channel is closed); FIFO order of
  // the group is preserved.
  size_t PushAll(T* items, size_t n) EXCLUDES(mu_) {
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
        items_.push_back(std::move(items[i]));
      }
      approx_size_.store(items_.size(), std::memory_order_release);
      notify = waiters_ > 0;
    }
    if (notify) {
      cv_.NotifyOne();
    } else {
      LocalFastPathCounters().channel_notifies_skipped++;
    }
    return n;
  }

  // Blocks until an item arrives or the channel closes.
  std::optional<T> Pop() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    waiters_++;
    while (items_.empty() && !closed_) {
      cv_.Wait(mu_);
    }
    waiters_--;
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    approx_size_.store(items_.size(), std::memory_order_release);
    return item;
  }

  // Blocks up to `timeout`; nullopt on timeout or close.
  std::optional<T> PopFor(std::chrono::nanoseconds timeout) EXCLUDES(mu_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mu_);
    waiters_++;
    while (items_.empty() && !closed_) {
      if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    waiters_--;
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    approx_size_.store(items_.size(), std::memory_order_release);
    return item;
  }

  std::optional<T> TryPop() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    approx_size_.store(items_.size(), std::memory_order_release);
    return item;
  }

  // Drains every queued item into `out` (cleared first) under a single lock
  // acquisition, blocking until at least one item is available: it probes
  // the lock-free size/closed atomics for the probe window (zero on a
  // single-CPU host), then parks on the condvar. Returns false only when the
  // channel is closed AND fully drained — the consumer's termination
  // condition. FIFO order is preserved. The returned batch counts as in
  // delivery (see Idle) until the consumer's next PopAll.
  bool PopAll(std::vector<T>& out) EXCLUDES(mu_) {
    out.clear();
    ProbeBeforePark([this] { return ReadyToPop(); });
    {
      MutexLock lock(mu_);
      delivering_ = false;
      waiters_++;
      while (items_.empty() && !closed_) {
        cv_.Wait(mu_);
      }
      waiters_--;
      if (items_.empty()) {
        return false;  // Closed and drained.
      }
      while (!items_.empty()) {
        out.push_back(std::move(items_.front()));
        items_.pop_front();
      }
      approx_size_.store(0, std::memory_order_release);
      delivering_ = true;
    }
    FastPathCounters& c = LocalFastPathCounters();
    c.channel_batches++;
    c.channel_batched_items += out.size();
    return true;
  }

  // Non-blocking drain; returns the number of items moved into `out`.
  size_t TryPopAll(std::vector<T>& out) EXCLUDES(mu_) {
    out.clear();
    {
      MutexLock lock(mu_);
      while (!items_.empty()) {
        out.push_back(std::move(items_.front()));
        items_.pop_front();
      }
      approx_size_.store(0, std::memory_order_release);
    }
    if (!out.empty()) {
      FastPathCounters& c = LocalFastPathCounters();
      c.channel_batches++;
      c.channel_batched_items += out.size();
    }
    return out.size();
  }

  // Unblocks all waiters; subsequent Push calls fail.
  void Close() EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
      closed_flag_.store(true, std::memory_order_release);
    }
    cv_.NotifyAll();
  }

  bool closed() const {
    return closed_flag_.load(std::memory_order_acquire);
  }

  size_t Size() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

  // True when nothing is queued and no batch handed out by PopAll is still
  // being consumed — the consumer has come back for more (or never took
  // any). A test quiesce needs both: a popped batch can still enqueue work
  // for other channels.
  bool Idle() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.empty() && !delivering_;
  }

 private:
  // The consumer's probe: acquire loads of the lock-free mirrors only — no
  // lock, no cache-line writes.
  bool ReadyToPop() const {
    return approx_size_.load(std::memory_order_acquire) > 0 ||
           closed_flag_.load(std::memory_order_acquire);
  }

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
  int waiters_ GUARDED_BY(mu_) = 0;  // Consumers parked (or about to park).
  bool delivering_ GUARDED_BY(mu_) = false;  // PopAll's last batch not yet consumed.

  // Lock-free mirrors for the consumer's probe. approx_size_ may lag the
  // deque (it is only a hint); closed_flag_ mirrors closed_ exactly.
  std::atomic<size_t> approx_size_{0};
  std::atomic<bool> closed_flag_{false};
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_TRANSPORT_CHANNEL_H_
