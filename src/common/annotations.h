// Clang thread-safety annotations and annotated lock shims.
//
// Layer 1 of the ZCP conformance tooling (see docs/STATIC_ANALYSIS.md): every
// lock in the repo is a CAPABILITY, every field it protects is GUARDED_BY it,
// and helpers that assume a lock is held say so with REQUIRES. Under Clang the
// CI `thread-safety` job builds with `-Wthread-safety -Werror=thread-safety`,
// turning "touched a guarded field without the lock" into a build failure.
// Under GCC (the default local toolchain) every macro expands to nothing, so
// the annotations are zero-cost documentation.
//
// libstdc++'s std::mutex and std::lock_guard carry no annotations, so this
// header also provides thin annotated wrappers (Mutex, RecursiveMutex,
// MutexLock, LockGuard<M>, CondVar). They add no state and no extra atomic
// ops over the std types they wrap.
//
// ZCP_FAST_PATH is a pure marker consumed by tools/zcp_analyzer.py (Layer
// 2): nothing reachable from a function tagged with it may acquire blocking
// mutexes, call denylisted allocating APIs, or touch another core's trecord
// partition. KeyLock (the per-key spinlock) is deliberately NOT a blocking
// mutex for the analyzer's purposes — per-key locking is within the
// Zero-Coordination Principle; cross-core mutexes are not.

#ifndef MEERKAT_SRC_COMMON_ANNOTATIONS_H_
#define MEERKAT_SRC_COMMON_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && !defined(SWIG)
#define MEERKAT_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MEERKAT_THREAD_ANNOTATION(x)  // no-op
#endif

#define CAPABILITY(x) MEERKAT_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY MEERKAT_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) MEERKAT_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) MEERKAT_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) MEERKAT_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) MEERKAT_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) MEERKAT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  MEERKAT_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) MEERKAT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  MEERKAT_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) MEERKAT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  MEERKAT_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  MEERKAT_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  MEERKAT_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  MEERKAT_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) MEERKAT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) MEERKAT_THREAD_ANNOTATION(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  MEERKAT_THREAD_ANNOTATION(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) MEERKAT_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  MEERKAT_THREAD_ANNOTATION(no_thread_safety_analysis)

// Marker for zero-coordination fast-path functions; enforced over the whole
// call closure by tools/zcp_analyzer.py, invisible to the compiler. Place it
// on the function *definition*; a marker on a declaration also promotes
// every definition of that name. The analyzer's inventory pins every marked
// definition, so deleting a marker fails until the inventory is refreshed.
#define ZCP_FAST_PATH

// Explicit fast/slow boundary: the caller provably leaves the fast path
// before invoking a function carrying this marker (releases the shared
// gate, flushes staged replies), so coordination below it is sanctioned.
// tools/zcp_analyzer.py stops its fast-path closure traversal here and
// lists every boundary under --list-roots; adding one is a reviewable
// claim, not a silent opt-out. A function must not carry both markers.
#define ZCP_SLOW_PATH

namespace meerkat {

// std::mutex with capability annotations. Same size and cost; exposes the
// native handle so CondVar can wait on it without condition_variable_any.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  std::mutex& native_handle() { return mu_; }

 private:
  std::mutex mu_;
};

// std::recursive_mutex with capability annotations. Clang's analysis has no
// notion of re-entrancy, so functions that re-acquire an already-held
// RecursiveMutex must do so through RecursiveMutexLock inside a helper marked
// REQUIRES(mu) only when the *outermost* frame holds it; re-entrant public
// entry points (session Receive during ExecuteAsync) keep the plain
// acquire/release shape, which the analysis accepts because each frame is
// balanced.
class CAPABILITY("mutex") RecursiveMutex {
 public:
  RecursiveMutex() = default;
  RecursiveMutex(const RecursiveMutex&) = delete;
  RecursiveMutex& operator=(const RecursiveMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::recursive_mutex mu_;
};

// Annotated scoped guard over any lockable with lock()/unlock() — works for
// Mutex, RecursiveMutex, and the sim-aware KeyLock/SharedMutex in
// src/sim/primitives.h. Replacement for std::lock_guard, which libstdc++
// ships without SCOPED_CAPABILITY.
template <typename M>
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(M& m) ACQUIRE(m) : m_(m) { m_.lock(); }
  ~LockGuard() RELEASE() { m_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  M& m_;
};

using MutexLock = LockGuard<Mutex>;
using RecursiveMutexLock = LockGuard<RecursiveMutex>;

// Condition variable that waits on an annotated Mutex. Wait/WaitUntil adopt
// the already-held native mutex, wait, and release the unique_lock so the
// caller's guard (or explicit unlock) stays the sole owner — identical
// codegen to std::condition_variable::wait on a bare std::mutex. Callers must
// re-check their predicate in a loop: the analysis (correctly) does not model
// the release/reacquire inside wait, and lambda predicates are analyzed as
// separate functions, which is why the repo uses explicit `while` loops
// instead of the predicate overloads.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> ul(mu.native_handle(), std::adopt_lock);
    cv_.wait(ul);
    ul.release();
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(Mutex& mu,
                           const std::chrono::time_point<Clock, Duration>& tp)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> ul(mu.native_handle(), std::adopt_lock);
    std::cv_status status = cv_.wait_until(ul, tp);
    ul.release();
    return status;
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& d)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> ul(mu.native_handle(), std::adopt_lock);
    std::cv_status status = cv_.wait_for(ul, d);
    ul.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_COMMON_ANNOTATIONS_H_
