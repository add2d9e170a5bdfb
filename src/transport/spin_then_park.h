// Spin-then-park: how an endpoint delivery loop waits for its next message.
//
// The paper's prototype polls its queues (eRPC, §6): a message costs about a
// microsecond and never waits for a scheduler wake-up. The real-clock runtimes
// here park an idle endpoint thread instead (endpoint_runtime.h) — on its
// inbox condvar on the threaded wire, in ppoll() on UDP. A two-thread condvar
// ping-pong costs 20–34 µs per round trip on a 4-vCPU KVM guest, against
// ~0.2 µs when the waiter spins, and on the blocking path of a closed-loop
// client almost every hop would pay a wake-up.
//
// So after each drain a delivery loop keeps probing for its next message for
// a short window, yielding the CPU between probes, and parks only when the
// window passes with nothing to do. The yield is not optional: with more
// endpoint threads than CPUs (five on four in the Retwis bench), a pure spin
// starves the very thread that holds the awaited message.

#ifndef MEERKAT_SRC_TRANSPORT_SPIN_THEN_PARK_H_
#define MEERKAT_SRC_TRANSPORT_SPIN_THEN_PARK_H_

#include <chrono>
#include <thread>

namespace meerkat {

// How long a delivery loop probes before parking. It must exceed a park +
// wake (or a message landing inside the window saves nothing) and a
// closed-loop endpoint's gap between back-to-back messages (or a busy
// endpoint still parks on every hop). On the Retwis bench, goodput climbs
// steeply up to 20 µs and is flat within noise from 20 to 100 µs; 50 µs
// sits inside that plateau, and an idle endpoint stops using CPU after it.
inline constexpr std::chrono::nanoseconds kProbeWindow = std::chrono::microseconds(50);

// The window on a host with `hardware_concurrency` CPUs. Zero on one CPU:
// the thread being waited for cannot run while the prober holds the only
// core, so probing would just delay the message (the 1-CPU threaded-test
// load flake).
constexpr std::chrono::nanoseconds ProbeWindowForHost(unsigned hardware_concurrency) {
  return hardware_concurrency <= 1 ? std::chrono::nanoseconds(0) : kProbeWindow;
}

inline std::chrono::nanoseconds ProbeWindow() {
  static const std::chrono::nanoseconds window =
      ProbeWindowForHost(std::thread::hardware_concurrency());
  return window;
}

// Calls `probe` until it returns true or the probe window has passed,
// yielding between calls, and returns whether a probe succeeded. With a zero
// window `probe` is never called. A probe that must end on shutdown returns
// true for it too. Allocation-free: `probe` is taken by reference.
template <typename Probe>
bool ProbeBeforePark(Probe&& probe) {
  const std::chrono::nanoseconds window = ProbeWindow();
  if (window.count() == 0) {
    return false;
  }
  if (probe()) {
    return true;
  }
  const auto deadline = std::chrono::steady_clock::now() + window;
  do {
    std::this_thread::yield();
    if (probe()) {
      return true;
    }
  } while (std::chrono::steady_clock::now() < deadline);
  return false;
}

}  // namespace meerkat

#endif  // MEERKAT_SRC_TRANSPORT_SPIN_THEN_PARK_H_
