// Per-transaction protocol-phase tracing (compiled out by -DMEERKAT_TRACE=0).
//
// Every protocol-step transition records a (timestamp, tid, step, arg) event
// into a fixed-size *thread-local* ring — the same shared-nothing discipline
// as the metrics slabs (metrics.h): the record path writes only memory the
// recording thread owns, so tracing a ZCP fast path adds no cross-core
// coordination. Ring slots are relaxed atomics, so a dump racing a recorder
// is data-race-free; an event being overwritten during a dump may read as a
// blend of two generations, which a debugging dump tolerates (the timestamp
// ordering exposes it).
//
// Collection walks every thread's ring under the registry mutex, filters by
// transaction id, and sorts by timestamp — replaying a slow or recovered
// transaction step by step. The fault-drill and threaded-integration suites
// install dump-on-failure hooks that print the most recent events when a
// drill assertion fails.
//
// With MEERKAT_TRACE=0 (CMake -DMEERKAT_TRACE=OFF) every entry point becomes
// an empty inline and the rings are never built: zero code, zero memory.

#ifndef MEERKAT_SRC_COMMON_TRACE_H_
#define MEERKAT_SRC_COMMON_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/types.h"

#ifndef MEERKAT_TRACE
#define MEERKAT_TRACE 1
#endif

namespace meerkat {

// Protocol-step transitions. Client-side steps come from the session and
// commit coordinator; replica-side steps from the dispatch handlers; epoch
// steps from the epoch-change machine.
enum class TraceStep : uint8_t {
  kTxnStart = 0,
  kGetSent,
  kGetReply,
  kValidateSent,      // One per VALIDATE fan-out (arg: retransmission round, 0 = first).
  kValidateReply,
  kFastPathDecision,
  kAcceptSent,
  kAcceptReply,
  kSlowPathDecision,
  kDecisionBroadcast,
  kTxnCommitted,
  kTxnAborted,
  kTxnFailed,
  kCoordChangeSent,
  kRecoveryDecision,
  kEpochChangeStart,
  kEpochAdopted,
  kCachedRead,        // Get served from the client cache (arg: read-set index).
  kCacheAbortEvict,   // Validation abort evicted the offending cached key.
};

const char* ToString(TraceStep step);

struct TraceEvent {
  uint64_t t_ns = 0;
  TxnId tid;
  TraceStep step = TraceStep::kTxnStart;
  uint32_t arg = 0;  // Step-specific: replica id, epoch, abort reason, ...

  std::string Format() const;
};

#if MEERKAT_TRACE

// Records one event into this thread's ring. O(1), lock-free, allocation-free
// after the thread's first record.
void TraceRecord(const TxnId& tid, TraceStep step, uint32_t arg = 0);

// Every event recorded for `tid`, across all threads' rings (that has not
// been overwritten), sorted by timestamp.
std::vector<TraceEvent> CollectTrace(const TxnId& tid);

// The `max_events` most recent events across all rings, sorted by timestamp;
// the dump-on-failure hook for tests and drills.
void DumpRecentTraces(FILE* out, size_t max_events = 64);

// Step-by-step replay of one transaction to `out`.
void DumpTraceForTxn(const TxnId& tid, FILE* out);

// Benchmarks/tests: forget all recorded events (rings stay allocated).
void ResetTraces();

// Constructs the calling thread's ring now (same rationale as
// WarmupMetricsForThisThread: keep the one-time allocation out of the first
// traced delivery).
void WarmupTraceForThisThread();

#else  // !MEERKAT_TRACE

inline void TraceRecord(const TxnId&, TraceStep, uint32_t = 0) {}
inline std::vector<TraceEvent> CollectTrace(const TxnId&) { return {}; }
inline void DumpRecentTraces(FILE*, size_t = 64) {}
inline void DumpTraceForTxn(const TxnId&, FILE*) {}
inline void ResetTraces() {}
inline void WarmupTraceForThisThread() {}

#endif  // MEERKAT_TRACE

}  // namespace meerkat

#endif  // MEERKAT_SRC_COMMON_TRACE_H_
