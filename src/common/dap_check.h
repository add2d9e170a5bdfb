// Runtime DAP (disjoint-access-parallelism) violation detector — Layer 3 of
// the ZCP conformance tooling (see docs/STATIC_ANALYSIS.md).
//
// The Zero-Coordination Principle says the per-core trecord partition is
// touched only on behalf of its own core. Nothing in the type system enforces
// that (`TRecord::Partition(core)` takes any core id), so this header makes
// the invariant observable at runtime with two complementary checks:
//
//  1. Core-scope check (simulator AND threaded runs): dispatch entry points
//     (Replica::Dispatch and the baseline dispatchers) open a DapCoreScope
//     naming the logical core the message is addressed to. Partition access
//     while a scope is active must land on the partition that core maps to;
//     anything else is a cross-partition access — exactly the bug class the
//     zcp_analyzer ZCPA003 rule catches statically, caught here dynamically and
//     interprocedurally.
//
//  2. Thread-owner stamping (threaded runs): transport worker threads bind
//     themselves with DapAudit::BindCurrentThread(); the first *bound* thread
//     to touch a partition stamps it and any later access from a different
//     bound thread is a violation. Unbound threads (test main threads doing
//     quiesced assertions, the driver between runs) are exempt — post-run
//     inspection is not fast-path traffic.
//
// Recovery and maintenance paths (epoch-state adoption, orphan readmission,
// crash drills, bulk trim) legitimately walk every partition from one thread;
// they wrap themselves in DapAuditSuspend and re-stamp owners afresh via
// ResetOwner().
//
// Modes: kOff (no checks), kCount (bump a global counter; the default so the
// whole ctest suite doubles as a DAP audit and asserts zero at the end), and
// kAbort (print the site and abort — for pinpointing a violation under a
// debugger). Compiled out entirely when MEERKAT_DAP_CHECK=0 (the CMake
// option of the same name), leaving release builds untouched.

#ifndef MEERKAT_SRC_COMMON_DAP_CHECK_H_
#define MEERKAT_SRC_COMMON_DAP_CHECK_H_

#include <atomic>
#include <cstdint>

#ifndef MEERKAT_DAP_CHECK
#define MEERKAT_DAP_CHECK 1
#endif

namespace meerkat {

enum class DapMode : int {
  kOff = 0,    // All checks disabled.
  kCount = 1,  // Record violations in a process-wide counter.
  kAbort = 2,  // Print the violating site and abort().
};

#if MEERKAT_DAP_CHECK

class DapAudit {
 public:
  static void SetMode(DapMode mode);
  static DapMode mode();

  // Total violations observed since the last ResetViolations(), across both
  // check kinds. Test suites assert this is zero after clean runs.
  static uint64_t violations();
  static void ResetViolations();

  // Marks the calling thread as a fast-path worker for the thread-owner
  // check. Called by the real-clock transports at the top of each endpoint
  // thread's loop; tests may call it directly to simulate workers.
  static void BindCurrentThread();
  static bool CurrentThreadBound();

  // True while any check may fire on this thread (mode != kOff and no
  // DapAuditSuspend active).
  static bool Active();

  static void ReportViolation(const char* site);
};

// RAII: suppress DAP checks on the current thread for the duration. Used by
// recovery/maintenance code that legitimately touches every partition.
class DapAuditSuspend {
 public:
  DapAuditSuspend();
  ~DapAuditSuspend();
  DapAuditSuspend(const DapAuditSuspend&) = delete;
  DapAuditSuspend& operator=(const DapAuditSuspend&) = delete;
};

// RAII: declares that the current thread is executing on behalf of `core`
// until destruction. Scopes nest (a dispatch that re-enters dispatch for the
// same core is fine); the innermost scope wins.
class DapCoreScope {
 public:
  explicit DapCoreScope(uint32_t core);
  ~DapCoreScope();
  DapCoreScope(const DapCoreScope&) = delete;
  DapCoreScope& operator=(const DapCoreScope&) = delete;

  // The core the current thread is scoped to, or -1 if none.
  static int64_t CurrentCore();

 private:
  int64_t saved_;
};

// Embedded in each owned structure (a trecord partition; the baselines'
// per-core tables). CheckAccess() is called from the structure's fast-path
// accessors with the structure's own partition index and the total partition
// count (so `Partition(core)` wraparound maps cores to partitions the same
// way the store does).
class DapOwnerSlot {
 public:
  DapOwnerSlot() = default;
  // Copy/move drop the stamp: a copied table is a new structure.
  DapOwnerSlot(const DapOwnerSlot&) {}
  DapOwnerSlot& operator=(const DapOwnerSlot&) { return *this; }

  void CheckAccess(uint32_t partition_index, uint32_t partition_count,
                   const char* site);

  // Forget the owning thread (after recovery rebuilt or cleared the
  // structure; the next bound accessor re-stamps it).
  void ResetOwner() { owner_.store(0, std::memory_order_release); }

 private:
  // Token of the first bound thread to access this structure; 0 = unstamped.
  std::atomic<uint64_t> owner_{0};
};

#else  // !MEERKAT_DAP_CHECK — every hook compiles to nothing.

class DapAudit {
 public:
  static void SetMode(DapMode) {}
  static DapMode mode() { return DapMode::kOff; }
  static uint64_t violations() { return 0; }
  static void ResetViolations() {}
  static void BindCurrentThread() {}
  static bool CurrentThreadBound() { return false; }
  static bool Active() { return false; }
  static void ReportViolation(const char*) {}
};

class DapAuditSuspend {
 public:
  DapAuditSuspend() {}
  ~DapAuditSuspend() {}
};

class DapCoreScope {
 public:
  explicit DapCoreScope(uint32_t) {}
  ~DapCoreScope() {}
  static int64_t CurrentCore() { return -1; }
};

class DapOwnerSlot {
 public:
  void CheckAccess(uint32_t, uint32_t, const char*) {}
  void ResetOwner() {}
};

#endif  // MEERKAT_DAP_CHECK

}  // namespace meerkat

#endif  // MEERKAT_SRC_COMMON_DAP_CHECK_H_
