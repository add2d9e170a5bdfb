#include "src/common/dap_check.h"

#if MEERKAT_DAP_CHECK

#include <cstdio>
#include <cstdlib>

namespace meerkat {
namespace {

// Process-wide detector state. Deliberately writable globals: this is the
// audit instrument itself, not fast-path state, so each carries a ZCPA005
// waiver for tools/zcp_analyzer.py.
std::atomic<int> g_mode{static_cast<int>(DapMode::kCount)};  // zcp-analyzer: allow(ZCPA005) mode
std::atomic<uint64_t> g_violations{0};  // zcp-analyzer: allow(ZCPA005) violation count
std::atomic<uint64_t> g_next_token{1};  // zcp-analyzer: allow(ZCPA005) worker-token source

// Per-thread: audit suspension depth and the bound-worker token (0 = not a
// bound fast-path worker). constinit so the TLS init is a plain zero-fill
// (the GCC UBSan TLS-wrapper issue documented in docs/FAILURES.md).
constinit thread_local int t_suspend_depth = 0;
constinit thread_local uint64_t t_bound_token = 0;
constinit thread_local int64_t t_core_scope = -1;

}  // namespace

void DapAudit::SetMode(DapMode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

DapMode DapAudit::mode() {
  return static_cast<DapMode>(g_mode.load(std::memory_order_relaxed));
}

uint64_t DapAudit::violations() {
  return g_violations.load(std::memory_order_acquire);
}

void DapAudit::ResetViolations() {
  g_violations.store(0, std::memory_order_release);
}

void DapAudit::BindCurrentThread() {
  if (t_bound_token == 0) {
    t_bound_token = g_next_token.fetch_add(1, std::memory_order_relaxed);
  }
}

bool DapAudit::CurrentThreadBound() { return t_bound_token != 0; }

bool DapAudit::Active() {
  return mode() != DapMode::kOff && t_suspend_depth == 0;
}

void DapAudit::ReportViolation(const char* site) {
  g_violations.fetch_add(1, std::memory_order_acq_rel);
  if (mode() == DapMode::kAbort) {
    std::fprintf(stderr, "meerkat DAP violation: %s\n", site);
    std::fflush(stderr);
    std::abort();
  }
}

DapAuditSuspend::DapAuditSuspend() { t_suspend_depth++; }
DapAuditSuspend::~DapAuditSuspend() { t_suspend_depth--; }

DapCoreScope::DapCoreScope(uint32_t core) : saved_(t_core_scope) {
  t_core_scope = static_cast<int64_t>(core);
}

DapCoreScope::~DapCoreScope() { t_core_scope = saved_; }

int64_t DapCoreScope::CurrentCore() { return t_core_scope; }

void DapOwnerSlot::CheckAccess(uint32_t partition_index,
                               uint32_t partition_count, const char* site) {
  if (!DapAudit::Active()) {
    return;
  }
  // Check 1: logical core scope. Partition(core) maps core -> core % count,
  // so the scoped core must land on this partition.
  int64_t scoped = DapCoreScope::CurrentCore();
  if (scoped >= 0 && partition_count > 0 &&
      static_cast<uint32_t>(scoped) % partition_count != partition_index) {
    DapAudit::ReportViolation(site);
    return;
  }
  // Check 2: thread-owner stamping, bound worker threads only.
  if (t_bound_token != 0) {
    uint64_t owner = owner_.load(std::memory_order_acquire);
    if (owner == 0) {
      // First bound accessor claims the partition. On a CAS race the loser
      // falls through to the mismatch check below.
      if (owner_.compare_exchange_strong(owner, t_bound_token,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        return;
      }
    }
    if (owner != t_bound_token) {
      DapAudit::ReportViolation(site);
    }
  }
}

}  // namespace meerkat

#endif  // MEERKAT_DAP_CHECK
