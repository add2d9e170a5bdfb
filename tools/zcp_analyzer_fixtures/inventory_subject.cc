// zcp_analyzer fixture for the ZCPA020 inventory-drift check. The fast-path
// root and the atomic operations in this TU are aggregated into an
// inventory and diffed against atomic_order_ok.json (must match: no drift)
// and atomic_order_stale.json (records store as release; the code moved to
// seq_cst — drift must be reported). Deleting the ZCP_FAST_PATH marker must
// drift against atomic_order_ok.json too (the self-test's variant).
#define ZCP_FAST_PATH
#include <atomic>
#include <cstdint>

namespace fixture {

class Gauge {
 public:
  void Set(uint64_t v) {
    value_.store(v, std::memory_order_seq_cst);
  }

  ZCP_FAST_PATH uint64_t Get() const {
    return value_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<uint64_t> value_{0};
};

}  // namespace fixture
