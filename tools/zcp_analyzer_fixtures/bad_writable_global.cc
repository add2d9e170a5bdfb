// zcp_analyzer fixture: ZCPA005 must fire at the declaration — a writable
// namespace-scope variable without a waiver is cross-core shared state by
// construction, whether or not a fast path touches it.

#include <cstdint>

namespace fixture {

uint64_t g_request_count = 0;  // planted: ZCPA005

uint64_t Bump() { return ++g_request_count; }

}  // namespace fixture
