// zcp_analyzer fixture: ZCPA005 must fire at the reference — a writable
// non-atomic global referenced from the fast-path closure (one call deep).
// Its declaration waiver does not sanction hot-path use: a plain int is
// cross-core shared state by construction.
#define ZCP_FAST_PATH

namespace fixture {

int g_hit_count = 0;  // zcp-analyzer: allow(ZCPA005) debug counter

void CountHit() {
  g_hit_count++;  // planted: ZCPA005
}

ZCP_FAST_PATH void FastRoot() {
  CountHit();
}

}  // namespace fixture
