// zcp_analyzer fixture: ZCPA002 must fire — a heap allocation one call
// below a ZCP_FAST_PATH root. The root's own body is clean, so only the
// closure check can see it, and it must report the chain
// FastRoot -> MakeEntry.
#define ZCP_FAST_PATH

namespace fixture {

struct Entry {
  int value;
};

Entry* MakeEntry() {
  return new Entry();
}

ZCP_FAST_PATH Entry* FastRoot() {
  return MakeEntry();
}

}  // namespace fixture
