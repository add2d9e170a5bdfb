// zcp_analyzer fixture: ZCPA002 must fire. Methods with all-caps names (a
// wire codec's U32/U64) are ordinary functions, not annotation macros;
// reading `void WireWriter::U32(uint32_t v) {` as a macro-wrapped brace-init
// once hid every definition after it, including the allocating fast-path
// root below.
#define ZCP_FAST_PATH
#include <cstdint>
#include <vector>

namespace fixture {

class WireWriter {
 public:
  explicit WireWriter(std::vector<uint8_t>* out) : out_(out) {}
  void U32(uint32_t v);
  void U64(uint64_t v);

 private:
  std::vector<uint8_t>* out_;
};

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; i++) {
    out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v));
  U32(static_cast<uint32_t>(v >> 32));
}

ZCP_FAST_PATH void EncodeFrame(std::vector<uint8_t>* out, uint64_t v) {
  auto* boxed = new uint64_t(v);  // planted: ZCPA002
  WireWriter(out).U64(*boxed);
}

}  // namespace fixture
