// zcp_analyzer fixture: ZCPA002 must fire. A codec in the shape of
// src/transport/serialization.cc: one Layout overload per record, walked by
// a visitor called through its operator(). The allocation in the decoder's
// shared-pointer overload is reached from the fast-path root only through
// an overload set wider than the repo-wide candidate cap and a call through
// a template-typed parameter; either once ended the closure and hid it.
#define ZCP_FAST_PATH
#include <cstdint>
#include <memory>

namespace fixture {

struct Sets {
  uint64_t n = 0;
};
struct A {
  uint64_t x = 0;
};
struct B {
  uint64_t x = 0;
};
struct C {
  uint64_t x = 0;
};
struct D {
  std::shared_ptr<const Sets> sets;
};

class Reader {
 public:
  bool operator()(uint64_t& v) {
    v = 0;
    return true;
  }
  bool operator()(std::shared_ptr<const Sets>& sets) {
    sets = std::make_shared<const Sets>();  // planted: ZCPA002
    return true;
  }
};

template <typename V>
bool Layout(V& v, A& a) {
  return v(a.x);
}
template <typename V>
bool Layout(V& v, B& b) {
  return v(b.x);
}
template <typename V>
bool Layout(V& v, C& c) {
  return v(c.x);
}
template <typename V>
bool Layout(V& v, D& d) {
  return v(d.sets);
}

ZCP_FAST_PATH bool Decode(D* out) {
  Reader r;
  return Layout(r, *out);
}

}  // namespace fixture
