// zcp_analyzer fixture: ZCPA004 must fire once per line marked `planted`.
// Each line uses an atomic with the implicit seq_cst order through a
// receiver shape that once escaped resolution: a global after a comment
// whose text held a ';', subscripts holding operators, arrays of atomics,
// lower-case atomic locals and references, an order given only to a nested
// call, an `auto` range-for variable, a lambda body, a member inherited by a
// nested struct defined out of line, and an over-aligned brace-initialized
// member.
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace fixture {

// Process-wide knob; waived for zcp-analyzer ZCPA005 on its line.
std::atomic<int> g_flag{0};  // zcp-analyzer: allow(ZCPA005) fixture knob

struct Load {
  std::atomic<uint64_t> inflight{0};
};

struct Slab {
  std::array<std::atomic<uint64_t>, 4> words{};
  std::unique_ptr<std::atomic<uint64_t>[]> slots;
};

class Shapes {
 public:
  void Run(unsigned core, unsigned id) {
    g_flag.store(1);  // planted: ZCPA004
    loads_[core % loads_.size()].inflight.fetch_add(1);  // planted: ZCPA004
    slab_.words[id * 2 + 1].load();  // planted: ZCPA004
    slab_.slots[id].store(0);  // planted: ZCPA004
    std::atomic<bool> stop{false};
    stop.store(true);  // planted: ZCPA004
    std::atomic<uint64_t>& word = slab_.words[0];
    word.load();  // planted: ZCPA004
    word.store(word.load(std::memory_order_relaxed) + 1);  // planted: ZCPA004
    for (auto& w : slab_.words) {
      w.store(0);  // planted: ZCPA004
    }
    auto probe = [&] { return stop.load(); };  // planted: ZCPA004
    (void)probe;
  }

 private:
  std::vector<Load> loads_;
  Slab slab_;
};

struct EndpointBase {
  std::atomic<bool> owner_busy{false};
};

class Wire {
 public:
  struct Socket;
  void Drain(Socket* ep);
};

struct Wire::Socket : public EndpointBase {
  alignas(64) int fd = -1;
  alignas(64) std::atomic<bool> parked{false};
};

void Wire::Drain(Socket* ep) {
  ep->owner_busy.store(true);  // planted: ZCPA004
  ep->parked.store(true);  // planted: ZCPA004
}

}  // namespace fixture
