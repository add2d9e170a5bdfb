// zcp_analyzer fixture: ZCPA004 must fire — an atomic member operation
// without an explicit memory order. The member is deliberately named so no
// name heuristic would recognize it as atomic; the analyzer resolves the
// receiver through the class member-type map. The digit separator below
// must not read as a char literal that swallows its line's ';' and hides
// the class that follows.
#include <atomic>
#include <cstdint>

namespace fixture {

constexpr uint64_t kStep = 1'000;

class Widget {
 public:
  uint64_t Bump() {
    return innocuously_named_.fetch_add(1);  // implicit seq_cst
  }

  uint64_t Peek() const {
    return innocuously_named_.load(std::memory_order_relaxed);  // fine
  }

 private:
  std::atomic<uint64_t> innocuously_named_{0};
};

}  // namespace fixture
