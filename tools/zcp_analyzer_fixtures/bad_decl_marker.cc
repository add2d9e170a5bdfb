// zcp_analyzer fixture: ZCPA001 must fire even though ZCP_FAST_PATH sits on
// the *declaration* (class-body prototype), not the definition: the marker
// promotes every definition of the name to a fast-path root, so a marker
// that looks applied always has its body checked.
#define ZCP_FAST_PATH

namespace fixture {

class Mutex {
 public:
  void lock();
  void unlock();
};

template <typename M>
class LockGuard {
 public:
  explicit LockGuard(M& m);
};

using MutexLock = LockGuard<Mutex>;

class Server {
 public:
  ZCP_FAST_PATH void HandleRequest();  // marker on the prototype

 private:
  Mutex mu_;
};

void Server::HandleRequest() {
  MutexLock guard(mu_);  // blocking lock in the promoted body
}

}  // namespace fixture
