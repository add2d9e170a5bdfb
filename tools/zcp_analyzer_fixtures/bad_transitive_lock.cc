// zcp_analyzer fixture: ZCPA001 must fire — a blocking mutex acquisition
// two calls below a ZCP_FAST_PATH root, invisible to a scan of the root's
// own body (which is clean). The diagnostic must carry the chain
// FastRoot -> Helper -> Registry::Register.
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

class Registry {
 public:
  void Register();

 private:
  Mutex mu_;
};

void Registry::Register() {
  MutexLock guard(mu_);
}

void Helper(Registry& r) {
  r.Register();
}

ZCP_FAST_PATH void FastRoot(Registry& r) {
  Helper(r);
}

}  // namespace fixture
