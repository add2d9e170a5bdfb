// Threaded in-process transport: the real-thread runtime of tests, examples
// and the threaded perfbench workloads.
//
// The in-process wire under the endpoint runtime (endpoint_runtime.h): each
// endpoint's inbox is its mailbox, a Channel senders push into directly, so a
// message costs one inbox lock and no copy, encode or syscall. Sends pass
// through the fault injector, then an optional delivery delay, then the
// destination inbox.

#ifndef MEERKAT_SRC_TRANSPORT_THREADED_TRANSPORT_H_
#define MEERKAT_SRC_TRANSPORT_THREADED_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/transport/endpoint_runtime.h"

namespace meerkat {

class ThreadedTransport : public EndpointRuntime {
 public:
  // base_delay_ns: one-way delivery delay applied to every message (0 = none;
  // tests that exercise reordering combine this with the injector's extra
  // delay).
  explicit ThreadedTransport(uint64_t base_delay_ns = 0);
  ~ThreadedTransport() override;

 private:
  std::unique_ptr<Endpoint> OpenEndpoint(const Address& addr, CoreId core) override
      REQUIRES(registry_mu_);
  // Coalesces consecutive same-endpoint messages into one Channel::PushAll
  // (one inbox lock, at most one notify) when batching is enabled — the
  // producer half of the batched pipeline.
  void Transmit(Message* msgs, size_t n) override;
  size_t DrainWire(Endpoint* ep, std::vector<Message>* batch) override;
  void Park(Endpoint* ep, Clock::time_point deadline) override;
  void Wake(Endpoint* ep) override;
  bool WireIdle(Endpoint* ep) override;
  void CloseWire(Endpoint* ep) override;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_TRANSPORT_THREADED_TRANSPORT_H_
