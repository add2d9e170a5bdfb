#include "src/transport/threaded_transport.h"

#include "src/common/metrics.h"

namespace meerkat {
namespace {

// How wide the coalesced producer pushes ran.
const MetricId kPushGroupWidth = MetricsRegistry::Histogram("batch.push_group_width");

}  // namespace

ThreadedTransport::ThreadedTransport(uint64_t base_delay_ns)
    : EndpointRuntime(base_delay_ns, MetricId{}) {}

ThreadedTransport::~ThreadedTransport() { Stop(); }

std::unique_ptr<EndpointRuntime::Endpoint> ThreadedTransport::OpenEndpoint(const Address&,
                                                                          CoreId) {
  return std::make_unique<Endpoint>();
}

void ThreadedTransport::Transmit(Message* msgs, size_t n) {
  const bool coalesce = batch_options().enabled;
  size_t i = 0;
  while (i < n) {
    // Destination run [i, j): consecutive messages for the same endpoint land
    // with one PushAll; with batching off every message is its own run.
    Endpoint* ep = Find(msgs[i].dst, msgs[i].core);
    size_t j = i + 1;
    while (coalesce && j < n && Find(msgs[j].dst, msgs[j].core) == ep) {
      j++;
    }
    if (ep != nullptr) {
      if (coalesce) {
        MetricRecordValue(kPushGroupWidth, j - i);
      }
      ep->mailbox.PushAll(msgs + i, j - i);
    }
    i = j;
  }
}

// The inbox is the mailbox, which the runtime drains.
size_t ThreadedTransport::DrainWire(Endpoint*, std::vector<Message>*) { return 0; }

void ThreadedTransport::Park(Endpoint* ep, Clock::time_point deadline) {
  ep->mailbox.WaitUntil(deadline);
}

// A push notifies a parked owner, and Stop closes the inbox.
void ThreadedTransport::Wake(Endpoint*) {}

bool ThreadedTransport::WireIdle(Endpoint* ep) { return ep->mailbox.Empty(); }

void ThreadedTransport::CloseWire(Endpoint*) {}

}  // namespace meerkat
