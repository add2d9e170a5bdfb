// Benchmark-local tracing for the traced run: a Transport decorator that
// times every call into the layers' public functions, per-thread span
// buffers, and the post-run pass that turns the spans into per-layer metrics
// and each committed transaction's blocking-path ledger.
//
// Nothing here reaches inside the program. Spans are taken around the calls
// the benchmark can see: Send/SendMany on the transport, each receiver's
// Receive/ReceiveBatch, ExecuteAsync and its completion callback, and
// Workload::NextTxn. Every span carries the TxnId of the message or
// transaction it belongs to, so a transaction's path can be rebuilt across
// the client and replica threads. All stamps come from one steady clock in
// one process.

#ifndef MEERKAT_PERFBENCH_TRACING_H_
#define MEERKAT_PERFBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/transport/transport.h"

namespace perfbench {

uint64_t NowNs();

enum class EventKind : uint8_t {
  kSend,      // One logical message handed to Send/SendMany.
  kRecv,      // One logical message handed to a receiver.
  kNextTxn,   // Workload::NextTxn.
  kExecute,   // ClientSession::ExecuteAsync (self time).
  kCallback,  // Completion callback entry.
};

// Endpoint byte for the replica side of a client<->replica message.
inline constexpr uint8_t kNoReplica = 0xFF;

struct Event {
  uint64_t t = 0;    // Span start (for kRecv: start of the delivering call).
  uint64_t seq = 0;  // TxnId::seq.
  uint32_t client = 0;  // TxnId::client_id.
  // kSend: duration of the whole send call. kRecv: this message's share of
  // the delivering call's self time. kNextTxn: duration. kExecute: self time.
  uint32_t dur = 0;
  uint32_t bytes = 0;     // kSend: encoded wire size.
  EventKind kind = EventKind::kSend;
  uint8_t type = 0;       // kSend/kRecv: payload index; kCallback: TxnResult.
  uint8_t replica = kNoReplica;  // Replica side of the message.
  uint8_t flags = 0;      // kToReplica; kCallback: kFastPath.

  static constexpr uint8_t kToReplica = 1;
  static constexpr uint8_t kFastPath = 2;
};

// One thread's span buffer plus its running aggregates. Only the owning
// thread writes it; the analysis reads it after every thread has quiesced.
struct ThreadLog {
  std::vector<Event> events;  // Reserved once; never grows.
  uint64_t dropped = 0;       // Events past the reserved capacity.
  int endpoint = -1;          // Endpoint this thread delivers for, if any.
  // Nesting bookkeeping for self time.
  uint64_t child_ns = 0;
  int depth = 0;
  uint64_t busy_ns = 0;  // Top-level span time of this thread.
  // Per-call transport aggregates.
  uint64_t send_calls = 0;
  uint64_t send_msgs = 0;
  uint64_t send_ns = 0;
  uint64_t recv_calls = 0;
  uint64_t recv_msgs = 0;

  void Append(const Event& e) {
    if (events.size() < events.capacity()) {
      events.push_back(e);
    } else {
      dropped++;
    }
  }
};

// Times one call on the current thread. Its self time is its duration less
// the durations of spans that nest inside it; its whole duration counts as
// child time of the span around it.
class Span {
 public:
  explicit Span(ThreadLog* log) : log_(log), saved_child_(log->child_ns), start_(NowNs()) {
    log_->child_ns = 0;
    log_->depth++;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t start() const { return start_; }

  // Closes the span; returns its self time.
  uint64_t End() {
    uint64_t total = NowNs() - start_;
    uint64_t self = total > log_->child_ns ? total - log_->child_ns : 0;
    log_->child_ns = saved_child_ + total;
    if (--log_->depth == 0) {
      log_->busy_ns += total;
    }
    return self;
  }

 private:
  ThreadLog* log_;
  uint64_t saved_child_;
  uint64_t start_;
};

// Owns the per-thread logs. Recording is switched on for the measured window
// only, so every buffered span lies inside it.
class Tracer {
 public:
  explicit Tracer(size_t events_per_thread) : capacity_(events_per_thread) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void SetRecording(bool on) { recording_.store(on, std::memory_order_release); }
  bool recording() const { return recording_.load(std::memory_order_relaxed); }

  // The calling thread's log, created on its first use.
  ThreadLog* Log();

  // Hands over every log. Only valid once the traced threads have stopped
  // recording.
  std::vector<std::unique_ptr<ThreadLog>> TakeLogs() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(logs_);
  }

 private:
  const size_t capacity_;
  std::atomic<bool> recording_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // Guarded by mu_ while recording.
};

// Forwards every call to `inner` and, while the tracer records, logs one
// kSend event per message sent and one kRecv event per message delivered to
// a registered receiver.
class TracingTransport : public meerkat::Transport {
 public:
  TracingTransport(meerkat::Transport* inner, Tracer* tracer);
  ~TracingTransport() override;
  TracingTransport(const TracingTransport&) = delete;
  TracingTransport& operator=(const TracingTransport&) = delete;

  void RegisterReplica(meerkat::ReplicaId replica, meerkat::CoreId core,
                       meerkat::TransportReceiver* receiver) override;
  void RegisterClient(uint32_t client_id, meerkat::TransportReceiver* receiver) override;
  void UnregisterClient(uint32_t client_id) override;
  void UnregisterReplica(meerkat::ReplicaId replica, meerkat::CoreId core) override;
  void Send(meerkat::Message msg) override;
  void SendMany(meerkat::Message* msgs, size_t n) override;
  void SetTimer(const meerkat::Address& to, meerkat::CoreId core, uint64_t delay_ns,
                uint64_t timer_id) override;
  meerkat::FaultInjector* fault_injector() override { return inner_->fault_injector(); }

 private:
  class Receiver;

  Receiver* Wrap(int endpoint, meerkat::TransportReceiver* receiver);
  void TracedSend(meerkat::Message* msgs, size_t n, bool many);

  meerkat::Transport* const inner_;
  Tracer* const tracer_;
  std::mutex mu_;
  // Wrappers stay alive until the decorator goes: the inner transport may
  // still hold one after its endpoint is unregistered.
  std::vector<std::unique_ptr<Receiver>> receivers_;
};

// One reported figure.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Per-layer metrics and the blocking-path ledger, computed from the logs of
// one traced window of `window_ns`.
struct TraceReport {
  std::vector<Metric> metrics;
  // Set when the spans contradict the protocol (a fast-path commit that did
  // not send 2 messages per GET plus 3 per replica) or the ledger's stages
  // miss the traced end-to-end mean by more than 10%.
  std::vector<std::string> errors;
};

TraceReport AnalyzeTrace(std::vector<std::unique_ptr<ThreadLog>> logs, uint64_t window_ns,
                         size_t replicas);

}  // namespace perfbench

#endif  // MEERKAT_PERFBENCH_TRACING_H_
