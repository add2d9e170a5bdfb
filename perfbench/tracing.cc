#include "perfbench/tracing.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <type_traits>
#include <utility>
#include <variant>

#include "src/transport/serialization.h"

namespace perfbench {

using meerkat::Address;
using meerkat::CoreId;
using meerkat::Message;
using meerkat::Payload;
using meerkat::ReplicaId;
using meerkat::TransportReceiver;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

namespace {

struct ThreadSlot {
  const Tracer* owner = nullptr;
  ThreadLog* log = nullptr;
};
thread_local ThreadSlot tls_slot;

template <typename T>
concept HasTid = requires(const T& m) { m.tid; };

// Payload indices of the messages the ledger follows.
template <typename T>
uint8_t TypeOf() {
  return static_cast<uint8_t>(Payload(std::in_place_type<T>).index());
}
const uint8_t kGetRequest = TypeOf<meerkat::GetRequest>();
const uint8_t kGetReply = TypeOf<meerkat::GetReply>();
const uint8_t kValidateRequest = TypeOf<meerkat::ValidateRequest>();
const uint8_t kValidateReply = TypeOf<meerkat::ValidateReply>();
const uint8_t kCommitRequest = TypeOf<meerkat::CommitRequest>();
const uint8_t kAcceptRequest = TypeOf<meerkat::AcceptRequest>();

uint32_t Clamp32(uint64_t v) { return v > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(v); }

// Endpoint ids stored in ThreadLog::endpoint.
int ReplicaEndpoint(ReplicaId r) { return static_cast<int>(r); }
int ClientEndpoint(uint32_t client_id) { return 1000 + static_cast<int>(client_id); }
bool IsClientEndpoint(int endpoint) { return endpoint >= 1000; }

// Fills `e` with the message's TxnId, payload type and replica side.
void DescribeMessage(const Message& msg, Event* e) {
  meerkat::TxnId tid = std::visit(
      [](const auto& m) -> meerkat::TxnId {
        if constexpr (HasTid<std::decay_t<decltype(m)>>) {
          return m.tid;
        } else {
          return meerkat::TxnId{};
        }
      },
      msg.payload);
  e->client = tid.client_id;
  e->seq = tid.seq;
  e->type = static_cast<uint8_t>(msg.payload.index());
  const bool to_replica = msg.dst.kind == Address::Kind::kReplica;
  const Address& side = to_replica ? msg.dst : msg.src;
  e->replica = side.kind == Address::Kind::kReplica && side.id < kNoReplica
                   ? static_cast<uint8_t>(side.id)
                   : kNoReplica;
  e->flags = to_replica ? Event::kToReplica : 0;
}

}  // namespace

ThreadLog* Tracer::Log() {
  if (tls_slot.owner == this) {
    return tls_slot.log;
  }
  auto log = std::make_unique<ThreadLog>();
  log->events.reserve(capacity_);
  ThreadLog* raw = log.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::move(log));
  }
  tls_slot = ThreadSlot{this, raw};
  return raw;
}

// --- Receiver wrapper ---

class TracingTransport::Receiver : public TransportReceiver {
 public:
  Receiver(Tracer* tracer, int endpoint, TransportReceiver* inner)
      : tracer_(tracer), endpoint_(endpoint), inner_(inner) {}

  void Receive(Message&& msg) override {
    if (!tracer_->recording()) {
      inner_->Receive(std::move(msg));
      return;
    }
    Deliver(&msg, 1, /*single=*/true);
  }

  void ReceiveBatch(Message* msgs, size_t n) override {
    if (!tracer_->recording()) {
      inner_->ReceiveBatch(msgs, n);
      return;
    }
    Deliver(msgs, n, /*single=*/false);
  }

 private:
  void Deliver(Message* msgs, size_t n, bool single) {
    ThreadLog* log = tracer_->Log();
    log->endpoint = endpoint_;
    // Describe before delivery: the receiver consumes the messages.
    scratch_.resize(n);
    for (size_t i = 0; i < n; i++) {
      scratch_[i] = Event{};
      scratch_[i].kind = EventKind::kRecv;
      DescribeMessage(msgs[i], &scratch_[i]);
    }
    Span span(log);
    if (single) {
      inner_->Receive(std::move(msgs[0]));
    } else {
      inner_->ReceiveBatch(msgs, n);
    }
    uint64_t self = span.End();
    // A mixed batch is split evenly across its messages.
    uint32_t share = Clamp32(self / n);
    for (size_t i = 0; i < n; i++) {
      scratch_[i].t = span.start();
      scratch_[i].dur = share;
      log->Append(scratch_[i]);
    }
    log->recv_calls++;
    log->recv_msgs += n;
  }

  Tracer* const tracer_;
  const int endpoint_;
  TransportReceiver* const inner_;
  // Only the endpoint's own delivery thread touches this.
  std::vector<Event> scratch_;
};

// --- Decorator ---

TracingTransport::TracingTransport(meerkat::Transport* inner, Tracer* tracer)
    : inner_(inner), tracer_(tracer) {}

TracingTransport::~TracingTransport() = default;

TracingTransport::Receiver* TracingTransport::Wrap(int endpoint, TransportReceiver* receiver) {
  std::lock_guard<std::mutex> lock(mu_);
  receivers_.push_back(std::make_unique<Receiver>(tracer_, endpoint, receiver));
  return receivers_.back().get();
}

void TracingTransport::RegisterReplica(ReplicaId replica, CoreId core,
                                       TransportReceiver* receiver) {
  inner_->RegisterReplica(replica, core, Wrap(ReplicaEndpoint(replica), receiver));
}

void TracingTransport::RegisterClient(uint32_t client_id, TransportReceiver* receiver) {
  inner_->RegisterClient(client_id, Wrap(ClientEndpoint(client_id), receiver));
}

void TracingTransport::UnregisterClient(uint32_t client_id) { inner_->UnregisterClient(client_id); }

void TracingTransport::UnregisterReplica(ReplicaId replica, CoreId core) {
  inner_->UnregisterReplica(replica, core);
}

void TracingTransport::SetTimer(const Address& to, CoreId core, uint64_t delay_ns,
                                uint64_t timer_id) {
  inner_->SetTimer(to, core, delay_ns, timer_id);
}

void TracingTransport::Send(Message msg) { TracedSend(&msg, 1, /*many=*/false); }

void TracingTransport::SendMany(Message* msgs, size_t n) { TracedSend(msgs, n, /*many=*/true); }

void TracingTransport::TracedSend(Message* msgs, size_t n, bool many) {
  // Forward exactly the call that was made: transports treat Send and a
  // one-message SendMany differently.
  auto forward = [&] {
    if (many) {
      inner_->SendMany(msgs, n);
    } else {
      inner_->Send(std::move(msgs[0]));
    }
  };
  if (!tracer_->recording()) {
    forward();
    return;
  }
  ThreadLog* log = tracer_->Log();
  thread_local std::vector<Event> scratch;
  scratch.resize(n);
  for (size_t i = 0; i < n; i++) {
    scratch[i] = Event{};
    scratch[i].kind = EventKind::kSend;
    DescribeMessage(msgs[i], &scratch[i]);
    scratch[i].bytes = Clamp32(meerkat::EncodedMessageSize(msgs[i]));
  }
  uint64_t start = NowNs();
  forward();
  uint64_t dur = NowNs() - start;
  log->child_ns += dur;  // A leaf: all of it is child time of the caller.
  log->send_calls++;
  log->send_msgs += n;
  log->send_ns += dur;
  for (size_t i = 0; i < n; i++) {
    scratch[i].t = start;
    scratch[i].dur = Clamp32(dur);
    log->Append(scratch[i]);
  }
}

// --- Analysis ---

namespace {

// The samples of one span or count, for their mean and median.
struct Series {
  std::vector<double> values;

  void Add(double v) { values.push_back(v); }
  double Mean() const {
    if (values.empty()) {
      return 0;
    }
    double sum = 0;
    for (double v : values) {
      sum += v;
    }
    return sum / static_cast<double>(values.size());
  }
  double Median() {
    if (values.empty()) {
      return 0;
    }
    auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
    std::nth_element(values.begin(), mid, values.end());
    return *mid;
  }
};

// The blocking-path stages, in path order. Each stage ends where the next
// begins, so a transaction's stages sum to its traced end-to-end time.
enum Stage {
  kStageNextTxn,
  kStageIssue,
  kStageGetRequest,
  kStageGetReplica,
  kStageGetReply,
  kStageGetClient,
  kStageValidateRequest,
  kStageValidateReplica,
  kStageValidateReply,
  kStageDecision,
  kNumStages,
};

const char* const kStageNames[kNumStages] = {
    "next_txn",
    "issue",
    "get.request_transit",
    "get.replica_handler",
    "get.reply_transit",
    "get.client_handler",
    "validate.request_transit",
    "validate.replica_handler",
    "validate.reply_transit",
    "decision",
};

bool TidLess(const Event& a, const Event& b) {
  if (a.client != b.client) {
    return a.client < b.client;
  }
  if (a.seq != b.seq) {
    return a.seq < b.seq;
  }
  return a.t < b.t;
}

// One transaction's events, sorted by time.
struct TxnView {
  const Event* begin;
  const Event* end;
};

// Builds the blocking path of a fast-path commit. Returns false when the
// spans do not form a complete chain.
bool BuildPath(const TxnView& txn, const Event& next, const Event& exec, const Event& cb,
               double stages[kNumStages], size_t* gets, size_t* msgs, uint64_t* bytes) {
  // Client-side GET sends and the replica-side events of each GET, in order.
  std::vector<const Event*> get_send, get_recv, reply_send, reply_recv;
  const Event* validate_send = nullptr;
  const Event* v_recv[256] = {};
  const Event* v_reply_send[256] = {};
  const Event* v_reply_recv[256] = {};
  *msgs = 0;
  *bytes = 0;
  for (const Event* e = txn.begin; e != txn.end; e++) {
    if (e->kind == EventKind::kSend) {
      (*msgs)++;
      *bytes += e->bytes;
    }
    if (e->kind != EventKind::kSend && e->kind != EventKind::kRecv) {
      continue;
    }
    bool send = e->kind == EventKind::kSend;
    if (e->type == kGetRequest) {
      (send ? get_send : get_recv).push_back(e);
    } else if (e->type == kGetReply) {
      (send ? reply_send : reply_recv).push_back(e);
    } else if (e->type == kValidateRequest) {
      if (send && validate_send == nullptr) {
        validate_send = e;
      } else if (!send && v_recv[e->replica] == nullptr) {
        v_recv[e->replica] = e;
      }
    } else if (e->type == kValidateReply) {
      const Event** slot = send ? &v_reply_send[e->replica] : &v_reply_recv[e->replica];
      if (*slot == nullptr) {
        *slot = e;
      }
    }
  }
  size_t n = get_send.size();
  *gets = n;
  if (get_recv.size() != n || reply_send.size() != n || reply_recv.size() != n ||
      validate_send == nullptr) {
    return false;
  }
  // The reply that completed the quorum: the last one the client handled
  // before deciding (the fast path needs every replica when f = 1).
  const Event* last = nullptr;
  for (int r = 0; r < 256; r++) {
    const Event* rr = v_reply_recv[r];
    if (rr == nullptr || rr->t > cb.t || v_recv[r] == nullptr || v_reply_send[r] == nullptr) {
      continue;
    }
    if (last == nullptr || rr->t > last->t ||
        (rr->t == last->t && v_reply_send[r]->t > v_reply_send[last->replica]->t)) {
      last = rr;
    }
  }
  if (last == nullptr) {
    return false;
  }
  const Event* v_req = v_recv[last->replica];
  const Event* v_rep = v_reply_send[last->replica];

  for (int s = 0; s < kNumStages; s++) {
    stages[s] = 0;
  }
  auto span = [](uint64_t from, uint64_t to) {
    return static_cast<double>(to) - static_cast<double>(from);
  };
  stages[kStageNextTxn] = span(next.t, exec.t);
  uint64_t first_send = n > 0 ? get_send[0]->t : validate_send->t;
  stages[kStageIssue] = span(exec.t, first_send);
  for (size_t i = 0; i < n; i++) {
    uint64_t client_done = i + 1 < n ? get_send[i + 1]->t : validate_send->t;
    stages[kStageGetRequest] += span(get_send[i]->t, get_recv[i]->t);
    stages[kStageGetReplica] += span(get_recv[i]->t, reply_send[i]->t);
    stages[kStageGetReply] += span(reply_send[i]->t, reply_recv[i]->t);
    stages[kStageGetClient] += span(reply_recv[i]->t, client_done);
  }
  stages[kStageValidateRequest] = span(validate_send->t, v_req->t);
  stages[kStageValidateReplica] = span(v_req->t, v_rep->t);
  stages[kStageValidateReply] = span(v_rep->t, last->t);
  stages[kStageDecision] = span(last->t, cb.t);
  return true;
}

}  // namespace

TraceReport AnalyzeTrace(std::vector<std::unique_ptr<ThreadLog>> logs, uint64_t window_ns,
                         size_t replicas) {
  TraceReport report;
  auto add = [&report](std::string name, double value, const char* unit) {
    report.metrics.push_back({std::move(name), value, unit});
  };
  auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const double window = static_cast<double>(window_ns);

  std::vector<Event> all;
  size_t total = 0;
  uint64_t dropped = 0;
  uint64_t send_calls = 0, send_msgs = 0, send_ns = 0, recv_calls = 0, recv_msgs = 0;
  Series client_busy;
  std::vector<double> replica_busy;
  for (const auto& log : logs) {
    total += log->events.size();
    dropped += log->dropped;
    send_calls += log->send_calls;
    send_msgs += log->send_msgs;
    send_ns += log->send_ns;
    recv_calls += log->recv_calls;
    recv_msgs += log->recv_msgs;
    if (log->endpoint >= 0) {
      double frac = static_cast<double>(log->busy_ns) / window;
      if (IsClientEndpoint(log->endpoint)) {
        client_busy.Add(frac);
      } else {
        replica_busy.push_back(frac);
      }
    }
  }
  // Merge, releasing each buffer as it is copied.
  all.reserve(total);
  for (auto& log : logs) {
    all.insert(all.end(), log->events.begin(), log->events.end());
    log.reset();
  }
  std::sort(all.begin(), all.end(), TidLess);

  // Per-call and per-message layer spans.
  Series next_txn, issue, client_get_handler, client_validate_handler;
  Series replica_get, replica_validate, replica_commit;
  Series transit_request, transit_reply, get_rtt, validate_wait;
  Series ledger_e2e, ledger_msgs, ledger_bytes, ledger_gets;
  Series stage_series[kNumStages];
  uint64_t callbacks = 0, aborted = 0, failed = 0, gets_sent = 0;
  uint64_t incomplete = 0, slow_path = 0, unmatched = 0, ledger_txns = 0;

  for (const Event& e : all) {
    if (e.kind == EventKind::kRecv) {
      bool at_client = (e.flags & Event::kToReplica) == 0;
      if (at_client && e.type == kGetReply) {
        client_get_handler.Add(e.dur);
      } else if (at_client && e.type == kValidateReply) {
        client_validate_handler.Add(e.dur);
      } else if (!at_client && e.type == kGetRequest) {
        replica_get.Add(e.dur);
      } else if (!at_client && e.type == kValidateRequest) {
        replica_validate.Add(e.dur);
      } else if (!at_client && e.type == kCommitRequest) {
        replica_commit.Add(e.dur);
      }
    } else if (e.kind == EventKind::kNextTxn) {
      next_txn.Add(e.dur);
    } else if (e.kind == EventKind::kExecute) {
      issue.Add(e.dur);
    } else if (e.kind == EventKind::kSend && e.type == kGetRequest) {
      gets_sent++;
    }
  }

  // Walk each transaction's events.
  size_t i = 0;
  while (i < all.size()) {
    size_t j = i;
    while (j < all.size() && all[j].client == all[i].client && all[j].seq == all[i].seq) {
      j++;
    }
    TxnView txn{all.data() + i, all.data() + j};
    bool has_tid = all[i].client != 0 || all[i].seq != 0;
    i = j;
    if (!has_tid) {
      continue;
    }
    const Event* next = nullptr;
    const Event* exec = nullptr;
    const Event* cb = nullptr;
    const Event* first_validate = nullptr;
    bool accept = false;
    for (const Event* e = txn.begin; e != txn.end; e++) {
      switch (e->kind) {
        case EventKind::kNextTxn:
          next = e;
          break;
        case EventKind::kExecute:
          exec = e;
          break;
        case EventKind::kCallback:
          cb = e;
          break;
        default:
          if (e->type == kAcceptRequest) {
            accept = true;
          }
          if (e->kind == EventKind::kSend && e->type == kValidateRequest &&
              first_validate == nullptr) {
            first_validate = e;
          }
          break;
      }
    }
    // Transit: pair each send with the matching delivery, in order, per
    // (payload type, replica side).
    for (const Event* s = txn.begin; s != txn.end; s++) {
      if (s->kind != EventKind::kSend || s->replica == kNoReplica) {
        continue;
      }
      size_t rank = 0;
      for (const Event* p = txn.begin; p != s; p++) {
        if (p->kind == EventKind::kSend && p->type == s->type && p->replica == s->replica) {
          rank++;
        }
      }
      const Event* match = nullptr;
      for (const Event* r = txn.begin; r != txn.end; r++) {
        if (r->kind == EventKind::kRecv && r->type == s->type && r->replica == s->replica &&
            r->flags == s->flags && rank-- == 0) {
          match = r;
          break;
        }
      }
      if (match == nullptr) {
        continue;  // Delivered after the window closed.
      }
      double transit = static_cast<double>(match->t) - static_cast<double>(s->t);
      ((s->flags & Event::kToReplica) != 0 ? transit_request : transit_reply).Add(transit);
      if (s->type == kGetRequest) {
        // Round trip: the GET send to the client's handling of its reply.
        for (const Event* r = match; r != txn.end; r++) {
          if (r->kind == EventKind::kRecv && r->type == kGetReply) {
            get_rtt.Add(static_cast<double>(r->t) - static_cast<double>(s->t));
            break;
          }
        }
      }
    }
    if (cb == nullptr) {
      continue;
    }
    callbacks++;
    auto result = static_cast<meerkat::TxnResult>(cb->type);
    if (result == meerkat::TxnResult::kAbort) {
      aborted++;
    } else if (result == meerkat::TxnResult::kFailed) {
      failed++;
    }
    if (first_validate != nullptr) {
      validate_wait.Add(static_cast<double>(cb->t) - static_cast<double>(first_validate->t));
    }
    if (next == nullptr || exec == nullptr || result != meerkat::TxnResult::kCommit) {
      if (next == nullptr || exec == nullptr) {
        incomplete++;
      }
      continue;
    }
    ledger_e2e.Add(static_cast<double>(cb->t) - static_cast<double>(next->t));
    if (accept || (cb->flags & Event::kFastPath) == 0) {
      slow_path++;
      continue;
    }
    double stages[kNumStages];
    size_t gets = 0, msgs = 0;
    uint64_t bytes = 0;
    if (!BuildPath(txn, *next, *exec, *cb, stages, &gets, &msgs, &bytes)) {
      unmatched++;
      continue;
    }
    if (msgs != 2 * gets + 3 * replicas) {
      if (report.errors.size() < 4) {
        report.errors.push_back("fast-path commit " + std::to_string(cb->client) + ":" +
                                std::to_string(cb->seq) + " sent " + std::to_string(msgs) +
                                " messages for " + std::to_string(gets) + " GETs");
      }
    }
    ledger_txns++;
    for (int s = 0; s < kNumStages; s++) {
      stage_series[s].Add(stages[s]);
    }
    ledger_msgs.Add(static_cast<double>(msgs));
    ledger_bytes.Add(static_cast<double>(bytes));
    ledger_gets.Add(static_cast<double>(gets));
  }

  // --- workload ---
  add("workload.next_txn_ns", next_txn.Mean(), "ns");
  // --- protocol, client side ---
  add("client.issue_ns", issue.Mean(), "ns");
  add("client.handler_ns.get_reply", client_get_handler.Mean(), "ns");
  add("client.handler_ns.validate_reply", client_validate_handler.Mean(), "ns");
  add("client.get_rtt_ns", get_rtt.Mean(), "ns");
  add("client.validate_wait_ns", validate_wait.Mean(), "ns");
  add("client.gets_per_txn", ratio(gets_sent, callbacks), "count");
  add("client.busy_frac", client_busy.Mean(), "frac");
  add("txn.abort_rate", ratio(aborted, callbacks), "frac");
  add("txn.failed_rate", ratio(failed, callbacks), "frac");
  // --- transport ---
  add("transport.send_ns", ratio(send_ns, send_calls), "ns");
  add("transport.send_msgs_per_call", ratio(send_msgs, send_calls), "msgs");
  add("transport.transit_ns.request", transit_request.Mean(), "ns");
  add("transport.transit_ns.reply", transit_reply.Mean(), "ns");
  add("transport.recv_batch_size", ratio(recv_msgs, recv_calls), "msgs");
  add("transport.msgs_per_txn", ledger_msgs.Mean(), "msgs");
  add("transport.bytes_per_txn", ledger_bytes.Mean(), "B");
  // --- protocol, replica side ---
  add("replica.handler_ns.get", replica_get.Mean(), "ns");
  add("replica.handler_ns.validate", replica_validate.Mean(), "ns");
  add("replica.handler_ns.commit", replica_commit.Mean(), "ns");
  double busy_sum = 0, busy_max = 0;
  for (double b : replica_busy) {
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }
  add("replica.busy_frac.mean", ratio(busy_sum, static_cast<double>(replica_busy.size())),
      "frac");
  add("replica.busy_frac.max", busy_max, "frac");
  // --- ledger ---
  double stage_sum = 0;
  for (int s = 0; s < kNumStages; s++) {
    double mean = stage_series[s].Mean();
    stage_sum += mean;
    add(std::string("ledger.") + kStageNames[s] + ".mean_ns", mean, "ns");
    add(std::string("ledger.") + kStageNames[s] + ".p50_ns", stage_series[s].Median(), "ns");
  }
  double e2e_mean = ledger_e2e.Mean();
  add("ledger.e2e.mean_ns", e2e_mean, "ns");
  add("ledger.e2e.p50_ns", ledger_e2e.Median(), "ns");
  add("ledger.stage_sum_ns", stage_sum, "ns");
  add("ledger.coverage", ratio(stage_sum, e2e_mean), "frac");
  add("ledger.txns", static_cast<double>(ledger_txns), "count");
  add("ledger.gets_per_txn", ledger_gets.Mean(), "count");
  add("ledger.excluded_slow_path", static_cast<double>(slow_path), "count");
  add("ledger.excluded_unmatched", static_cast<double>(unmatched + incomplete), "count");
  add("trace.events", static_cast<double>(total), "count");
  add("trace.dropped_events", static_cast<double>(dropped), "count");

  if (ledger_txns == 0) {
    report.errors.push_back("no committed transaction has a complete traced path");
  } else if (std::fabs(stage_sum / e2e_mean - 1.0) > 0.10) {
    report.errors.push_back("ledger stages sum to " + std::to_string(stage_sum) +
                            " ns against a traced mean of " + std::to_string(e2e_mean) + " ns");
  }
  return report;
}

}  // namespace perfbench
