#include "src/workload/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

namespace meerkat {
namespace {

// How often a simulated client polls the admission window for a free slot.
constexpr uint64_t kAdmissionPollNs = 2'000;

// One closed-loop client. Every attempt flows Issue -> ExecuteHolding ->
// OnDone: Issue claims a slot in the System's shared AIMD admission window
// (a no-op when admission is disabled), ExecuteHolding runs the transaction
// while holding it, and OnDone reports the outcome back to the window, then
// either re-issues the aborted plan (retry_aborts, with abort-aware backoff
// and priority aging) or starts a fresh transaction.
//
// The simulated client must never block its actor, so it *polls* the window
// (TryAcquire, re-scheduling itself after kAdmissionPollNs) and converts retry
// backoffs into scheduled events. The threaded client parks a resume
// callback in the window instead (AcquireOrPark) and re-issues retries
// immediately — it has no virtual clock to sleep on without stalling its
// endpoint worker.
struct ClientLoop {
  std::unique_ptr<ClientSession> session;
  Rng rng{1};
  Workload* workload = nullptr;
  std::atomic<bool>* stop = nullptr;
  std::atomic<size_t>* active = nullptr;
  std::function<void(ClientSession&, const TxnOutcome&)>* on_done = nullptr;

  // Overload control plane (always non-null; disabled windows admit freely).
  AimdWindow* window = nullptr;
  bool retry_aborts = false;
  AbortRetryPolicy retry_policy;

  // Sim-mode scheduling context; null under the threaded driver.
  Simulator* sim = nullptr;
  SimActor* actor = nullptr;

  // The in-flight attempt chain: the plan being (re-)tried and the 1-based
  // attempt about to run / just run.
  TxnPlan plan;
  uint32_t attempt = 1;

  void StartNext() {
    attempt = 1;
    plan = workload->NextTxn(rng);
    Issue();
  }

  void Issue() {
    uint8_t priority = plan.priority;
    if (retry_aborts) {
      priority = std::max(priority, retry_policy.PriorityFor(attempt));
    }
    bool bypass = priority > 0;
    if (sim != nullptr) {
      if (!window->TryAcquire(bypass)) {
        ScheduleSelf(kAdmissionPollNs);
        return;
      }
      ExecuteHolding(priority);
      return;
    }
    if (window->AcquireOrPark([this, priority] { ExecuteHolding(priority); }, bypass)) {
      ExecuteHolding(priority);
    }
  }

  void ExecuteHolding(uint8_t priority) {
    TxnPlan attempt_plan = plan;
    attempt_plan.priority = priority;
    session->ExecuteAsync(std::move(attempt_plan),
                          [this](const TxnOutcome& outcome) { OnDone(outcome); });
  }

  void OnDone(const TxnOutcome& outcome) {
    window->OnOutcome(outcome.result, outcome.reason);
    if (on_done != nullptr && *on_done) {
      (*on_done)(*session, outcome);
    }
    if (stop != nullptr && stop->load(std::memory_order_acquire)) {
      active->fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    if (retry_aborts && retry_policy.ShouldRetry(outcome.result, outcome.reason, attempt)) {
      uint64_t hint = retry_policy.respect_server_hint ? outcome.backoff_hint_ns : 0;
      uint64_t delay = retry_policy.DelayNanos(outcome.reason, hint, attempt, rng);
      attempt++;
      if (sim != nullptr) {
        ScheduleSelf(delay > 0 ? delay : 1);
        return;
      }
      Issue();
      return;
    }
    StartNext();
  }

  // Re-enters Issue() after `delay_ns` on this client's own actor (never a
  // cross-actor call: the window poll and the retry backoff both belong to
  // this client's timeline).
  void ScheduleSelf(uint64_t delay_ns) {
    sim->Schedule(sim->now() + (delay_ns > 0 ? delay_ns : 1), actor,
                  [this](SimContext&) { Issue(); });
  }
};

CoordinationStats Delta(const CoordinationStats& after, const CoordinationStats& before) {
  CoordinationStats d;
  d.shared_structure_ops = after.shared_structure_ops - before.shared_structure_ops;
  d.shared_structure_waits = after.shared_structure_waits - before.shared_structure_waits;
  d.key_lock_ops = after.key_lock_ops - before.key_lock_ops;
  d.key_lock_waits = after.key_lock_waits - before.key_lock_waits;
  d.replica_to_replica_msgs = after.replica_to_replica_msgs - before.replica_to_replica_msgs;
  d.client_msgs = after.client_msgs - before.client_msgs;
  return d;
}

}  // namespace

RunResult RunSimWorkload(Simulator& sim, SimTransport& transport, System& system,
                         Workload& workload, const SimRunOptions& options) {
  if (options.load_initial_keys) {
    workload.ForEachInitialKey(
        [&system](const std::string& key, const std::string& value) { system.Load(key, value); });
  }

  std::vector<std::unique_ptr<ClientLoop>> loops;
  loops.reserve(options.num_clients);
  for (size_t i = 0; i < options.num_clients; i++) {
    auto loop = std::make_unique<ClientLoop>();
    uint32_t client_id = static_cast<uint32_t>(i + 1);
    loop->session = system.CreateSession(client_id, options.seed * 7919 + i);
    loop->rng.Seed(options.seed * 104729 + i * 31);
    loop->workload = &workload;
    loop->window = &system.admission_window();
    loop->retry_aborts = options.retry_aborts;
    loop->retry_policy = options.retry;
    loop->sim = &sim;
    loops.push_back(std::move(loop));
  }

  // Stagger client starts slightly so the first round of messages does not
  // arrive as one synchronized burst.
  for (size_t i = 0; i < loops.size(); i++) {
    SimActor* actor = transport.ActorFor(Address::Client(static_cast<uint32_t>(i + 1)), 0);
    ClientLoop* loop = loops[i].get();
    loop->actor = actor;
    sim.Schedule(sim.now() + i * 120 + 1, actor, [loop](SimContext&) { loop->StartNext(); });
  }

  sim.Run(sim.now() + options.warmup_ns);
  for (auto& loop : loops) {
    loop->session->stats() = RunStats{};
  }
  CoordinationStats before = sim.context().stats();
  uint64_t events_before = sim.events_processed();

  sim.Run(sim.now() + options.measure_ns);

  RunResult result;
  for (auto& loop : loops) {
    result.stats.Merge(loop->session->stats());
  }
  result.elapsed_seconds = static_cast<double>(options.measure_ns) / 1e9;
  result.coordination = Delta(sim.context().stats(), before);
  result.events = sim.events_processed() - events_before;
  // Stop cleanly: pending events reference the sessions we are about to
  // destroy.
  sim.Clear();
  return result;
}

RunResult RunThreadedWorkload(System& system, Workload& workload,
                              const ThreadedRunOptions& options) {
  if (options.load_initial_keys) {
    workload.ForEachInitialKey(
        [&system](const std::string& key, const std::string& value) { system.Load(key, value); });
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> active{options.num_clients};
  auto on_done = options.on_txn_done;

  std::vector<std::unique_ptr<ClientLoop>> loops;
  loops.reserve(options.num_clients);
  for (size_t i = 0; i < options.num_clients; i++) {
    auto loop = std::make_unique<ClientLoop>();
    uint32_t client_id = static_cast<uint32_t>(i + 1);
    loop->session = system.CreateSession(client_id, options.seed * 7919 + i);
    loop->rng.Seed(options.seed * 104729 + i * 31);
    loop->workload = &workload;
    loop->stop = &stop;
    loop->active = &active;
    loop->on_done = &on_done;
    loop->window = &system.admission_window();
    loops.push_back(std::move(loop));
  }

  auto start = std::chrono::steady_clock::now();
  for (auto& loop : loops) {
    loop->StartNext();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(options.duration_ms));
  stop.store(true, std::memory_order_release);

  // Wait for in-flight transactions to drain (bounded: a wedged run should
  // fail the test, not hang it).
  for (int i = 0; i < 20000 && active.load(std::memory_order_acquire) != 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto elapsed = std::chrono::steady_clock::now() - start;

  RunResult result;
  for (auto& loop : loops) {
    result.stats.Merge(loop->session->stats());
  }
  result.elapsed_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  return result;
}

}  // namespace meerkat
