// Real-clock, closed-loop, end-to-end benchmark of Meerkat (3 replicas x 1
// core) over the public API: CreateSystem, ClientSession::ExecuteAsync,
// Workload::NextTxn, and the ThreadedTransport / UdpTransport runtimes.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (2 closed-loop client sessions each; why each was chosen):
//   ycsbt-udp    YCSB-T, 1 RMW per txn, uniform over 100k keys, on real
//                loopback UDP sockets. The wire path (codec, syscalls,
//                batching) does most of the work and OCC almost never
//                aborts.
//   retwis-zipf  The Retwis mix (Table 2), zipf 0.9 over 100k keys, on the
//                threaded transport. Long transactions with 1-10 sequential
//                GETs and a few percent aborts: execute phase, vstore reads,
//                OCC validation and the abort path do most of the work.
//   ycsbb-cache  YCSB-B, 4 ops per txn at 95% reads, zipf 0.99 over 1024
//                keys, threaded transport, client read cache on. The only
//                workload that runs the cache layer; its writes invalidate
//                cached reads, so a read-path gain that costs aborts shows.
//
// --trace 0 prints the end-to-end metrics: goodput, median commit latency
// (from the benchmark's own per-transaction samples), commit rate (committed
// share of attempts), process CPU per committed transaction, and set-up
// time. The measured window is dealt out over several fresh clusters; each
// metric is the median over its one-second slices, leaving out slices the
// hypervisor stole CPU from (set-up: the median over many set-ups).
//
// --trace 1 prints the per-layer metrics instead. It measures plain clusters
// for part of the time, then an identically configured cluster behind the
// benchmark's tracing decorator for the rest (at most kMaxTracedSlices
// seconds), and reports the blocking-path ledger, the layers' spans, deltas
// of the program's own counters, and the tracing overhead (traced goodput
// against plain).
//
// Every run checks itself and exits 1 on: a failed attempt, replicas that
// disagree on any key after draining, a DAP audit violation, a committed
// count that disagrees with the sessions' RunStats, or (traced) a ledger
// that does not add up. The last line of stdout is one JSON object.

#include <sched.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/tracing.h"
#include "src/api/system.h"
#include "src/common/dap_check.h"
#include "src/common/metrics.h"
#include "src/transport/threaded_transport.h"
#include "src/transport/udp_transport.h"
#include "src/workload/retwis.h"
#include "src/workload/ycsb_b.h"
#include "src/workload/ycsb_t.h"

namespace perfbench {
namespace {

using meerkat::ClientSession;
using meerkat::MetricsSnapshot;
using meerkat::System;
using meerkat::SystemOptions;
using meerkat::Transport;
using meerkat::TxnOutcome;
using meerkat::TxnPlan;
using meerkat::TxnResult;
using meerkat::Workload;

constexpr size_t kReplicas = 3;
constexpr size_t kCoresPerReplica = 1;
constexpr uint32_t kClients = 2;
// Set-up sampling; setup_s is the median of the samples. Set-up runs mostly
// on the calling thread, and on a shared virtualized host one CPU can run
// 1.5x slower than another for minutes, so a run samples set-up from each
// CPU in turn: after one unrecorded set-up that warms the new CPU, it records
// at least kMinSetupsPerCpu and, while its share of kSetupBudgetNs lasts, up
// to kMaxSetupsPerCpu (a 1024-key set-up takes about a millisecond).
constexpr size_t kMinSetupsPerCpu = 2;
constexpr size_t kMaxSetupsPerCpu = 16;
constexpr uint64_t kSetupBudgetNs = 2'000'000'000;
// Closed-loop traffic before each measured window: lets allocator arenas,
// metrics slabs, socket buffers and the cache reach steady state. The first
// cluster of a process also pays the process's own cold start.
constexpr uint64_t kFirstWarmupNs = 1'500'000'000;
constexpr uint64_t kWarmupNs = 500'000'000;
constexpr uint64_t kSliceNs = 1'000'000'000;
// A plain run measures its window on up to kMaxRounds fresh clusters in
// turn. On a shared virtualized host one cluster can run 10-20% faster or
// slower than the next for its whole life; the median over the slices of
// several clusters does not hinge on one of them.
constexpr size_t kMaxRounds = 5;
// On a shared virtualized host, bursts of hypervisor steal (CPU time taken by
// other guests) slow every layer at once, by up to 5x for a minute or more.
// A slice whose CPUs lost more than kMaxStealFrac of their time that way is
// left out of the medians, as long as at least a quarter of the slices are
// clean; otherwise the least-stolen quarter is used.
constexpr double kMaxStealFrac = 0.02;
// A client whose transaction has not completed this long after the window
// closed has lost a message (no retransmission in fault-free runs).
constexpr uint64_t kDrainTimeoutNs = 10'000'000'000;
// Trace buffer sizing: events per traced second per thread. The traced
// window is capped so the buffers stay in the low hundreds of MB.
constexpr size_t kEventsPerSecond = 400'000;
constexpr size_t kMaxTracedSlices = 5;
// Bulk-loaded keys carry this version (src/api/system.cc).
constexpr meerkat::Timestamp kLoadVersion{1, 0};

struct WorkloadSpec {
  const char* name;
  bool udp;
  bool cache;
  std::unique_ptr<Workload> (*make)();
};

std::unique_ptr<Workload> MakeYcsbT() {
  meerkat::YcsbTOptions o;
  o.num_keys = 100000;
  o.zipf_theta = 0.0;
  o.rmws_per_txn = 1;
  return std::make_unique<meerkat::YcsbTWorkload>(o);
}

std::unique_ptr<Workload> MakeRetwis() {
  meerkat::RetwisOptions o;
  o.num_keys = 100000;
  o.zipf_theta = 0.9;
  return std::make_unique<meerkat::RetwisWorkload>(o);
}

std::unique_ptr<Workload> MakeYcsbB() {
  meerkat::YcsbBOptions o;
  o.num_keys = 1024;
  o.zipf_theta = 0.99;
  o.ops_per_txn = 4;
  o.read_fraction = 0.95;
  return std::make_unique<meerkat::YcsbBWorkload>(o);
}

const WorkloadSpec kWorkloads[] = {
    {"ycsbt-udp", /*udp=*/true, /*cache=*/false, MakeYcsbT},
    {"retwis-zipf", /*udp=*/false, /*cache=*/false, MakeRetwis},
    {"ycsbb-cache", /*udp=*/false, /*cache=*/true, MakeYcsbB},
};

SystemOptions OptionsFor(const WorkloadSpec& spec) {
  SystemOptions o = SystemOptions()
                        .WithKind(meerkat::SystemKind::kMeerkat)
                        .WithReplicas(kReplicas)
                        .WithCores(kCoresPerReplica);
  if (spec.cache) {
    // The client-cache acceptance bench's settings.
    o.WithCache(meerkat::CacheOptions()
                    .WithEnabled(true)
                    .WithCapacity(2048)
                    .WithLease(10'000'000)
                    .WithContendedThreshold(64));
  }
  return o;
}

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Moves the calling thread onto `cpu`, then lifts the restriction again so
// that the threads it creates may run on every CPU in `allowed`.
void MoveTo(int cpu, const std::vector<int>& allowed) {
  if (cpu < 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
  CPU_ZERO(&set);
  for (int c : allowed) {
    CPU_SET(c, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

// Clock ticks the hypervisor has stolen from this machine's CPUs so far (the
// steal column of /proc/stat), or -1 where the kernel does not report it.
int64_t StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return -1;
  }
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                      &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<int64_t>(v[7]) : -1;
}

// Process CPU time (user + system, all threads): getrusage's figure, in ns.
uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

void SleepUntil(uint64_t deadline_ns) {
  uint64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank quantile of unsorted samples (reorders them).
double Quantile(std::vector<uint32_t>& v, double q) {
  if (v.empty()) {
    return 0;
  }
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = k == 0 ? 0 : k - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

// One system under test: transport, optional tracing decorator, system.
class Cluster {
 public:
  Cluster(const WorkloadSpec& spec, Workload& workload, Tracer* tracer) {
    const SystemOptions options = OptionsFor(spec);
    uint64_t t0 = NowNs();
    Transport* inner = nullptr;
    if (spec.udp) {
      udp_ = std::make_unique<meerkat::UdpTransport>();
      inner = udp_.get();
    } else {
      threaded_ = std::make_unique<meerkat::ThreadedTransport>();
      inner = threaded_.get();
    }
    // CreateSystem installs the batch governor into the transport it is
    // given. set_batch_options is not virtual, so behind the decorator the
    // inner transport would keep its own default: install it there too.
    inner->set_batch_options(options.batching);
    Transport* front = inner;
    if (tracer != nullptr) {
      tracing_ = std::make_unique<TracingTransport>(inner, tracer);
      front = tracing_.get();
    }
    system_ = meerkat::CreateSystem(options, front, &clock_);
    workload.ForEachInitialKey(
        [this](const std::string& key, const std::string& value) { system_->Load(key, value); });
    setup_s_ = static_cast<double>(NowNs() - t0) / 1e9;
  }

  ~Cluster() {
    system_.reset();
    // Stop delivery before the decorator's receiver wrappers go away.
    if (udp_ != nullptr) {
      udp_->Stop();
    } else {
      threaded_->Stop();
    }
    tracing_.reset();
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  System& system() { return *system_; }
  double setup_s() const { return setup_s_; }

  void Drain() {
    if (udp_ != nullptr) {
      udp_->DrainForTesting();
    } else {
      threaded_->DrainForTesting();
    }
  }

  std::string Steering() const {
    if (udp_ == nullptr) {
      return "in-process";
    }
    return udp_->reuseport_steering() ? "reuseport-cbpf" : "distinct-ports";
  }

 private:
  meerkat::SystemTimeSource clock_;
  std::unique_ptr<meerkat::ThreadedTransport> threaded_;
  std::unique_ptr<meerkat::UdpTransport> udp_;
  std::unique_ptr<TracingTransport> tracing_;
  std::unique_ptr<System> system_;
  double setup_s_ = 0;
};

// The measured window, split into slices.
struct Window {
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t slice_ns = 0;
  size_t slices = 0;
};

// One closed-loop client: draws the next transaction as soon as the last one
// completes. Only transactions that complete inside the window are counted.
class ClientLoop {
 public:
  struct Sample {
    uint32_t slice;
    uint32_t latency_ns;
  };

  ClientLoop(System& system, Workload& workload, uint32_t client_id, uint64_t seed,
             const Window& window, Tracer* tracer, std::atomic<uint32_t>* active)
      : session_(system.CreateSession(client_id, seed * 7919 + client_id)),
        workload_(&workload), rng_(seed * 104729 + client_id * 31), client_id_(client_id),
        window_(window), tracer_(tracer), active_(active),
        aborted_(window.slices, 0), failed_in_window_(window.slices, 0) {
    samples_.reserve(window.slices * 200'000);
  }

  ClientLoop(const ClientLoop&) = delete;
  ClientLoop& operator=(const ClientLoop&) = delete;

  void Start() { Next(LogIfRecording()); }

  ClientSession& session() { return *session_; }
  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<uint64_t>& aborted() const { return aborted_; }
  const std::vector<uint64_t>& failed_in_window() const { return failed_in_window_; }
  uint64_t total_committed() const { return total_committed_; }
  uint64_t total_aborted() const { return total_aborted_; }
  uint64_t total_failed() const { return total_failed_; }
  uint64_t tid_mismatches() const { return tid_mismatches_; }

 private:
  ThreadLog* LogIfRecording() {
    return tracer_ != nullptr && tracer_->recording() ? tracer_->Log() : nullptr;
  }

  void Next(ThreadLog* log) {
    uint64_t t0 = log != nullptr ? NowNs() : 0;
    TxnPlan plan = workload_->NextTxn(rng_);
    // The session numbers its transactions 1, 2, ... so the TxnId of this
    // one is known before it is issued.
    expected_seq_++;
    start_ns_ = NowNs();
    auto done = [this](const TxnOutcome& outcome) { OnDone(outcome); };
    if (log == nullptr) {
      session_->ExecuteAsync(std::move(plan), std::move(done));
      return;
    }
    Event next;
    next.kind = EventKind::kNextTxn;
    next.client = client_id_;
    next.seq = expected_seq_;
    next.t = t0;
    next.dur = static_cast<uint32_t>(start_ns_ - t0);
    log->child_ns += start_ns_ - t0;
    log->Append(next);
    Span span(log);
    session_->ExecuteAsync(std::move(plan), std::move(done));
    Event exec;
    exec.kind = EventKind::kExecute;
    exec.client = client_id_;
    exec.seq = expected_seq_;
    exec.t = span.start();
    exec.dur = static_cast<uint32_t>(span.End());
    log->Append(exec);
  }

  void OnDone(const TxnOutcome& outcome) {
    uint64_t now = NowNs();
    ThreadLog* log = LogIfRecording();
    if (log != nullptr) {
      Event cb;
      cb.kind = EventKind::kCallback;
      cb.client = outcome.tid.client_id;
      cb.seq = outcome.tid.seq;
      cb.t = now;
      cb.type = static_cast<uint8_t>(outcome.result);
      cb.flags = outcome.fast_path() ? Event::kFastPath : 0;
      log->Append(cb);
    }
    if (outcome.tid.client_id != client_id_ || outcome.tid.seq != expected_seq_) {
      tid_mismatches_++;
    }
    switch (outcome.result) {
      case TxnResult::kCommit:
        total_committed_++;
        break;
      case TxnResult::kAbort:
        total_aborted_++;
        break;
      case TxnResult::kFailed:
        total_failed_++;
        break;
    }
    if (now >= window_.start && now < window_.end) {
      uint32_t slice = static_cast<uint32_t>((now - window_.start) / window_.slice_ns);
      slice = std::min<uint32_t>(slice, static_cast<uint32_t>(window_.slices - 1));
      if (outcome.committed()) {
        uint64_t latency = now - start_ns_;
        samples_.push_back(
            Sample{slice, static_cast<uint32_t>(std::min<uint64_t>(latency, UINT32_MAX))});
      } else if (outcome.result == TxnResult::kAbort) {
        aborted_[slice]++;
      } else {
        failed_in_window_[slice]++;
      }
    }
    if (now >= window_.end) {
      active_->fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    if (log == nullptr) {
      Next(nullptr);
      return;
    }
    // The callback runs inside the client's reply handler; the next issue
    // nests under it so the handler's self time excludes it.
    Span span(log);
    Next(log);
    span.End();
  }

  std::unique_ptr<ClientSession> session_;
  Workload* const workload_;
  meerkat::Rng rng_;
  const uint32_t client_id_;
  const Window window_;
  Tracer* const tracer_;
  std::atomic<uint32_t>* const active_;

  uint64_t expected_seq_ = 0;
  uint64_t start_ns_ = 0;
  std::vector<Sample> samples_;
  std::vector<uint64_t> aborted_;
  std::vector<uint64_t> failed_in_window_;
  uint64_t total_committed_ = 0;
  uint64_t total_aborted_ = 0;
  uint64_t total_failed_ = 0;
  uint64_t tid_mismatches_ = 0;
};

// What one measured window yields.
struct Measurement {
  std::vector<double> goodput;      // Per slice, txn/s.
  std::vector<double> p50_us;       // Per slice.
  std::vector<double> p99_us;       // Per slice.
  std::vector<double> cpu_us_per_txn;  // Per slice.
  std::vector<double> steal_frac;      // Per slice; 0 where unknown.
  uint64_t samples = 0;
  uint64_t committed = 0;  // In the window.
  uint64_t attempted = 0;  // In the window.
  uint64_t failed = 0;     // Over the cluster's whole run.
  uint64_t attempted_all = 0;  // Over the cluster's whole run.
  uint64_t window_ns = 0;
  // The program's metrics before the clients start and after the drain. A
  // snapshot reads every thread's histograms, which is only race-free while
  // no traffic flows, so the deltas span the cluster's whole run.
  MetricsSnapshot before;
  MetricsSnapshot after;
  std::vector<std::string> errors;

  double pooled_goodput() const {
    return window_ns == 0 ? 0 : static_cast<double>(committed) * 1e9 / window_ns;
  }
};

// Runs the closed loop against `cluster` (warm-up, then `slices` slices of
// kSliceNs), then drains it and checks the outcome.
Measurement Measure(Cluster& cluster, Workload& workload, uint64_t seed, uint64_t warmup_ns,
                    size_t slices, Tracer* tracer) {
  Measurement m;
  Window w;
  w.start = NowNs() + warmup_ns;
  w.slice_ns = kSliceNs;
  w.slices = slices;
  w.end = w.start + slices * kSliceNs;
  m.window_ns = w.end - w.start;

  m.before = meerkat::SnapshotMetrics(false);
  std::atomic<uint32_t> active{kClients};
  std::vector<std::unique_ptr<ClientLoop>> loops;
  for (uint32_t c = 1; c <= kClients; c++) {
    loops.push_back(std::make_unique<ClientLoop>(cluster.system(), workload, c, seed, w, tracer,
                                                 &active));
  }
  for (auto& loop : loops) {
    loop->Start();
  }
  std::vector<uint64_t> cpu(slices + 1, 0);
  std::vector<int64_t> steal(slices + 1, -1);
  SleepUntil(w.start);
  if (tracer != nullptr) {
    tracer->SetRecording(true);
  }
  cpu[0] = ProcessCpuNs();
  steal[0] = StealTicks();
  for (size_t k = 1; k <= slices; k++) {
    SleepUntil(w.start + k * kSliceNs);
    cpu[k] = ProcessCpuNs();
    steal[k] = StealTicks();
  }
  if (tracer != nullptr) {
    tracer->SetRecording(false);
  }

  uint64_t deadline = NowNs() + kDrainTimeoutNs;
  while (active.load(std::memory_order_acquire) != 0 && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (active.load(std::memory_order_acquire) != 0) {
    // A session with a transaction still in flight cannot be torn down
    // safely; report and leave without unwinding.
    std::printf("{\"error\": \"a client transaction never completed (lost message)\"}\n");
    std::fflush(stdout);
    std::_Exit(1);
  }
  cluster.Drain();
  m.after = meerkat::SnapshotMetrics(false);

  // --- Per-slice end-to-end figures ---
  const double ticks_per_slice = static_cast<double>(kSliceNs) / 1e9 *
                                 static_cast<double>(sysconf(_SC_CLK_TCK)) *
                                 static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  std::vector<std::vector<uint32_t>> latencies(slices);
  std::vector<uint64_t> commits(slices, 0), attempts(slices, 0);
  uint64_t loop_committed = 0, loop_aborted = 0, loop_failed = 0, mismatches = 0;
  uint64_t stats_committed = 0, stats_aborted = 0, stats_failed = 0;
  for (auto& loop : loops) {
    for (const auto& s : loop->samples()) {
      latencies[s.slice].push_back(s.latency_ns);
      commits[s.slice]++;
      attempts[s.slice]++;
    }
    for (size_t k = 0; k < slices; k++) {
      attempts[k] += loop->aborted()[k] + loop->failed_in_window()[k];
    }
    loop_committed += loop->total_committed();
    loop_aborted += loop->total_aborted();
    loop_failed += loop->total_failed();
    mismatches += loop->tid_mismatches();
    const meerkat::RunStats& stats = loop->session().stats();
    stats_committed += stats.committed;
    stats_aborted += stats.aborted;
    stats_failed += stats.failed;
  }
  for (size_t k = 0; k < slices; k++) {
    m.committed += commits[k];
    m.attempted += attempts[k];
    m.samples += latencies[k].size();
    m.goodput.push_back(static_cast<double>(commits[k]) * 1e9 / static_cast<double>(kSliceNs));
    m.p50_us.push_back(Quantile(latencies[k], 0.50) / 1e3);
    m.p99_us.push_back(Quantile(latencies[k], 0.99) / 1e3);
    m.steal_frac.push_back(steal[k] < 0 || steal[k + 1] < 0
                               ? 0
                               : static_cast<double>(steal[k + 1] - steal[k]) / ticks_per_slice);
    m.cpu_us_per_txn.push_back(commits[k] == 0 ? 0
                                               : static_cast<double>(cpu[k + 1] - cpu[k]) / 1e3 /
                                                     static_cast<double>(commits[k]));
  }
  m.failed = loop_failed;
  m.attempted_all = loop_committed + loop_aborted + loop_failed;

  // --- Self-checks ---
  if (loop_failed != 0) {
    m.errors.push_back(std::to_string(loop_failed) + " failed attempts in a fault-free run");
  }
  if (loop_committed != stats_committed || loop_aborted != stats_aborted ||
      loop_failed != stats_failed) {
    m.errors.push_back("benchmark counted " + std::to_string(loop_committed) + "/" +
                       std::to_string(loop_aborted) + "/" + std::to_string(loop_failed) +
                       " commit/abort/fail, sessions' RunStats " +
                       std::to_string(stats_committed) + "/" + std::to_string(stats_aborted) +
                       "/" + std::to_string(stats_failed));
  }
  if (mismatches != 0) {
    m.errors.push_back(std::to_string(mismatches) + " outcomes carried an unexpected TxnId");
  }
  if (m.committed == 0) {
    m.errors.push_back("no transaction committed inside the window");
  }
  // Every key the workloads write is one of the loaded keys.
  uint64_t divergent = 0, written = 0;
  System& system = cluster.system();
  workload.ForEachInitialKey([&](const std::string& key, const std::string&) {
    meerkat::ReadResult r0 = system.ReadAtReplica(0, key);
    if (r0.wts != kLoadVersion) {
      written++;
    }
    for (meerkat::ReplicaId r = 1; r < kReplicas; r++) {
      meerkat::ReadResult rr = system.ReadAtReplica(r, key);
      if (rr.found != r0.found || rr.value != r0.value || rr.wts != r0.wts) {
        divergent++;
        break;
      }
    }
  });
  if (divergent != 0) {
    m.errors.push_back(std::to_string(divergent) + " keys differ across replicas after drain");
  }
  if (written == 0) {
    m.errors.push_back("no key was written");
  }
  uint64_t violations = meerkat::DapAudit::violations();
  if (violations != 0) {
    m.errors.push_back(std::to_string(violations) + " DAP audit violations");
  }
  return m;
}

// --- Output ---

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.15g", v);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void PrintErrors(const std::vector<std::string>& errors) {
  for (const auto& e : errors) {
    std::printf("{\"check_failed\": \"%s\"}\n", JsonEscape(e).c_str());
  }
}

void PrintHost(const WorkloadSpec& spec, uint64_t seed, int seconds, bool trace,
               const std::string& steering) {
  utsname u{};
  uname(&u);
  cpu_set_t set;
  CPU_ZERO(&set);
  int nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                  ? CPU_COUNT(&set)
                  : static_cast<int>(std::thread::hardware_concurrency());
  std::printf(
      "{\"host\": {\"nproc\": %d, \"kernel\": \"%s\", \"build_type\": \"%s\", "
      "\"MEERKAT_DAP_CHECK\": %d, \"MEERKAT_TRACE\": %d, \"udp_steering\": \"%s\"}, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, \"trace\": %d, "
      "\"replicas\": %zu, \"cores_per_replica\": %zu, \"clients\": %u}\n",
      nproc, JsonEscape(u.release).c_str(), PERFBENCH_BUILD_TYPE, MEERKAT_DAP_CHECK,
      MEERKAT_TRACE, steering.c_str(), spec.name, static_cast<unsigned long long>(seed), seconds,
      trace ? 1 : 0, kReplicas, kCoresPerReplica, kClients);
}

// --- Program counters over a cluster's run ---

double CounterDelta(const Measurement& m, const char* name) {
  return static_cast<double>(m.after.CounterValue(name) - m.before.CounterValue(name));
}

double HistogramMeanDelta(const Measurement& m, const char* name) {
  auto a = m.after.histograms.find(name);
  if (a == m.after.histograms.end()) {
    return 0;
  }
  double count_after = static_cast<double>(a->second.Count());
  double sum_after = a->second.MeanNanos() * count_after;
  double count_before = 0, sum_before = 0;
  auto b = m.before.histograms.find(name);
  if (b != m.before.histograms.end()) {
    count_before = static_cast<double>(b->second.Count());
    sum_before = b->second.MeanNanos() * count_before;
  }
  double n = count_after - count_before;
  return n <= 0 ? 0 : (sum_after - sum_before) / n;
}

void AddProgramCounters(const Measurement& m, std::vector<Metric>* out) {
  double attempts = std::max<double>(1, static_cast<double>(m.attempted_all));
  auto per_attempt = [&](const char* name) { return CounterDelta(m, name) / attempts; };
  // transport
  out->push_back({"udp.send_eagain_stalls", CounterDelta(m, "udp.send_eagain_stalls"), "count"});
  double drops = 0;
  for (const char* d : {"udp.injected_drops", "udp.malformed_drops", "udp.missteered_drops",
                        "udp.no_receiver_drops", "udp.oversized_drops", "udp.truncated_drops",
                        "udp.unroutable_drops"}) {
    drops += CounterDelta(m, d);
  }
  out->push_back({"udp.drops", drops, "count"});
  out->push_back({"udp.datagrams_per_txn", per_attempt("udp.sent_datagrams"), "count"});
  out->push_back(
      {"batch.wire_frame_width", HistogramMeanDelta(m, "batch.wire_frame_width"), "msgs"});
  out->push_back(
      {"transport.drain_batch_size", HistogramMeanDelta(m, "transport.drain_batch_size"),
       "msgs"});
  // replica
  out->push_back({"batch.dispatch_width", HistogramMeanDelta(m, "batch.dispatch_width"), "msgs"});
  out->push_back({"batch.validate_sweep_width",
                  HistogramMeanDelta(m, "batch.validate_sweep_width"), "msgs"});
  out->push_back({"overload.shed_validates", CounterDelta(m, "overload.shed_validates"), "count"});
  out->push_back({"gc.trim_passes", CounterDelta(m, "gc.trim_passes"), "count"});
  out->push_back({"trecord.live_records",
                  static_cast<double>(m.after.GaugeValue("trecord.live_records") -
                                      m.before.GaugeValue("trecord.live_records")),
                  "count"});
  // store
  for (const char* name : {"occ.validate_ok", "occ.abort_stale_read", "occ.abort_pending_writer",
                           "occ.abort_read_protect", "coord.fast_path_decisions",
                           "coord.slow_path_decisions", "coord.retransmits"}) {
    out->push_back({name, per_attempt(name), "per_txn"});
  }
  // client cache
  double hits = CounterDelta(m, "cache.hit");
  double misses = CounterDelta(m, "cache.miss");
  out->push_back({"cache.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0, "frac"});
  out->push_back({"cache.invalidated", per_attempt("cache.invalidated"), "per_txn"});
  out->push_back({"cache.abort_evictions", per_attempt("cache.abort_evictions"), "per_txn"});
}

// --- Modes ---

// The end-to-end figures of several measured clusters, pooled.
struct Pooled {
  std::vector<double> goodput, p50_us, p99_us, cpu_us_per_txn, steal_frac, setup_s;
  uint64_t samples = 0, committed = 0, attempted = 0, failed = 0;
  std::vector<std::string> errors;

  void Add(const Measurement& m) {
    goodput.insert(goodput.end(), m.goodput.begin(), m.goodput.end());
    p50_us.insert(p50_us.end(), m.p50_us.begin(), m.p50_us.end());
    p99_us.insert(p99_us.end(), m.p99_us.begin(), m.p99_us.end());
    cpu_us_per_txn.insert(cpu_us_per_txn.end(), m.cpu_us_per_txn.begin(),
                          m.cpu_us_per_txn.end());
    steal_frac.insert(steal_frac.end(), m.steal_frac.begin(), m.steal_frac.end());
    samples += m.samples;
    committed += m.committed;
    attempted += m.attempted;
    failed += m.failed;
    errors.insert(errors.end(), m.errors.begin(), m.errors.end());
  }

  double commit_rate() const {
    return attempted == 0 ? 0 : static_cast<double>(committed) / static_cast<double>(attempted);
  }

  // The slices the medians use (see kMaxStealFrac).
  std::vector<size_t> CleanSlices() const {
    std::vector<size_t> order(steal_frac.size());
    for (size_t i = 0; i < order.size(); i++) {
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [this](size_t a, size_t b) { return steal_frac[a] < steal_frac[b]; });
    size_t keep = (order.size() + 3) / 4;
    while (keep < order.size() && steal_frac[order[keep]] <= kMaxStealFrac) {
      keep++;
    }
    order.resize(keep);
    return order;
  }

  // Median of per-slice `values` over the clean slices.
  double CleanMedian(const std::vector<double>& values) const {
    std::vector<double> picked;
    for (size_t i : CleanSlices()) {
      picked.push_back(values[i]);
    }
    return Median(picked);
  }
};

// Measures `slices` slices dealt out over up to kMaxRounds fresh plain
// clusters; `first` (already set up) serves the first round.
void MeasureRounds(const WorkloadSpec& spec, Workload& workload, uint64_t seed, size_t slices,
                   std::unique_ptr<Cluster> first, Pooled* out) {
  size_t rounds = std::clamp<size_t>(slices / 2, 1, kMaxRounds);
  std::unique_ptr<Cluster> cluster = std::move(first);
  for (size_t r = 0; r < rounds; r++) {
    if (cluster == nullptr) {
      cluster = std::make_unique<Cluster>(spec, workload, nullptr);
      out->setup_s.push_back(cluster->setup_s());
    }
    size_t round_slices = slices / rounds + (r < slices % rounds ? 1 : 0);
    Measurement m = Measure(*cluster, workload, seed * kMaxRounds + r,
                            r == 0 ? kFirstWarmupNs : kWarmupNs, round_slices, nullptr);
    cluster.reset();
    out->Add(m);
    std::printf("{\"round\": %zu, \"slices\": %zu, \"goodput_tps\": %.1f, \"p50_us\": %.3f}\n",
                r, round_slices, m.pooled_goodput(), Median(m.p50_us));
  }
}

// Samples set-up from each allowed CPU in turn (see kMinSetupsPerCpu) and
// returns the last cluster set up.
std::unique_ptr<Cluster> SampleSetups(const WorkloadSpec& spec, Workload& workload,
                                      std::vector<double>* setup_s) {
  std::vector<int> cpus = AllowedCpus();
  if (cpus.empty()) {
    cpus.push_back(-1);  // Affinity unknown: sample from wherever we run.
  }
  std::unique_ptr<Cluster> cluster;
  for (int cpu : cpus) {
    MoveTo(cpu, cpus);
    cluster.reset();
    cluster = std::make_unique<Cluster>(spec, workload, nullptr);  // Warms this CPU.
    uint64_t start = NowNs();
    for (size_t n = 0; n < kMinSetupsPerCpu ||
                       (n < kMaxSetupsPerCpu && NowNs() - start < kSetupBudgetNs / cpus.size());
         n++) {
      cluster.reset();
      cluster = std::make_unique<Cluster>(spec, workload, nullptr);
      setup_s->push_back(cluster->setup_s());
    }
  }
  return cluster;
}

int RunPlain(const WorkloadSpec& spec, uint64_t seed, int seconds) {
  std::unique_ptr<Workload> workload = spec.make();
  Pooled pooled;
  std::unique_ptr<Cluster> cluster = SampleSetups(spec, *workload, &pooled.setup_s);
  PrintHost(spec, seed, seconds, false, cluster->Steering());
  MeasureRounds(spec, *workload, seed, static_cast<size_t>(seconds), std::move(cluster), &pooled);

  const std::vector<double>& setups = pooled.setup_s;
  // p99 is printed here, not bounded: on a shared host, a burst of
  // hypervisor steal lasting a whole run lifts it 4-40x in some runs while
  // the medians move far less (it is a per-layer metric of the traced run).
  std::printf("{\"latency_samples\": %llu, \"p99_us\": %.3f, \"committed\": %llu, "
              "\"attempted\": %llu, \"clean_slices\": %zu, \"slices\": %zu, "
              "\"steal_frac_max\": %.4f, \"setups\": %zu, \"setup_min_s\": %.6f, "
              "\"setup_max_s\": %.6f}\n",
              static_cast<unsigned long long>(pooled.samples),
              pooled.CleanMedian(pooled.p99_us),
              static_cast<unsigned long long>(pooled.committed),
              static_cast<unsigned long long>(pooled.attempted), pooled.CleanSlices().size(),
              pooled.steal_frac.size(),
              *std::max_element(pooled.steal_frac.begin(), pooled.steal_frac.end()),
              setups.size(),
              *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));
  PrintErrors(pooled.errors);
  std::vector<Metric> metrics = {
      {"goodput_tps", pooled.CleanMedian(pooled.goodput), "1/s"},
      {"p50_us", pooled.CleanMedian(pooled.p50_us), "us"},
      {"commit_rate", pooled.commit_rate(), "frac"},
      {"cpu_us_per_txn", pooled.CleanMedian(pooled.cpu_us_per_txn), "us"},
      {"setup_s", Median(setups), "s"},
  };
  bool correct = pooled.errors.empty();
  PrintResult(correct, pooled.attempted, pooled.failed, metrics);
  return correct ? 0 : 1;
}

int RunTraced(const WorkloadSpec& spec, uint64_t seed, int seconds) {
  std::unique_ptr<Workload> workload = spec.make();
  // Up to half the time (at most kMaxTracedSlices) on a traced cluster, the
  // rest on plain ones for the overhead comparison.
  size_t traced_slices =
      std::clamp<size_t>(static_cast<size_t>(seconds) / 2, 1, kMaxTracedSlices);
  size_t plain_slices = std::max<size_t>(1, static_cast<size_t>(seconds) - traced_slices);

  Pooled plain;
  auto first = std::make_unique<Cluster>(spec, *workload, nullptr);
  PrintHost(spec, seed, seconds, true, first->Steering());
  MeasureRounds(spec, *workload, seed, plain_slices, std::move(first), &plain);

  Tracer tracer(traced_slices * kEventsPerSecond);
  std::vector<Metric> metrics;
  Measurement traced;
  TraceReport report;
  {
    Cluster cluster(spec, *workload, &tracer);
    traced = Measure(cluster, *workload, seed * kMaxRounds + kMaxRounds, kWarmupNs,
                     traced_slices, &tracer);
    report = AnalyzeTrace(tracer.TakeLogs(), traced.window_ns, kReplicas);
    AddProgramCounters(traced, &metrics);
  }
  metrics.insert(metrics.end(), report.metrics.begin(), report.metrics.end());
  double plain_tps = plain.CleanMedian(plain.goodput);
  double traced_tps = Median(traced.goodput);
  metrics.push_back({"txn.p99_us", plain.CleanMedian(plain.p99_us), "us"});
  metrics.push_back({"txn.latency_samples", static_cast<double>(plain.samples), "count"});
  metrics.push_back({"trace.plain_goodput_tps", plain_tps, "1/s"});
  metrics.push_back({"trace.goodput_tps", traced_tps, "1/s"});
  metrics.push_back(
      {"trace.overhead_frac", plain_tps > 0 ? 1 - traced_tps / plain_tps : 0, "frac"});

  std::vector<std::string> errors = plain.errors;
  errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
  errors.insert(errors.end(), report.errors.begin(), report.errors.end());
  PrintErrors(errors);
  PrintResult(errors.empty(), plain.attempted + traced.attempted, plain.failed + traced.failed,
              metrics);
  return errors.empty() ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atoi(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || seconds < 1 || seconds > 600 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <name> --seed <n> --seconds <1..600> "
                 "--trace <0|1>\n");
    return 2;
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (workload_name == spec.name) {
      return trace != 0 ? RunTraced(spec, seed, seconds) : RunPlain(spec, seed, seconds);
    }
  }
  std::fprintf(stderr, "unknown workload '%s' (ycsbt-udp, retwis-zipf, ycsbb-cache)\n",
               workload_name.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
