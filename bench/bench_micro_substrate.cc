// Substrate micro-benchmarks (google-benchmark): physical costs of the
// building blocks on the host machine. Not a paper figure — these exist to
// sanity-check the simulator's cost-model constants and catch substrate
// regressions.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/zipf.h"
#include "src/sim/simulator.h"
#include "src/store/occ.h"
#include "src/store/trecord.h"
#include "src/store/vstore.h"
#include "src/transport/channel.h"
#include "src/transport/message.h"
#include "src/workload/retwis.h"
#include "src/workload/ycsb_t.h"

namespace meerkat {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

void BM_ZipfNext(benchmark::State& state) {
  Rng rng(42);
  ZipfGenerator zipf(1'000'000, static_cast<double>(state.range(0)) / 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
}
BENCHMARK(BM_ZipfNext)->Arg(0)->Arg(60)->Arg(99);

void BM_VStoreRead(benchmark::State& state) {
  VStore store;
  Rng rng(42);
  for (uint64_t i = 0; i < 10000; i++) {
    store.LoadKey(FormatKey(i, 24), "value", Timestamp{1, 0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Read(FormatKey(rng.NextBounded(10000), 24)));
  }
}
BENCHMARK(BM_VStoreRead);

// Pre-fast-path read design, kept as a baseline: a structural spinlock guards
// the shard's hash map, and the read itself takes the per-key lock to copy
// value+wts out. This is exactly what VStore::Read did before the seqlock
// mirror; the MT benchmarks below quantify the win of removing both locks
// from the steady-state read path.
class MutexShardedStore {
 public:
  explicit MutexShardedStore(size_t num_shards = 64) : shards_(num_shards) {}

  void Load(const std::string& key, std::string value, Timestamp wts) {
    Shard& shard = ShardFor(key);
    std::lock_guard<KeyLock> structural(shard.lock);
    auto& slot = shard.map[key];
    if (slot == nullptr) {
      slot = std::make_unique<Entry>();
    }
    slot->value = std::move(value);
    slot->wts = wts;
  }

  ReadResult Read(const std::string& key) {
    Shard& shard = ShardFor(key);
    Entry* entry = nullptr;
    {
      std::lock_guard<KeyLock> structural(shard.lock);
      auto it = shard.map.find(key);
      if (it == shard.map.end()) {
        return ReadResult{};
      }
      entry = it->second.get();
    }
    ReadResult result;
    std::lock_guard<KeyLock> key_lock(entry->lock);
    result.found = true;
    result.value = entry->value;
    result.wts = entry->wts;
    return result;
  }

 private:
  struct Entry {
    KeyLock lock;
    std::string value;
    Timestamp wts;
  };
  struct Shard {
    KeyLock lock;
    std::unordered_map<std::string, std::unique_ptr<Entry>> map;
  };

  Shard& ShardFor(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  std::vector<Shard> shards_;
};

constexpr uint64_t kMtKeys = 10000;

// Acceptance benchmark pair: single hot key read from N threads. The seqlock
// store must beat the mutex baseline by >= 2x at 8 threads — with the old
// design every reader serializes on the same per-key lock cache line.
void BM_VStoreReadMT_HotKey(benchmark::State& state) {
  static VStore* store = [] {
    auto* s = new VStore();
    for (uint64_t i = 0; i < kMtKeys; i++) {
      s->LoadKey(FormatKey(i, 24), "value-for-hot-key-bench", Timestamp{1, 0});
    }
    return s;
  }();
  const std::string hot = FormatKey(0, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Read(hot));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VStoreReadMT_HotKey)->Threads(1)->Threads(8)->UseRealTime();

void BM_MutexStoreReadMT_HotKey(benchmark::State& state) {
  static MutexShardedStore* store = [] {
    auto* s = new MutexShardedStore();
    for (uint64_t i = 0; i < kMtKeys; i++) {
      s->Load(FormatKey(i, 24), "value-for-hot-key-bench", Timestamp{1, 0});
    }
    return s;
  }();
  const std::string hot = FormatKey(0, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Read(hot));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexStoreReadMT_HotKey)->Threads(1)->Threads(8)->UseRealTime();

void BM_VStoreReadMT_Uniform(benchmark::State& state) {
  static VStore* store = [] {
    auto* s = new VStore();
    for (uint64_t i = 0; i < kMtKeys; i++) {
      s->LoadKey(FormatKey(i, 24), "value", Timestamp{1, 0});
    }
    return s;
  }();
  Rng rng(static_cast<uint64_t>(state.thread_index()) * 977 + 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Read(FormatKey(rng.NextBounded(kMtKeys), 24)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VStoreReadMT_Uniform)->Threads(1)->Threads(8)->UseRealTime();

void BM_MutexStoreReadMT_Uniform(benchmark::State& state) {
  static MutexShardedStore* store = [] {
    auto* s = new MutexShardedStore();
    for (uint64_t i = 0; i < kMtKeys; i++) {
      s->Load(FormatKey(i, 24), "value", Timestamp{1, 0});
    }
    return s;
  }();
  Rng rng(static_cast<uint64_t>(state.thread_index()) * 977 + 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Read(FormatKey(rng.NextBounded(kMtKeys), 24)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexStoreReadMT_Uniform)->Threads(1)->Threads(8)->UseRealTime();

// Version-only probe vs full read: what OCC validation actually pays per
// read-set entry after the ReadVersion change.
void BM_VStoreReadVersion(benchmark::State& state) {
  VStore store;
  Rng rng(42);
  for (uint64_t i = 0; i < kMtKeys; i++) {
    store.LoadKey(FormatKey(i, 24), "value", Timestamp{1, 0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.ReadVersion(FormatKey(rng.NextBounded(kMtKeys), 24)));
  }
}
BENCHMARK(BM_VStoreReadVersion);

void BM_OccValidateCommit(benchmark::State& state) {
  VStore store;
  for (uint64_t i = 0; i < 10000; i++) {
    store.LoadKey(FormatKey(i, 24), "value", Timestamp{1, 0});
  }
  Rng rng(42);
  uint64_t t = 2;
  for (auto _ : state) {
    std::string key = FormatKey(rng.NextBounded(10000), 24);
    // Version-only probe: OCC validation never needs the value bytes.
    Timestamp read_wts = store.ReadVersion(key).wts;
    std::vector<ReadSetEntry> reads{{key, read_wts}};
    std::vector<WriteSetEntry> writes{{key, "new"}};
    Timestamp ts{t++, 1};
    if (OccValidate(store, reads, writes, ts) == TxnStatus::kValidatedOk) {
      OccCommit(store, reads, writes, ts);
    } else {
      OccCleanup(store, reads, writes, ts);
    }
  }
}
BENCHMARK(BM_OccValidateCommit);

// One record's whole life: created, stamped (queued under its ts),
// finalized, and trimmed by the next step once the watermark passes it.
void BM_TRecordLifecycle(benchmark::State& state) {
  TRecord trecord(4);
  uint64_t seq = 0;
  for (auto _ : state) {
    TxnId tid{1, ++seq};
    TRecordPartition& part = trecord.Partition(static_cast<CoreId>(seq % 4));
    TxnRecord& rec = part.GetOrCreate(tid);
    part.SetTs(rec, Timestamp{seq, 1});
    rec.status = TxnStatus::kCommitted;
    part.TrimBelow(Timestamp{seq + 1, 0});
  }
}
BENCHMARK(BM_TRecordLifecycle);

void BM_ChannelPushPop(benchmark::State& state) {
  Channel<int> channel;
  std::vector<int> batch;
  for (auto _ : state) {
    channel.Push(1);
    benchmark::DoNotOptimize(channel.PopAll(batch));
  }
}
BENCHMARK(BM_ChannelPushPop);

// Drain cost comparison: 256 messages taken one PopAll per message (one lock
// round-trip each) vs one PopAll (single lock round-trip for the whole
// backlog). The pushes are identical in both, so the delta is the drain
// machinery — this is what each threaded endpoint's drain pays.
void BM_ChannelDrainSingle(benchmark::State& state) {
  Channel<int> channel;
  std::vector<int> batch;
  for (auto _ : state) {
    for (int i = 0; i < 256; i++) {
      channel.Push(i);
      channel.PopAll(batch);
      benchmark::DoNotOptimize(batch.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ChannelDrainSingle);

void BM_ChannelDrainBatch(benchmark::State& state) {
  Channel<int> channel;
  std::vector<int> batch;
  for (auto _ : state) {
    for (int i = 0; i < 256; i++) {
      channel.Push(i);
    }
    channel.PopAll(batch);
    benchmark::DoNotOptimize(batch.data());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ChannelDrainBatch);

// Validate fan-out payload cost: building the per-replica ValidateRequest for
// a 3-replica quorum, sharing one immutable TxnSets vs deep-copying the
// read/write sets into every message (the pre-fast-path behavior).
std::vector<ReadSetEntry> FanoutReads() {
  std::vector<ReadSetEntry> reads;
  for (uint64_t i = 0; i < 8; i++) {
    reads.push_back({FormatKey(i, 24), Timestamp{1, 0}});
  }
  return reads;
}

std::vector<WriteSetEntry> FanoutWrites() {
  std::vector<WriteSetEntry> writes;
  for (uint64_t i = 0; i < 8; i++) {
    writes.push_back({FormatKey(i, 24), std::string(24, 'v')});
  }
  return writes;
}

void BM_ValidateFanoutShared(benchmark::State& state) {
  const std::vector<ReadSetEntry> reads = FanoutReads();
  const std::vector<WriteSetEntry> writes = FanoutWrites();
  for (auto _ : state) {
    TxnSetsPtr sets = MakeTxnSets(reads, writes);  // One copy total.
    for (int r = 0; r < 3; r++) {
      ValidateRequest req{TxnId{1, 1}, Timestamp{2, 1}, sets};
      benchmark::DoNotOptimize(req);
    }
  }
}
BENCHMARK(BM_ValidateFanoutShared);

void BM_ValidateFanoutCopied(benchmark::State& state) {
  const std::vector<ReadSetEntry> reads = FanoutReads();
  const std::vector<WriteSetEntry> writes = FanoutWrites();
  for (auto _ : state) {
    for (int r = 0; r < 3; r++) {
      // Vector ctor deep-copies both sets per replica, as SendValidates did
      // before payload sharing.
      ValidateRequest req{TxnId{1, 1}, Timestamp{2, 1}, reads, writes};
      benchmark::DoNotOptimize(req);
    }
  }
}
BENCHMARK(BM_ValidateFanoutCopied);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  CostModel cost;
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim(cost);
    SimActor actor;
    state.ResumeTiming();
    for (int i = 0; i < 10000; i++) {
      sim.Schedule(static_cast<uint64_t>(i), &actor, [](SimContext& ctx) { ctx.Charge(10); });
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_RetwisGenerate(benchmark::State& state) {
  RetwisOptions options;
  options.num_keys = 100000;
  options.zipf_theta = 0.6;
  RetwisWorkload workload(options);
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.NextTxn(rng));
  }
}
BENCHMARK(BM_RetwisGenerate);

void BM_LatencyHistogramRecord(benchmark::State& state) {
  LatencyHistogram hist;
  Rng rng(42);
  for (auto _ : state) {
    hist.Record(rng.NextBounded(10'000'000));
  }
}
BENCHMARK(BM_LatencyHistogramRecord);

// Console output plus collection for the shared BENCH_*.json export. Times
// come out in the benchmark's time unit (ns for everything in this file).
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCollectingReporter(BenchJsonWriter* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) {
        continue;
      }
      std::vector<std::pair<std::string, double>> fields;
      fields.emplace_back("real_time_ns", run.GetAdjustedRealTime());
      fields.emplace_back("cpu_time_ns", run.GetAdjustedCPUTime());
      fields.emplace_back("iterations", static_cast<double>(run.iterations));
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        fields.emplace_back("items_per_second", items->second.value);
      }
      json_->Add(run.benchmark_name(), fields);
    }
  }

 private:
  BenchJsonWriter* json_;
};

}  // namespace
}  // namespace meerkat

// Custom main instead of BENCHMARK_MAIN(): the harness-wide --quick / --out=
// flags are stripped before benchmark::Initialize sees the argument list
// (google-benchmark rejects unknown flags), --quick mapping to a short
// --benchmark_min_time so CI smoke runs finish fast.
int main(int argc, char** argv) {
  using namespace meerkat;

  bool quick = false;
  std::string out_path = "BENCH_micro_substrate.json";
  std::vector<char*> bench_args;
  bench_args.push_back(argv[0]);
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
      if (out_path.empty()) {
        fprintf(stderr, "--out= requires a path\n");
        return 2;
      }
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  static std::string min_time_flag = "--benchmark_min_time=0.01";
  if (quick) {
    bench_args.push_back(min_time_flag.data());
  }

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }

  BenchJsonWriter json("micro_substrate");
  JsonCollectingReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return json.Finish(out_path) ? 0 : 1;
}
