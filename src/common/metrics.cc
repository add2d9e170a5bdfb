#include "src/common/metrics.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/annotations.h"
#include "src/sim/sim_context.h"

namespace meerkat {
namespace {

// One thread's recording area. Counters/gauges are flat arrays indexed by
// MetricId; histogram bucket arrays are allocated on first record (under the
// registry mutex — see MetricRecordValue) so slab construction stays cheap
// enough to run at thread start without perturbing scheduling. Only the
// owning thread writes. Counter/gauge words, and every word of a
// LatencyHistogram, are relaxed atomics so a snapshot may read them
// mid-record without a data race: with a single writer the record path is a
// relaxed load+add+store (no RMW, no fence, no shared cache line — same
// machine code as a plain add on x86). A snapshot racing a recorder is torn
// across words and exact at quiescent points.
struct MetricsSlab {
  std::array<std::atomic<uint64_t>, MetricsRegistry::kMaxCounters> counters{};
  std::array<std::atomic<int64_t>, MetricsRegistry::kMaxGauges> gauges{};
  std::vector<LatencyHistogram> histograms;

  MetricsSlab() : histograms(MetricsRegistry::kMaxHistograms) {}
};

// Name table + slab registry. The mutex guards registration and snapshot
// only — never the per-record fast path.
struct MetricsState {
  Mutex mu;
  std::vector<std::string> counter_names GUARDED_BY(mu);
  std::vector<std::string> gauge_names GUARDED_BY(mu);
  std::vector<std::string> histogram_names GUARDED_BY(mu);
  std::vector<std::shared_ptr<MetricsSlab>> slabs GUARDED_BY(mu);
};

MetricsState& State() {
  // zcp-analyzer: allow(ZCPA002) one-time process-lifetime registry init
  static MetricsState* state = new MetricsState();  // Never destroyed.
  return *state;
}

MetricsSlab& LocalSlab() {
  thread_local std::shared_ptr<MetricsSlab> slab = [] {
    auto p = std::make_shared<MetricsSlab>();
    MetricsState& s = State();
    MutexLock lock(s.mu);
    s.slabs.push_back(p);
    return p;
  }();
  return *slab;
}

// Caller holds State().mu (expressed structurally: every caller passes a
// member of the locked MetricsState by reference).
MetricId RegisterIn(std::vector<std::string>& names, const std::string& name, size_t capacity) {
  for (size_t i = 0; i < names.size(); i++) {
    if (names[i] == name) {
      return MetricId{static_cast<uint16_t>(i)};
    }
  }
  if (names.size() >= capacity) {
    fprintf(stderr, "metrics: registry full, dropping \"%s\"\n", name.c_str());
    return MetricId{};
  }
  names.push_back(name);
  return MetricId{static_cast<uint16_t>(names.size() - 1)};
}

}  // namespace

MetricId MetricsRegistry::Counter(const std::string& name) {
  MetricsState& s = State();
  MutexLock lock(s.mu);
  return RegisterIn(s.counter_names, name, kMaxCounters);
}

MetricId MetricsRegistry::Gauge(const std::string& name) {
  MetricsState& s = State();
  MutexLock lock(s.mu);
  return RegisterIn(s.gauge_names, name, kMaxGauges);
}

MetricId MetricsRegistry::Histogram(const std::string& name) {
  MetricsState& s = State();
  MutexLock lock(s.mu);
  return RegisterIn(s.histogram_names, name, kMaxHistograms);
}

void MetricIncr(MetricId id, uint64_t delta) {
  if (id.valid()) {
    std::atomic<uint64_t>& word = LocalSlab().counters[id.index];
    word.store(word.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  }
}

void MetricGaugeAdd(MetricId id, int64_t delta) {
  if (id.valid()) {
    std::atomic<int64_t>& word = LocalSlab().gauges[id.index];
    word.store(word.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  }
}

void MetricRecordValue(MetricId id, uint64_t value) {
  if (id.valid()) {
    LatencyHistogram& h = LocalSlab().histograms[id.index];
    if (!h.has_buckets()) {
      // One-time per (thread, histogram): allocate the bucket array under the
      // registry mutex so the resize cannot race a snapshot's Merge. Keeping
      // the allocation out of slab construction keeps thread start cheap
      // (histogram slabs would otherwise be 256 KB of memset per thread).
      MutexLock lock(State().mu);  // zcp-analyzer: allow(ZCPA001) one-time per (thread, histogram)
      h.EnsureBuckets();
    }
    h.Record(value);
  }
}

void WarmupMetricsForThisThread() { LocalSlab(); }

MetricsSnapshot SnapshotMetrics(bool) {
  MetricsSnapshot snap;
  MetricsState& s = State();
  {
    MutexLock lock(s.mu);
    for (size_t i = 0; i < s.counter_names.size(); i++) {
      uint64_t total = 0;
      for (const auto& slab : s.slabs) {
        total += slab->counters[i].load(std::memory_order_relaxed);
      }
      snap.counters[s.counter_names[i]] = total;
    }
    for (size_t i = 0; i < s.gauge_names.size(); i++) {
      int64_t total = 0;
      for (const auto& slab : s.slabs) {
        total += slab->gauges[i].load(std::memory_order_relaxed);
      }
      snap.gauges[s.gauge_names[i]] = total;
    }
    for (size_t i = 0; i < s.histogram_names.size(); i++) {
      LatencyHistogram merged;
      for (const auto& slab : s.slabs) {
        merged.Merge(slab->histograms[i]);
      }
      snap.histograms[s.histogram_names[i]] = merged;
    }
  }
  return snap;
}

void ResetMetrics() {
  MetricsState& s = State();
  MutexLock lock(s.mu);
  for (const auto& slab : s.slabs) {
    for (auto& word : slab->counters) {
      word.store(0, std::memory_order_relaxed);
    }
    for (auto& word : slab->gauges) {
      word.store(0, std::memory_order_relaxed);
    }
    for (LatencyHistogram& h : slab->histograms) {
      h.Reset();
    }
  }
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

int64_t MetricsSnapshot::GaugeValue(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0 : it->second;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  auto append = [&out](const std::string& fragment) { out += fragment; };
  char buf[256];

  append("\"counters\": {");
  bool first = true;
  for (const auto& [name, value] : counters) {
    snprintf(buf, sizeof(buf), "%s\"%s\": %llu", first ? "" : ", ", name.c_str(),
             static_cast<unsigned long long>(value));
    append(buf);
    first = false;
  }
  append("}, \"gauges\": {");
  first = true;
  for (const auto& [name, value] : gauges) {
    snprintf(buf, sizeof(buf), "%s\"%s\": %lld", first ? "" : ", ", name.c_str(),
             static_cast<long long>(value));
    append(buf);
    first = false;
  }
  append("}, \"histograms\": {");
  first = true;
  for (const auto& [name, hist] : histograms) {
    snprintf(buf, sizeof(buf),
             "%s\"%s\": {\"count\": %llu, \"mean\": %.1f, \"p50\": %llu, \"p99\": %llu, "
             "\"min\": %llu, \"max\": %llu}",
             first ? "" : ", ", name.c_str(), static_cast<unsigned long long>(hist.Count()),
             hist.MeanNanos(), static_cast<unsigned long long>(hist.QuantileNanos(0.5)),
             static_cast<unsigned long long>(hist.QuantileNanos(0.99)),
             static_cast<unsigned long long>(hist.MinNanos()),
             static_cast<unsigned long long>(hist.MaxNanos()));
    append(buf);
    first = false;
  }
  append("}}");
  return out;
}

uint64_t MetricsNowNanos() {
  if (SimContext* ctx = SimContext::Current()) {
    return ctx->now();
  }
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace meerkat
