// ZCP-safe observability: a per-core metrics registry, the one mechanism for
// named counters, gauges and histograms — from the lock-free vstore read and
// the channel push to the coordinator's phase latencies. The discipline:
//
//   * Registration (naming a metric, getting a MetricId) takes a mutex once,
//     at static-init or setup time — never on a hot path.
//   * Recording indexes a thread-local slab by MetricId: a single-writer
//     relaxed-atomic add (plain load+add+store, no RMW) to memory only this
//     thread writes. No shared cache line is touched, so instrumenting a DAP
//     fast path does not reintroduce the coordination the metric is trying
//     to measure.
//   * Snapshotting takes the registry mutex and sums every thread's slab
//     (slabs are shared_ptr-owned by both the registry and the creating
//     thread, so they outlive exited threads). A snapshot is "torn" by
//     design: counters recorded concurrently may or may not be included, but
//     every counter, gauge and histogram word read is a valid value and
//     totals are exact at quiescent points.
//
// Kinds:
//   counter   — monotone uint64 sum across threads (MetricIncr).
//   gauge     — signed delta accumulated per thread and summed across
//               threads (MetricGaugeAdd): +1 on insert / -1 on erase from
//               every thread yields the global live count.
//   histogram — per-thread LatencyHistogram merged across threads
//               (MetricRecordValue). Named "histogram", not "latency":
//               any uint64 distribution (batch sizes, delays) fits.
//
// MetricsSnapshot::ToJson() renders the whole registry for the BENCH_*.json
// export path.

#ifndef MEERKAT_SRC_COMMON_METRICS_H_
#define MEERKAT_SRC_COMMON_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/stats.h"

namespace meerkat {

// Opaque handle to one registered metric. Copy freely; invalid ids (from
// registry overflow) make recording a no-op instead of corrupting a slab.
struct MetricId {
  static constexpr uint16_t kInvalid = 0xFFFF;
  uint16_t index = kInvalid;

  bool valid() const { return index != kInvalid; }
};

class MetricsRegistry {
 public:
  // Slab capacities. Fixed so a thread's slab is allocated exactly once (on
  // that thread's first record) regardless of later registrations.
  static constexpr size_t kMaxCounters = 128;
  static constexpr size_t kMaxGauges = 32;
  static constexpr size_t kMaxHistograms = 32;

  // Idempotent by name: registering the same name twice returns the same id.
  // Returns an invalid id (recording becomes a no-op) once capacity is full.
  // Safe to call from static initializers in any translation unit.
  static MetricId Counter(const std::string& name);
  static MetricId Gauge(const std::string& name);
  static MetricId Histogram(const std::string& name);
};

// Record paths: O(1), lock-free, allocation-free after the calling thread's
// first record of a given metric (which allocates its slab / the histogram's
// bucket array). Invalid ids are ignored.
void MetricIncr(MetricId id, uint64_t delta = 1);
void MetricGaugeAdd(MetricId id, int64_t delta);
void MetricRecordValue(MetricId id, uint64_t value);

// Constructs the calling thread's slab now. Long-lived recording threads
// (transport delivery workers) call this at thread start so the one-time
// slab allocation — hundreds of KB plus a registry-mutex acquisition — never
// lands inside a delivery: a core going cold-start tens of microseconds late
// while its siblings run warm is exactly the kind of skew that turns a
// benign read/apply race into a visible stale read.
void WarmupMetricsForThisThread();

// A summed view of every thread's slab at one instant.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, LatencyHistogram> histograms;

  // Renders as one JSON object:
  //   {"counters": {...}, "gauges": {...},
  //    "histograms": {"name": {"count":..,"mean":..,"p50":..,"p99":..,
  //                            "min":..,"max":..}, ...}}
  std::string ToJson() const;

  // Convenience for tests: 0 when absent.
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;
};

// Sums every thread's slab. The bool selects nothing: it is kept only so the
// real-clock benchmark's existing `SnapshotMetrics(false)` calls still
// compile. Other callers pass no argument.
MetricsSnapshot SnapshotMetrics(bool = false);

// Zeroes every registered slab (benchmarks only: concurrent increments during
// the reset may survive it, which is fine for before/after deltas).
void ResetMetrics();

// Nanosecond clock for phase-latency metrics and trace timestamps: virtual
// time when running inside the simulator (SimContext active on this thread),
// steady_clock otherwise. Within one run all stamps come from one domain.
uint64_t MetricsNowNanos();

}  // namespace meerkat

#endif  // MEERKAT_SRC_COMMON_METRICS_H_
