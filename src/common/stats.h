// Lightweight statistics: a latency histogram and per-run outcome summaries
// used by the benchmark harness and by examples. Named per-thread counters,
// gauges and histograms live in the metrics registry (metrics.h).

#ifndef MEERKAT_SRC_COMMON_STATS_H_
#define MEERKAT_SRC_COMMON_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace meerkat {

// Log-bucketed latency histogram (nanoseconds). Buckets grow geometrically,
// ~4% relative resolution, fixed memory, O(1) record. The bucket array is
// allocated on the first Record/Merge, so an unused histogram costs a few
// words — the per-thread metrics slabs (metrics.h) hold kMaxHistograms of
// these and must stay cheap to construct at thread start.
class LatencyHistogram {
 public:
  LatencyHistogram() = default;

  void Record(uint64_t nanos);
  void Merge(const LatencyHistogram& other);
  void Reset();

  // Pre-allocates the bucket array. Record allocates on demand, which is fine
  // for single-threaded histograms; holders whose histograms are read by
  // concurrent snapshots (the metrics slabs) call this under their registry
  // mutex so the one-time vector resize never races a reader.
  bool has_buckets() const { return !buckets_.empty(); }
  void EnsureBuckets() {
    if (buckets_.empty()) {
      buckets_.resize(kNumBuckets, 0);
    }
  }

  uint64_t Count() const { return count_; }
  double MeanNanos() const;
  // q in [0, 1]; returns an approximate quantile in nanoseconds.
  uint64_t QuantileNanos(double q) const;
  uint64_t MinNanos() const { return count_ == 0 ? 0 : min_; }
  uint64_t MaxNanos() const { return count_ == 0 ? 0 : max_; }

  std::string Summary() const;

 private:
  static constexpr int kBucketsPerOctave = 16;
  static constexpr int kNumBuckets = 64 * kBucketsPerOctave;

  static int BucketFor(uint64_t nanos);
  static uint64_t BucketLowerBound(int bucket);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

// Outcome counters for a workload run. Throughput in the paper is *goodput*:
// committed transactions per second (§6.2).
struct RunStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;   // OCC aborts (application may retry).
  uint64_t failed = 0;    // No quorum reachable.
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t fast_path_commits = 0;  // Decided with a supermajority of matching replies.
  uint64_t slow_path_commits = 0;  // Needed the ACCEPT round.
  // Failure-handling counters (RetryPolicy + recovery drills).
  uint64_t retransmits = 0;  // Timer-driven re-sends, all phases.
  uint64_t timeouts = 0;     // Attempts that exhausted retransmissions or a deadline.
  uint64_t recoveries = 0;   // Attempts whose quorum was rebuilt across an epoch change.
  LatencyHistogram commit_latency;

  uint64_t Attempts() const { return committed + aborted + failed; }
  double AbortRate() const {
    uint64_t a = Attempts();
    return a == 0 ? 0.0 : static_cast<double>(aborted) / static_cast<double>(a);
  }
  double GoodputPerSec(double elapsed_seconds) const {
    return elapsed_seconds <= 0 ? 0.0 : static_cast<double>(committed) / elapsed_seconds;
  }

  void Merge(const RunStats& other);
  std::string Summary(double elapsed_seconds) const;
};

}  // namespace meerkat

#endif  // MEERKAT_SRC_COMMON_STATS_H_
