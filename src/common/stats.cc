#include "src/common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace meerkat {

int LatencyHistogram::BucketFor(uint64_t nanos) {
  if (nanos == 0) {
    return 0;
  }
  // Octave = floor(log2 n); sub-bucket from the next kBucketsPerOctave bits.
  int octave = 63 - std::countl_zero(nanos);
  uint64_t frac = octave == 0 ? 0 : (nanos - (1ULL << octave));
  // frac < 2^octave, so (frac * 16) overflows uint64 once octave >= 60; shift
  // right instead for large octaves (kBucketsPerOctave == 2^4, exact result).
  static_assert(kBucketsPerOctave == 16, "sub-bucket shift assumes 16 buckets/octave");
  int sub = octave == 0 ? 0
            : octave >= 4 ? static_cast<int>(frac >> (octave - 4))
                          : static_cast<int>((frac * kBucketsPerOctave) >> octave);
  int bucket = octave * kBucketsPerOctave + sub;
  return std::min(bucket, kNumBuckets - 1);
}

uint64_t LatencyHistogram::BucketLowerBound(int bucket) {
  int octave = bucket / kBucketsPerOctave;
  int sub = bucket % kBucketsPerOctave;
  uint64_t base = 1ULL << octave;
  return base + ((base * static_cast<uint64_t>(sub)) / kBucketsPerOctave);
}

void LatencyHistogram::Record(uint64_t nanos) {
  EnsureBuckets();
  buckets_[static_cast<size_t>(BucketFor(nanos))]++;
  if (count_ == 0) {
    min_ = max_ = nanos;
  } else {
    min_ = std::min(min_, nanos);
    max_ = std::max(max_, nanos);
  }
  count_++;
  sum_ += nanos;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (!other.buckets_.empty()) {
    EnsureBuckets();
    for (int i = 0; i < kNumBuckets; i++) {
      buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
    }
  }
  if (other.count_ > 0) {
    min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
    max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = sum_ = min_ = max_ = 0;
}

double LatencyHistogram::MeanNanos() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

uint64_t LatencyHistogram::QuantileNanos(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; i++) {
    seen += buckets_[static_cast<size_t>(i)];
    if (seen > target) {
      // A bucket's lower bound can undershoot the smallest recorded sample
      // (e.g. one 1500 ns sample lands in the bucket starting at 1472 ns);
      // clamp so quantiles always lie within the observed [min, max].
      return std::clamp(BucketLowerBound(i), min_, max_);
    }
  }
  return max_;
}

std::string LatencyHistogram::Summary() const {
  char buf[160];
  snprintf(buf, sizeof(buf), "n=%llu mean=%.1fus p50=%.1fus p99=%.1fus max=%.1fus",
           static_cast<unsigned long long>(count_), MeanNanos() / 1e3,
           static_cast<double>(QuantileNanos(0.5)) / 1e3,
           static_cast<double>(QuantileNanos(0.99)) / 1e3, static_cast<double>(max_) / 1e3);
  return buf;
}

void RunStats::Merge(const RunStats& other) {
  committed += other.committed;
  aborted += other.aborted;
  failed += other.failed;
  reads += other.reads;
  writes += other.writes;
  fast_path_commits += other.fast_path_commits;
  slow_path_commits += other.slow_path_commits;
  retransmits += other.retransmits;
  timeouts += other.timeouts;
  recoveries += other.recoveries;
  commit_latency.Merge(other.commit_latency);
}

std::string RunStats::Summary(double elapsed_seconds) const {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "goodput=%.0f txn/s committed=%llu aborted=%llu (%.1f%%) failed=%llu fast=%llu "
           "slow=%llu retx=%llu timeouts=%llu recoveries=%llu",
           GoodputPerSec(elapsed_seconds), static_cast<unsigned long long>(committed),
           static_cast<unsigned long long>(aborted), AbortRate() * 100.0,
           static_cast<unsigned long long>(failed),
           static_cast<unsigned long long>(fast_path_commits),
           static_cast<unsigned long long>(slow_path_commits),
           static_cast<unsigned long long>(retransmits),
           static_cast<unsigned long long>(timeouts),
           static_cast<unsigned long long>(recoveries));
  return buf;
}

}  // namespace meerkat
