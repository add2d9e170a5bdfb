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
  Word& bucket = buckets_[static_cast<size_t>(BucketFor(nanos))];
  Store(bucket, Load(bucket) + 1);
  const uint64_t count = Load(count_);
  if (count == 0 || nanos < Load(min_)) {
    Store(min_, nanos);
  }
  if (count == 0 || nanos > Load(max_)) {
    Store(max_, nanos);
  }
  Store(count_, count + 1);
  Store(sum_, Load(sum_) + nanos);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.has_buckets()) {
    EnsureBuckets();
    for (size_t i = 0; i < buckets_.size(); i++) {
      Store(buckets_[i], Load(buckets_[i]) + Load(other.buckets_[i]));
    }
  }
  const uint64_t count = Load(count_);
  const uint64_t other_count = Load(other.count_);
  if (other_count > 0) {
    Store(min_, count == 0 ? Load(other.min_) : std::min(Load(min_), Load(other.min_)));
    Store(max_, count == 0 ? Load(other.max_) : std::max(Load(max_), Load(other.max_)));
  }
  Store(count_, count + other_count);
  Store(sum_, Load(sum_) + Load(other.sum_));
}

void LatencyHistogram::Reset() {
  for (Word& bucket : buckets_) {
    Store(bucket, 0);
  }
  Store(count_, 0);
  Store(sum_, 0);
  Store(min_, 0);
  Store(max_, 0);
}

double LatencyHistogram::MeanNanos() const {
  const uint64_t count = Count();
  return count == 0 ? 0.0 : static_cast<double>(Load(sum_)) / static_cast<double>(count);
}

uint64_t LatencyHistogram::QuantileNanos(double q) const {
  const uint64_t count = Count();
  if (count == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); i++) {
    seen += Load(buckets_[i]);
    if (seen > target) {
      // A bucket's lower bound can undershoot the smallest recorded sample
      // (e.g. one 1500 ns sample lands in the bucket starting at 1472 ns);
      // clamp so quantiles always lie within the observed [min, max] (a
      // torn copy may hold min > max, which std::clamp does not allow).
      return std::min(std::max(BucketLowerBound(static_cast<int>(i)), MinNanos()), MaxNanos());
    }
  }
  return MaxNanos();
}

std::string LatencyHistogram::Summary() const {
  char buf[160];
  snprintf(buf, sizeof(buf), "n=%llu mean=%.1fus p50=%.1fus p99=%.1fus max=%.1fus",
           static_cast<unsigned long long>(Count()), MeanNanos() / 1e3,
           static_cast<double>(QuantileNanos(0.5)) / 1e3,
           static_cast<double>(QuantileNanos(0.99)) / 1e3, static_cast<double>(MaxNanos()) / 1e3);
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
