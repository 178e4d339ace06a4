#include "obs/histogram.hpp"

#include <cmath>
#include <cstdio>

namespace isr::obs {

int LatencyHistogram::bucket_of(double v_us) {
  // NaN and negatives fail the comparison and land in bucket 0 — a
  // defensive sink, not a code path (callers feed chrono durations).
  if (!(v_us >= 1.0)) return 0;
  if (std::isinf(v_us)) return kBuckets - 1;
  // ilogb is floor(log2(v)) for finite v >= 1, and exact at the power-of-
  // two bucket boundaries where a log()-based round-trip could be off by
  // one ulp.
  const int e = std::ilogb(v_us);
  return e >= kBuckets - 2 ? kBuckets - 1 : e + 1;
}

double LatencyHistogram::bucket_floor_us(int bucket) {
  if (bucket <= 0) return 0.0;
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  return std::ldexp(1.0, bucket - 1);  // 2^(bucket-1), exact in a double
}

double LatencyHistogram::bucket_ceil_us(int bucket) {
  if (bucket < 0) bucket = 0;
  if (bucket >= kBuckets - 1) return bucket_floor_us(kBuckets - 1);
  return std::ldexp(1.0, bucket);  // 2^bucket
}

void LatencyHistogram::record(double v_us) {
  if (!(v_us >= 0.0)) v_us = 0.0;  // clamp NaN/negatives with the same sink
  counts_[bucket_of(v_us)] += 1;
  sum_us_ += v_us;
  if (count_ == 0 || v_us < min_us_) min_us_ = v_us;
  if (count_ == 0 || v_us > max_us_) max_us_ = v_us;
  count_ += 1;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.count_ == 0) return;
  for (int b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  sum_us_ += other.sum_us_;
  if (count_ == 0 || other.min_us_ < min_us_) min_us_ = other.min_us_;
  if (count_ == 0 || other.max_us_ > max_us_) max_us_ = other.max_us_;
  count_ += other.count_;
}

void LatencyHistogram::reset() { *this = LatencyHistogram{}; }

std::uint64_t LatencyHistogram::bucket_count(int bucket) const {
  if (bucket < 0 || bucket >= kBuckets) return 0;
  return counts_[bucket];
}

double LatencyHistogram::percentile_us(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) return min_us_;
  if (p >= 100.0) return max_us_;
  // Nearest rank (1-based): ceil(p/100 * count), clamped to [1, count].
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    if (seen + counts_[b] < rank) {
      seen += counts_[b];
      continue;
    }
    // The rank lands in this bucket: interpolate linearly between its
    // bounds by the rank's position among the bucket's samples, then clamp
    // to the exactly-known extremes (which also caps the open-ended
    // overflow bucket at the recorded max).
    const double lo = bucket_floor_us(b);
    const double hi = b >= kBuckets - 1 ? max_us_ : bucket_ceil_us(b);
    const double frac = static_cast<double>(rank - seen) /
                        static_cast<double>(counts_[b]);
    double v = lo + (hi - lo) * frac;
    if (v < min_us_) v = min_us_;
    if (v > max_us_) v = max_us_;
    return v;
  }
  return max_us_;  // unreachable when the counts are consistent
}

std::string LatencyHistogram::to_json() const {
  std::string buckets = "[";
  for (int b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s[%.0f,%llu]", buckets.size() > 1 ? "," : "",
                  bucket_floor_us(b), static_cast<unsigned long long>(counts_[b]));
    buckets += buf;
  }
  buckets += "]";
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"count\":%llu,\"p50\":%.3f,\"p90\":%.3f,\"p99\":%.3f,"
                "\"p999\":%.3f,\"buckets\":",
                static_cast<unsigned long long>(count_), percentile_us(50.0),
                percentile_us(90.0), percentile_us(99.0), percentile_us(99.9));
  return std::string(head) + buckets + "}";
}

}  // namespace isr::obs
