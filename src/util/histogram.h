// A fixed-bucket histogram for the observability layer: the profiler's
// per-span durations and the policy-overhead micro-bench. Not thread-safe
// by design: one histogram per thread, merge after.
#ifndef SRC_UTIL_HISTOGRAM_H_
#define SRC_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace rtdvs {

// A fixed-bucket histogram: `bounds` are inclusive upper bucket edges, plus
// an implicit overflow bucket. Fixed buckets keep Record() O(log buckets),
// make merges exact (bucket-wise integer adds), and make percentile
// estimates deterministic functions of the bucket counts.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  // `count` buckets whose edges grow geometrically from `start` by `factor`
  // — the standard latency shape (e.g. 1us..10s at 2x).
  static Histogram Exponential(double start, double factor, int count);

  void Record(double value);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  // Linear interpolation within the owning bucket; p in [0, 100]. The
  // overflow bucket reports the observed max. 0 when empty.
  double ValueAtPercentile(double p) const;

  // Bucket-wise add; aborts if bucket edges differ.
  void MergeFrom(const Histogram& other);

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<int64_t>& bucket_counts() const { return buckets_; }

 private:
  std::vector<double> bounds_;    // ascending upper edges
  std::vector<int64_t> buckets_;  // bounds_.size() + 1 (overflow last)
  int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace rtdvs

#endif  // SRC_UTIL_HISTOGRAM_H_
