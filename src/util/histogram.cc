#include "src/util/histogram.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace rtdvs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  RTDVS_CHECK(!bounds_.empty()) << "histogram needs at least one bucket bound";
  RTDVS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must be ascending";
  buckets_.assign(bounds_.size() + 1, 0);
}

Histogram Histogram::Exponential(double start, double factor, int count) {
  RTDVS_CHECK(start > 0 && factor > 1 && count >= 1)
      << "exponential buckets need start > 0, factor > 1, count >= 1";
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double edge = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return Histogram(std::move(bounds));
}

void Histogram::Record(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<size_t>(it - bounds_.begin())] += 1;
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += 1;
  sum_ += value;
}

double Histogram::ValueAtPercentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the target sample, 1-based; percentile 0 maps to the first.
  const double rank = std::max(1.0, p / 100.0 * static_cast<double>(count_));
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const int64_t next = seen + buckets_[i];
    if (rank <= static_cast<double>(next)) {
      if (i == buckets_.size() - 1) return max_;  // overflow bucket
      const double lo = i == 0 ? std::min(min_, bounds_[0]) : bounds_[i - 1];
      const double hi = bounds_[i];
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets_[i]);
      return lo + (hi - lo) * frac;
    }
    seen = next;
  }
  return max_;
}

void Histogram::MergeFrom(const Histogram& other) {
  RTDVS_CHECK(bounds_ == other.bounds_)
      << "cannot merge histograms with different bucket bounds";
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }
}

}  // namespace rtdvs
