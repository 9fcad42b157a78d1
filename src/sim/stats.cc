#include "src/sim/stats.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace nomad {

std::string CounterSet::ToString() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters_) {
    out << name << "=" << value << "\n";
  }
  return out.str();
}

Cycles LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; b++) {
    if (seen + buckets_[b] > target) {
      // Interpolate inside bucket b, whose range is [2^(b-1), 2^b).
      Cycles lo = b == 0 ? 0 : (Cycles{1} << (b - 1));
      Cycles hi = Cycles{1} << b;
      double frac = buckets_[b] == 0
                        ? 0.0
                        : static_cast<double>(target - seen) / static_cast<double>(buckets_[b]);
      return lo + static_cast<Cycles>(frac * static_cast<double>(hi - lo));
    }
    seen += buckets_[b];
  }
  return max_;
}

void LatencyHistogram::Reset() {
  std::fill(std::begin(buckets_), std::end(buckets_), 0);
  count_ = 0;
  sum_ = 0;
  max_ = 0;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int b = 0; b < kBuckets; b++) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void WindowedSeries::Record(Cycles now, uint64_t bytes) {
  size_t idx = static_cast<size_t>(now / window_);
  if (idx >= windows_.size()) {
    windows_.resize(idx + 1, 0);
  }
  windows_[idx] += bytes;
}

}  // namespace nomad
