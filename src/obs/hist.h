// Log-bucketed HDR-style histograms for migration-path latencies.
//
// LatencyHistogram (src/sim/stats.h) spends one bucket per power of two,
// which is fine for per-access latency shapes but too coarse for the
// migration distributions the paper argues about (a 12% regression in
// migration p99 vanishes inside a 2x bucket). Histogram keeps 8 sub-buckets
// per octave — HdrHistogram's trick — bounding the relative error of any
// reconstructed value at 12.5%, with values below 8 recorded exactly.
//
// HistogramSet is the simulator-facing registry: distributions are keyed by
// the hist:: names in src/obs/event_registry.h and recording an
// unregistered name aborts (same closed-name-set contract as counters and
// trace events). Record() returns at its first branch while the set is
// disabled; when enabled it costs one map lookup per *kernel event* (a
// committed migration, a PCQ drain), never per access.
#ifndef SRC_OBS_HIST_H_
#define SRC_OBS_HIST_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/base/annotations.h"
#include "src/obs/event_registry.h"

namespace nomad {

class Histogram {
 public:
  // 8 sub-buckets per octave; values in [0, kSubBuckets) are exact.
  static constexpr int kSubBucketBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  // Octaves for msb positions kSubBucketBits..63, plus the exact range.
  static constexpr int kNumBuckets = kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

  void Record(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t Max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Approximate value at quantile q in [0,1]; uniform interpolation within
  // the bucket (same estimator as LatencyHistogram::Quantile).
  uint64_t Quantile(double q) const;

  // Bucket that Record(value) increments, and its [lo, hi) value range.
  // Exposed so tests can pin the percentile math to bucket edges and so
  // trace_query can state its reconstruction error.
  static int BucketFor(uint64_t value);
  static uint64_t BucketLo(int bucket);
  static uint64_t BucketHi(int bucket);

  void Merge(const Histogram& other);
  void Reset();

 private:
  uint64_t buckets_[kNumBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

// Named histograms, keyed by the hist:: constants in event_registry.h.
class NOMAD_SHARD_CONFINED HistogramSet {
 public:
  // Runtime switch; starts enabled.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Books one sample, unless disabled. Callers pass the hist:: registry
  // constants, so the same `name` pointer recurs per site; a tiny
  // pointer-keyed memo skips the validating map lookup after the first
  // sample (a migration-heavy run records hundreds of thousands of
  // samples). An unrecognized pointer just takes the At() path, so the
  // memo can never change which histogram is hit.
  void Record(const char* name, uint64_t value) {
    if (!enabled_) {
      return;
    }
    for (int i = 0; i < memo_used_; i++) {
      if (memo_[i].name == name) {
        memo_[i].hist->Record(value);
        return;
      }
    }
    Histogram& h = At(name);
    if (memo_used_ < kMemoSlots) {
      memo_[memo_used_++] = Memo{name, &h};
    }
    h.Record(value);
  }

  // Stable reference to the named histogram, creating it empty. Aborts on a
  // name outside NOMAD_HIST_NAME_LIST.
  Histogram& At(const char* name);

  const std::map<std::string, Histogram>& All() const { return hists_; }

  void Reset() {
    memo_used_ = 0;
    hists_.clear();
  }

 private:
  static constexpr int kMemoSlots = 8;
  struct Memo {
    const char* name = nullptr;
    Histogram* hist = nullptr;  // std::map references are stable
  };

  bool enabled_ = true;
  std::map<std::string, Histogram> hists_;
  Memo memo_[kMemoSlots];
  int memo_used_ = 0;
};

}  // namespace nomad

#endif  // SRC_OBS_HIST_H_
