// Measurement primitives used by the experiment harness.
//
// Three kinds of instruments cover everything the paper reports:
//  - Counter / CounterSet: named monotonically increasing event counts
//    (promotions, demotions, aborted transactions, page faults, ...),
//  - LatencyHistogram: log-bucketed distribution of per-access latency
//    (Figure 10 reports average cache-line access latency),
//  - WindowedSeries: bytes-per-window bandwidth trace over virtual time,
//    used to split runs into "migration in progress" and "stable" phases
//    (Figures 1, 7, 8, 9).
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/annotations.h"
#include "src/sim/clock.h"

namespace nomad {

// A named set of monotonically increasing counters keyed by string.
// Lookups are heterogeneous (std::less<> map): the registry names in
// src/obs/event_registry.h are `const char[]` constants longer than the
// small-string buffer, so a std::string-keyed interface would heap-allocate
// a temporary on every Add — and migration-heavy runs Add counters hundreds
// of thousands of times. The map only materializes a std::string once, when
// a name is first seen. Hot paths should still cache a reference from At().
class NOMAD_SHARD_CONFINED CounterSet {
 public:
  CounterSet() = default;
  // A copy takes the counters but not index_, whose keys and values point
  // into the source's map; Slot() rebuilds it. A move keeps the map's
  // nodes, and with them the index.
  CounterSet(const CounterSet& other) : counters_(other.counters_) {}
  CounterSet& operator=(const CounterSet& other) {
    counters_ = other.counters_;
    index_.clear();
    return *this;
  }
  CounterSet(CounterSet&&) = default;
  CounterSet& operator=(CounterSet&&) = default;

  // Returns a stable reference to the named counter, creating it at zero.
  // (std::map references stay valid across later inserts and erases.)
  uint64_t& At(std::string_view name) { return Slot(name); }

  // Value of the counter, or 0 when it was never touched.
  uint64_t Get(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  void Add(std::string_view name, uint64_t delta) { Slot(name) += delta; }

  void Reset() {
    index_.clear();
    counters_.clear();
  }

  const std::map<std::string, uint64_t, std::less<>>& All() const { return counters_; }

  // Renders "name=value" lines, sorted by name.
  std::string ToString() const;

 private:
  // Heterogeneous hash/eq so index_ lookups take a string_view directly.
  struct SvHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };
  struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const { return a == b; }
  };

  uint64_t& Slot(std::string_view name) {
    auto hit = index_.find(name);
    if (hit != index_.end()) {
      return *hit->second;
    }
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      it = counters_.emplace(std::string(name), 0).first;
    }
    index_.emplace(it->first, &it->second);
    return it->second;
  }

  // Source of truth, ordered so All()/ToString() render sorted bytes.
  std::map<std::string, uint64_t, std::less<>> counters_;
  // Hash index over the same slots: one hash + memcmp instead of a tree
  // walk per Add. Keys view the map's stable node strings; values point at
  // its stable mapped values, so the index survives unrelated inserts and
  // is rebuilt implicitly (cleared) on Reset().
  std::unordered_map<std::string_view, uint64_t*, SvHash, SvEq> index_;
};

// Log2-bucketed histogram of latencies in cycles. Records exact sums so the
// mean is precise; buckets give the shape for percentile estimates.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 40;

  // Inline: recorded once per simulated access (MemorySystem::AccessBatch).
  void Record(Cycles latency) {
    buckets_[BucketFor(latency)]++;
    count_++;
    sum_ += latency;
    if (latency > max_) {
      max_ = latency;
    }
  }

  uint64_t count() const { return count_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  Cycles Max() const { return max_; }

  // Approximate value at quantile q in [0,1], assuming uniform distribution
  // within a bucket.
  Cycles Quantile(double q) const;

  void Reset();

  // Merges another histogram into this one.
  void Merge(const LatencyHistogram& other);

 private:
  static int BucketFor(Cycles latency) {
    if (latency == 0) {
      return 0;
    }
    const int b = 64 - std::countl_zero(static_cast<uint64_t>(latency));
    return b < kBuckets - 1 ? b : kBuckets - 1;
  }

  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  Cycles max_ = 0;
};

// Accumulates bytes transferred against virtual time, per window. Window
// boundaries are fixed multiples of window_cycles.
class WindowedSeries {
 public:
  explicit WindowedSeries(Cycles window_cycles) : window_(window_cycles == 0 ? 1 : window_cycles) {}

  // Records `bytes` of useful traffic at virtual time `now`.
  void Record(Cycles now, uint64_t bytes);

  // Number of complete or partial windows observed so far.
  size_t NumWindows() const { return windows_.size(); }

  Cycles window_cycles() const { return window_; }
  const std::vector<uint64_t>& windows() const { return windows_; }

 private:
  Cycles window_;
  std::vector<uint64_t> windows_;
};

}  // namespace nomad

#endif  // SRC_SIM_STATS_H_
