#include "src/mm/cache.h"

#include <algorithm>

namespace nomad {

LastLevelCache::LastLevelCache(uint64_t capacity_bytes) {
  uint64_t lines = capacity_bytes / kCacheLineSize;
  num_sets_ = std::max<uint64_t>(1, lines / kWays);
  tags_.assign(num_sets_ * kWays, kInvalidTag);
  last_use_.assign(num_sets_ * kWays, 0);
}

void LastLevelCache::InvalidatePage(Pfn pfn) {
  if (misses_ == 0) {
    // Every valid tag was inserted by a miss, so a cache that has never
    // missed holds no line. Laying out a demoted dataset migrates every
    // page before the first access; this skips those 64-set scans.
    return;
  }
  // Called once per migration (and per frame free), and a tpp run migrates
  // ~100k times per 2M accesses, so this scan was ~20% of that row's wall
  // clock. A page's lines map to *consecutive* sets (SetOf is line mod
  // num_sets), so unless the set index wraps, the 64 sets x 16 ways under
  // scrutiny are one contiguous run of tags — walk it with a branchless
  // compare/select the compiler can turn into SIMD compare+blend, instead
  // of a branchy per-way match that defeats both vectorizer and prefetcher.
  constexpr uint64_t kLinesPerPage = kPageSize / kCacheLineSize;
  const uint64_t first_line = pfn * kLinesPerPage;
  const uint64_t first_set = first_line % num_sets_;
  if (first_set + kLinesPerPage <= num_sets_) {
    uint64_t* t = &tags_[first_set * kWays];
    for (uint64_t i = 0; i < kLinesPerPage; i++) {
      const uint64_t line = first_line + i;
      uint64_t* ts = t + i * kWays;
      for (size_t w = 0; w < kWays; w++) {
        const uint64_t v = ts[w];
        ts[w] = v == line ? kInvalidTag : v;
      }
    }
    return;
  }
  // Wrapped around the end of the set array (at most once per num_sets_
  // pages): fall back to per-line set indexing.
  for (uint64_t i = 0; i < kLinesPerPage; i++) {
    const uint64_t line = first_line + i;
    const size_t base = SetOf(line);
    for (size_t w = 0; w < kWays; w++) {
      const uint64_t v = tags_[base + w];
      tags_[base + w] = v == line ? kInvalidTag : v;
    }
  }
}

}  // namespace nomad
