// Last-level cache model.
//
// A physically indexed, set-associative LLC. It exists for two reasons:
//  1. latency: hot lines are served at LLC-hit cost instead of device cost,
//  2. PEBS visibility (Fig. 10): accesses that hit in the LLC produce no
//     LLC-miss samples, so a sampling-based tracker (Memtis) never sees the
//     hottest pages - the core limitation sec. 4.1 demonstrates with the
//     pointer-chasing benchmark.
//
// Tags are physical line addresses, so a migrated page's lines become stale;
// migration code calls InvalidatePage() on the old frame. Only a miss
// inserts a tag, so until the first miss the cache is empty and
// InvalidatePage() returns at once: the migrations that lay out a demoted
// dataset before any access cost no tag scan.
#ifndef SRC_MM_CACHE_H_
#define SRC_MM_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/mem/platform.h"
#include "src/mm/page.h"

namespace nomad {

class LastLevelCache {
 public:
  // capacity_bytes is rounded down to a whole number of 16-way sets.
  explicit LastLevelCache(uint64_t capacity_bytes);

  // Looks up the line containing physical byte address `paddr`; inserts it
  // on miss. Returns true on hit. Inline: this sits on the per-access fast
  // path (MemorySystem::AccessBatch). Tags and LRU stamps live in separate
  // parallel arrays (struct-of-arrays): the hit scan touches only the
  // 8-byte-per-way tag array (two host cache lines per 16-way set instead
  // of four), and the LRU stamps are loaded only on a miss.
  bool Access(uint64_t paddr) {
    const uint64_t line = paddr / kCacheLineSize;
    const size_t base = SetOf(line);
    tick_++;
    for (size_t w = 0; w < kWays; w++) {
      if (tags_[base + w] == line) {
        last_use_[base + w] = tick_;
        hits_++;
        return true;
      }
    }
    // Victim selection, identical to the fused scan: the last invalid way
    // wins; otherwise the first way holding the minimum LRU stamp.
    size_t victim = base;
    bool victim_invalid = false;
    for (size_t w = 0; w < kWays; w++) {
      if (tags_[base + w] == kInvalidTag) {
        victim = base + w;
        victim_invalid = true;
      } else if (!victim_invalid && last_use_[base + w] < last_use_[victim]) {
        victim = base + w;
      }
    }
    misses_++;
    tags_[victim] = line;
    last_use_[victim] = tick_;
    return false;
  }

  // Hints the host CPU to pull the set covering `paddr` into cache ahead of
  // an Access. The 16-way tag array spans two host cache lines per set and
  // is the hottest randomly-indexed structure in the simulator. Pure
  // prefetch: no simulator state changes.
  void PrefetchSet(uint64_t paddr) const {
    const size_t base = SetOf(paddr / kCacheLineSize);
    __builtin_prefetch(&tags_[base], 1);
    __builtin_prefetch(&tags_[base + 8], 1);
    __builtin_prefetch(&last_use_[base], 1);
  }

  // Drops every line belonging to the frame (used on migration/free).
  void InvalidatePage(Pfn pfn);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t capacity_lines() const { return tags_.size(); }

 private:
  static constexpr uint64_t kWays = 16;
  static constexpr uint64_t kInvalidTag = ~uint64_t{0};

  size_t SetOf(uint64_t line) const { return static_cast<size_t>((line % num_sets_) * kWays); }

  std::vector<uint64_t> tags_;      // line address (paddr / 64), kInvalidTag = empty
  std::vector<uint64_t> last_use_;  // LRU stamp per way, parallel to tags_
  uint64_t num_sets_ = 1;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace nomad

#endif  // SRC_MM_CACHE_H_
