// Physical frame allocator with per-node watermarks.
//
// Mirrors the slice of the buddy allocator the paper's mechanisms interact
// with: per-NUMA-node free lists, low/high watermarks that wake kswapd, and
// an allocation-failure path that NOMAD hooks to reclaim shadow pages
// (sec. 3.2, "Reclaiming shadow pages"). Frames are single 4 KB pages; the
// paper does not exercise compound pages.
//
// A node's free frames are the frames freed so far, on a LIFO list, plus
// the frames never allocated, which are the node's PFNs from a cursor up.
// Allocation pops a freed frame if there is one and otherwise takes the
// cursor's PFN, so frames are first handed out in ascending PFN order.
// Nothing is written per frame up front: with FrameTable's lazily backed
// arrays, metadata for a frame never allocated never becomes resident.
#ifndef SRC_MM_FRAME_POOL_H_
#define SRC_MM_FRAME_POOL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/mem/platform.h"
#include "src/mem/tier.h"
#include "src/mm/page.h"

namespace nomad {

class FaultInjector;

// Allocator over both tiers' frames. PFNs are global: tier 0 occupies
// [0, n_fast), tier 1 occupies [n_fast, n_fast + n_slow).
class FramePool {
 public:
  // Called when an allocation on a node finds no free frame; gives policies
  // (NOMAD) a chance to free shadow pages. Returns true if it freed >= 1
  // frame on the node.
  using AllocFailureHook = std::function<bool(Tier)>;

  explicit FramePool(const PlatformSpec& platform);

  // Allocates a frame on the exact node, or kInvalidPfn.
  Pfn AllocOn(Tier tier);

  // Standard placement policy (sec. 3, "NOMAD does not impact the initial
  // memory allocation"): try fast first, fall back to slow. Returns
  // kInvalidPfn only when both nodes are exhausted even after the failure
  // hook ran (an OOM condition, which the caller counts).
  Pfn Alloc(Tier preferred = Tier::kFast);

  void Free(Pfn pfn);

  // Handle over one frame's SoA slots. Returned by value; declare the
  // result `const PageFrame` for read-only access (setters are non-const).
  PageFrame frame(Pfn pfn) { return PageFrame(&table_, pfn); }
  PageFrame frame(Pfn pfn) const {
    // The handle is the mutation API; constness is expressed at the call
    // site by binding to `const PageFrame`.
    return PageFrame(const_cast<FrameTable*>(&table_), pfn);
  }

  // Bulk read-only view of the SoA table (invariant audits, benches).
  const FrameTable& table() const { return table_; }

  Tier TierOf(Pfn pfn) const { return pfn < n_fast_ ? Tier::kFast : Tier::kSlow; }

  uint64_t FreeFrames(Tier tier) const {
    const int t = TierIndex(tier);
    return freed_[t].size() + (TierEnd(t) - next_fresh_[t]);
  }
  uint64_t TotalFrames(Tier tier) const {
    return tier == Tier::kFast ? n_fast_ : table_.size() - n_fast_;
  }
  uint64_t UsedFrames(Tier tier) const { return TotalFrames(tier) - FreeFrames(tier); }

  // Watermarks, in frames. kswapd reclaims when free < low until free >= high.
  uint64_t LowWatermark(Tier tier) const { return low_wm_[TierIndex(tier)]; }
  uint64_t HighWatermark(Tier tier) const { return high_wm_[TierIndex(tier)]; }
  void SetWatermarks(Tier tier, uint64_t low, uint64_t high);
  bool BelowLowWatermark(Tier tier) const {
    return FreeFrames(tier) < LowWatermark(tier);
  }
  bool BelowHighWatermark(Tier tier) const {
    return FreeFrames(tier) < HighWatermark(tier);
  }

  // --- Scan-candidate bitmap (struct-of-arrays sidecar) ---------------------
  //
  // One bit per frame, kept conservatively: if a frame could be armed by the
  // hint-fault scanner (in use, mapped, non-shadow, PTE present and not yet
  // prot_none), its bit MUST be set. The scanner clears bits only for states
  // that cannot become armable again without passing through one of the
  // NoteScanCandidate call sites (alloc, map install/repoint, prot_none
  // clear, shadow detach). Extra set bits are harmless; a missing bit on an
  // armable frame would silently stop hint faults, so InvariantChecker
  // audits the superset property. The scanner ANDs each word with the
  // complement of FrameTable::QueuedWord, so frames queued for promotion
  // (PCQ / pending / migrating) keep their bit but are not visited until
  // they leave the queues.
  void NoteScanCandidate(Pfn pfn) {
    if (pfn < table_.size()) {
      scan_candidate_[pfn >> 6] |= uint64_t{1} << (pfn & 63);
    }
  }
  void ClearScanCandidate(Pfn pfn) {
    scan_candidate_[pfn >> 6] &= ~(uint64_t{1} << (pfn & 63));
  }
  bool IsScanCandidate(Pfn pfn) const {
    return (scan_candidate_[pfn >> 6] >> (pfn & 63)) & 1;
  }
  // Word-granular access for the scanner's window iteration.
  uint64_t ScanCandidateWord(uint64_t word_index) const {
    return scan_candidate_[word_index];
  }

  void set_alloc_failure_hook(AllocFailureHook hook) { alloc_failure_hook_ = std::move(hook); }

  // Optional fault injector (owned by the MemorySystem): makes fast-tier
  // allocations transiently fail on schedule.
  void set_fault_injector(FaultInjector* f) { faults_ = f; }

  // Number of allocations that found the preferred node empty and spilled.
  uint64_t spill_count() const { return spill_count_; }
  // Number of allocations that failed outright (OOM).
  uint64_t oom_count() const { return oom_count_; }

 private:
  // One past the last PFN of tier index t.
  Pfn TierEnd(int t) const { return t == 0 ? n_fast_ : table_.size(); }

  FrameTable table_;
  std::vector<uint64_t> scan_candidate_;  // 1 bit/frame, see NoteScanCandidate
  std::vector<Pfn> freed_[kNumTiers];  // LIFO lists of freed frames
  // Per tier, the first PFN never allocated: [next_fresh_[t], TierEnd(t))
  // are free and have never been written.
  Pfn next_fresh_[kNumTiers] = {0, 0};
  uint64_t n_fast_ = 0;
  uint64_t low_wm_[kNumTiers] = {0, 0};
  uint64_t high_wm_[kNumTiers] = {0, 0};
  AllocFailureHook alloc_failure_hook_;
  FaultInjector* faults_ = nullptr;
  uint64_t spill_count_ = 0;
  uint64_t oom_count_ = 0;
};

}  // namespace nomad

#endif  // SRC_MM_FRAME_POOL_H_
