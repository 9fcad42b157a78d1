#include "src/mm/frame_pool.h"

#include "src/check/check.h"
#include "src/fault/fault_injector.h"

namespace nomad {

FramePool::FramePool(const PlatformSpec& platform) {
  n_fast_ = platform.tiers[0].capacity_bytes / kPageSize;
  const uint64_t n_slow = platform.tiers[1].capacity_bytes / kPageSize;
  table_.Resize(n_fast_ + n_slow);
  // Start with every bit set: the first scanner sweep then examines exactly
  // the frames the pre-bitmap implementation would have, lazily clearing
  // bits for frames it finds un-armable.
  scan_candidate_.assign((table_.size() + 63) / 64, ~uint64_t{0});
  next_fresh_[0] = 0;
  next_fresh_[1] = n_fast_;
  // Linux-like defaults: low watermark at ~1/128 of the node, high at 3x low.
  for (int t = 0; t < kNumTiers; t++) {
    uint64_t total = t == 0 ? n_fast_ : n_slow;
    low_wm_[t] = total / 128;
    high_wm_[t] = low_wm_[t] * 3;
  }
}

void FramePool::SetWatermarks(Tier tier, uint64_t low, uint64_t high) {
  low_wm_[TierIndex(tier)] = low;
  high_wm_[TierIndex(tier)] = high;
}

Pfn FramePool::AllocOn(Tier tier) {
  // A transient fast-tier failure: the frame we'd have taken was stolen
  // by a concurrent consumer. The caller sees kInvalidPfn exactly as it
  // would under real pressure and must take its fallback path.
  if (faults_ != nullptr && tier == Tier::kFast &&
      faults_->ShouldInject(FaultKind::kAllocFail)) {
    return kInvalidPfn;
  }
  if (FreeFrames(tier) == 0) {
    if (alloc_failure_hook_ && alloc_failure_hook_(tier) && FreeFrames(tier) > 0) {
      // The hook reclaimed something; fall through to allocate it.
    } else {
      return kInvalidPfn;
    }
  }
  // Freed frames first, last in first out; then the lowest PFN never
  // allocated. Placement, and so every result, depends on this order.
  auto& freed = freed_[TierIndex(tier)];
  Pfn pfn;
  if (!freed.empty()) {
    pfn = freed.back();
    freed.pop_back();
  } else {
    pfn = next_fresh_[TierIndex(tier)]++;
    frame(pfn).set_tier(tier);
  }
  PageFrame f = frame(pfn);
  NOMAD_CHECK(!f.in_use(), "free-list frame already in use, pfn=", pfn, " vpn=", f.vpn(),
              " tier=", static_cast<int>(f.tier()));
  f.set_in_use(true);
  NoteScanCandidate(pfn);
  return pfn;
}

Pfn FramePool::Alloc(Tier preferred) {
  Pfn pfn = AllocOn(preferred);
  if (pfn != kInvalidPfn) {
    return pfn;
  }
  spill_count_++;
  pfn = AllocOn(OtherTier(preferred));
  if (pfn == kInvalidPfn) {
    oom_count_++;
  }
  return pfn;
}

void FramePool::Free(Pfn pfn) {
  PageFrame f = frame(pfn);
  NOMAD_CHECK(f.in_use(), "double free, pfn=", pfn, " vpn=", f.vpn());
  NOMAD_CHECK(f.lru() == LruList::kNone, "freeing a frame still on an LRU list, pfn=", pfn,
              " vpn=", f.vpn(), " list=", static_cast<int>(f.lru()));
  f.set_in_use(false);
  f.bump_generation();
  f.ResetState();
  freed_[TierIndex(f.tier())].push_back(pfn);
}

}  // namespace nomad
