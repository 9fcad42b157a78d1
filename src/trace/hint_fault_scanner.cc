#include "src/trace/hint_fault_scanner.h"

#include <algorithm>
#include <bit>

#include "src/check/check.h"

namespace nomad {

namespace {

// Cycles to arm one page: the PTE write and its bookkeeping.
constexpr Cycles kCostPerPage = 120;

}  // namespace

Pfn HintFaultScanner::FirstSlowPfn() const { return ms_->pool().TotalFrames(Tier::kFast); }

Pfn HintFaultScanner::EndSlowPfn() const {
  return FirstSlowPfn() + ms_->pool().TotalFrames(Tier::kSlow);
}

Cycles HintFaultScanner::Step(Engine& engine) {
  if (enabled_ && !enabled_()) {
    engine.SleepUntil(engine.now() + config_.round_interval);
    return 0;
  }
  FramePool& pool = ms_->pool();
  const Pfn first = FirstSlowPfn();
  const Pfn end = EndSlowPfn();
  Cycles spent = 0;
  uint64_t armed_this_round = 0;
  bool any_shootdown = false;

  // One step covers the same pages_per_round-sized PFN window the pre-bitmap
  // loop examined, but skips non-candidate frames at 64-frame word
  // granularity instead of loading each PageFrame. In steady state (most
  // slow pages already armed) a window is a handful of word loads.
  // Queued frames (PCQ / pending / migrating) are masked out with the
  // frame table's queued sidecar: a thrashing NOMAD run keeps thousands of
  // them queued, and loading each on every sweep would cost more host time
  // than the arming. They keep their candidate bit for the first sweep
  // after they leave the queues.
  if (cursor_ >= end) {
    // Previous step ended exactly on the boundary: reset and rest, matching
    // the old loop's empty first iteration.
    cursor_ = first;
  } else {
    const Pfn win_start = cursor_;
    const Pfn win_end = std::min(win_start + config_.pages_per_round, end);
    for (uint64_t w = win_start >> 6; w <= (win_end - 1) >> 6; w++) {
      uint64_t bits = pool.ScanCandidateWord(w) & ~pool.table().QueuedWord(w);
      // Mask off frames outside [win_start, win_end).
      const Pfn word_base = w << 6;
      if (word_base < win_start) {
        bits &= ~uint64_t{0} << (win_start - word_base);
      }
      if (word_base + 64 > win_end) {
        bits &= ~uint64_t{0} >> (word_base + 64 - win_end);
      }
      while (bits != 0) {
        const Pfn pfn = word_base + static_cast<Pfn>(std::countr_zero(bits));
        bits &= bits - 1;
        PageFrame f = pool.frame(pfn);
        if (!f.in_use() || !f.mapped() || f.is_shadow()) {
          // Stable non-armable states: becoming armable again passes
          // through a NoteScanCandidate site (alloc / map install /
          // shadow detach), so the bit can be dropped.
          pool.ClearScanCandidate(pfn);
          continue;
        }
        NOMAD_CHECK(!f.migrating() && !f.in_pcq() && !f.in_pending(),
                    "queued sidecar out of step with the flags of pfn=", pfn);
        Pte* pte = ms_->PteOf(*f.owner(), f.vpn());
        if (pte == nullptr || !pte->present || pte->prot_none) {
          // Absent PTEs come back via map installs; armed pages come back
          // via ResolveHintFault / remap. Both re-set the bit.
          pool.ClearScanCandidate(pfn);
          continue;
        }
        pte->prot_none = true;
        pool.ClearScanCandidate(pfn);  // armed: not armable until resolved
        pages_armed_++;
        armed_this_round++;
        spent += kCostPerPage;
        if (!any_shootdown) {
          // Arming downgrades permissions, so stale TLB entries must go.
          // Linux batches these flushes; we charge one shootdown per armed
          // batch.
          spent += ms_->TlbShootdown(*f.owner(), f.vpn());
          any_shootdown = true;
        } else {
          for (ActorId cpu : f.owner()->cpus()) {
            ms_->tlb(cpu).Invalidate(f.vpn());
          }
        }
      }
    }
    cursor_ = win_end;
    if (win_end == end && end - win_start < config_.pages_per_round) {
      // Partial final window: the old loop reset and rested in the same
      // step. An exact-boundary finish instead leaves cursor_ == end for
      // the empty-reset step above.
      cursor_ = first;
    }
  }

  if (armed_this_round > 0) {
    ms_->Trace(TraceEvent::kScannerArm, cursor_, armed_this_round);
  }
  // Arming sweeps are LRU/frame-table scanning work; root-level lru_scan
  // distinguishes them from kswapd's nested lru_scan in the profile.
  ms_->prof().ChargeLeaf(ProfNode::kLruScan, spent);
  if (cursor_ == first) {
    engine.SleepUntil(engine.now() + config_.round_interval);
  }
  return spent;
}

}  // namespace nomad
