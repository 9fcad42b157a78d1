#include "src/mm/kswapd.h"

#include <algorithm>

#include "src/obs/event_registry.h"

namespace nomad {

Kswapd::Kswapd(MemorySystem* ms, const Config& config) : ms_(ms), config_(config) {}

std::string Kswapd::name() const {
  return std::string("kswapd-") + TierName(config_.tier);
}

MigrateResult Kswapd::DefaultReclaimPage(Pfn pfn) {
  PageFrame f = ms_->pool().frame(pfn);
  if (config_.tier == Tier::kSlow || !f.mapped()) {
    // Nothing generic to do on the slow node (no swap device is modelled);
    // policies plug shadow reclaim in via pre_reclaim_fn.
    return MigrateResult{};
  }
  return MigratePageSync(*ms_, *f.owner(), f.vpn(), Tier::kSlow);
}

Cycles Kswapd::ReclaimRound() {
  FramePool& pool = ms_->pool();
  LruLists& lru = ms_->lru(config_.tier);
  const KernelCosts& costs = ms_->platform().costs;
  const Tier tier = config_.tier;
  // The round is one kswapd_reclaim span; shadow reclaim and the demotion
  // migrations charge themselves as children, LRU bookkeeping accumulates
  // into one lru_scan leaf below, and only the setup cost books as self.
  ProfScope span(ms_->prof(), ProfNode::kKswapdReclaim);
  Cycles lru_cost = 0;
  Cycles spent = costs.daemon_wakeup / 4;  // loop setup / lru lock costs
  ms_->prof().Charge(spent);

  // Give policies first shot (NOMAD: free shadow pages before demoting).
  if (pre_reclaim_) {
    const uint64_t freed = pre_reclaim_(config_.scan_batch, &spent);
    if (freed > 0 && !pool.BelowLowWatermark(tier)) {
      return spent;
    }
  }

  // Refill the inactive list from the active tail when it runs low
  // (shrink_active_list): demotes list membership, clears A-bits so the
  // next scan measures fresh activity. TLB invalidations are batched: one
  // shootdown per refill round, as Linux batches its reclaim flushes.
  if (lru.InactiveIsLow()) {
    bool any = false;
    for (uint64_t i = 0; i < config_.scan_batch && lru.ActiveTail() != kInvalidPfn; i++) {
      const Pfn pfn = lru.ActiveTail();
      PageFrame f = pool.frame(pfn);
      Pte* pte = f.mapped() ? ms_->PteOf(*f.owner(), f.vpn()) : nullptr;
      if (pte != nullptr) {
        pte->accessed = false;
        spent += costs.pte_update;
        lru_cost += costs.pte_update;
      }
      lru.Deactivate(pfn);
      spent += costs.lru_op;
      lru_cost += costs.lru_op;
      any = true;
    }
    if (any && lru.InactiveTail() != kInvalidPfn) {
      PageFrame f = pool.frame(lru.InactiveTail());
      if (f.mapped()) {
        const Cycles c = ms_->TlbShootdown(*f.owner(), f.vpn());
        spent += c;
        lru_cost += c;
      }
    }
  }

  // Scan the inactive tail.
  uint64_t scanned = 0;
  while (scanned < config_.scan_batch && pool.BelowHighWatermark(tier)) {
    Pfn pfn = victim_ ? victim_() : kInvalidPfn;
    if (pfn == kInvalidPfn) {
      pfn = lru.InactiveTail();
    }
    if (pfn == kInvalidPfn) {
      break;
    }
    scanned++;
    PageFrame f = pool.frame(pfn);
    if (!f.mapped()) {
      // Stray unmapped frame on the LRU; drop it.
      lru.Remove(pfn);
      pool.Free(pfn);
      spent += costs.lru_op;
      lru_cost += costs.lru_op;
      continue;
    }
    if (f.migrating()) {
      // A TPM transaction owns this frame; leave it alone.
      lru.RotateInactive(pfn);
      spent += costs.lru_op;
      lru_cost += costs.lru_op;
      continue;
    }
    Pte* pte = ms_->PteOf(*f.owner(), f.vpn());
    spent += costs.lru_op + costs.pte_update;
    lru_cost += costs.lru_op + costs.pte_update;
    if (pte != nullptr && pte->accessed) {
      // Referenced since the last scan: second chance.
      pte->accessed = false;
      if (f.referenced()) {
        lru.ActivateNow(pfn);
      } else {
        f.set_referenced(true);
        lru.RotateInactive(pfn);
      }
      continue;
    }
    MigrateResult r = reclaim_page_ ? reclaim_page_(pfn) : DefaultReclaimPage(pfn);
    spent += r.cycles;
    if (r.success) {
      pages_demoted_++;
      consecutive_failures_ = 0;
    } else {
      demote_failures_++;
      consecutive_failures_++;
      // Avoid burning the node scanning pages we cannot place anywhere.
      lru.RotateInactive(pfn);
      if (consecutive_failures_ >= config_.scan_batch) {
        break;
      }
    }
  }
  ms_->prof().ChargeLeaf(ProfNode::kLruScan, lru_cost);
  return spent;
}

Cycles Kswapd::Step(Engine& engine) {
  FramePool& pool = ms_->pool();
  const Tier tier = config_.tier;
  if (pool.FreeFrames(tier) >= pool.HighWatermark(tier)) {
    consecutive_failures_ = 0;
    engine.SleepUntil(engine.now() + kPollInterval);
    return 0;
  }
  ms_->Trace(TraceEvent::kKswapdWake, static_cast<uint64_t>(TierIndex(tier)),
             pool.FreeFrames(tier));
  Cycles spent = ReclaimRound();
  ms_->counters().Add(cnt::kKswapdCycles, spent);
  if (consecutive_failures_ >= config_.scan_batch) {
    // Thrashing against a full lower tier; back off.
    consecutive_failures_ = 0;
    engine.SleepUntil(engine.now() + kPollInterval);
    return 0;
  }
  return std::max<Cycles>(spent, 1);
}

}  // namespace nomad
