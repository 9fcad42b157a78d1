#include "src/nomad/nomad_policy.h"

#include <algorithm>

#include "src/mm/migrate.h"
#include "src/obs/event_registry.h"

namespace nomad {

namespace {

// The allocation-failure hook's first reclaim target (shadows per failed
// allocation), the cap its doubling stops at, and the consecutive misses
// after which it stands down (see the hook in Install).
constexpr uint64_t kAllocFailReclaimFactor = 10;
constexpr uint64_t kAllocFailReclaimCap = 640;
constexpr uint32_t kAllocFailMaxAttempts = 5;

}  // namespace

void NomadPolicy::Install(MemorySystem& ms, Engine& engine) {
  ms_ = &ms;
  shadows_ = std::make_unique<ShadowManager>(&ms);
  queues_ = std::make_unique<PromotionQueues>(&ms, config_.pcq);
  if (config_.enable_admission) {
    admission_ = std::make_unique<AdmissionController>(&ms, config_.admission);
    queues_->set_admission(admission_.get());
  }

  kpromote_ = std::make_unique<KpromoteActor>(&ms, queues_.get(), shadows_.get(),
                                              config_.kpromote);
  kpromote_->set_admission(admission_.get());
  const ActorId kpromote_id = engine.AddActor(kpromote_.get());
  kpromote_->set_actor_id(kpromote_id);

  config_.kswapd_fast.tier = Tier::kFast;
  kswapd_fast_ = std::make_unique<Kswapd>(&ms, config_.kswapd_fast);
  const ActorId kf_id = engine.AddActor(kswapd_fast_.get());
  kswapd_fast_->set_actor_id(kf_id);
  kswapd_fast_->set_reclaim_page_fn([this](Pfn pfn) { return DemotePage(pfn); });
  // Victim preference: a clean shadowed page near the inactive tail demotes
  // by remapping - no copy, no slow-tier allocation - so pick one when
  // available. This is what keeps demotion off the copy path during
  // thrashing (sec. 3.2).
  kswapd_fast_->set_victim_fn([this, &ms]() -> Pfn {
    // First choice: the oldest shadowed page that currently sits on the
    // inactive list and is clean - its demotion is a pure remap.
    const Pfn remappable = shadows_->OldestRemappableMaster(64, [this, &ms](Pfn m) {
      const PageFrame f = ms.pool().frame(m);
      if (!f.mapped() || f.migrating() || f.lru() != LruList::kInactive) {
        return false;
      }
      const Pte* pte = ms_->PteOf(*f.owner(), f.vpn());
      return pte != nullptr && pte->present && pte->pfn == m && !pte->dirty;
    });
    if (remappable != kInvalidPfn) {
      return remappable;
    }
    // Second choice: a remappable page near the inactive tail.
    Pfn pfn = ms.lru(Tier::kFast).InactiveTail();
    for (int i = 0; i < 64 && pfn != kInvalidPfn; i++) {
      const PageFrame f = ms.pool().frame(pfn);
      if (f.shadowed() && f.mapped() && !f.migrating()) {
        const Pte* pte = ms.PteOf(*f.owner(), f.vpn());
        if (pte != nullptr && pte->present && pte->pfn == pfn && !pte->dirty) {
          return pfn;
        }
      }
      pfn = f.lru_prev();
    }
    return kInvalidPfn;  // no remappable victim; default to the tail
  });
  kpromote_->set_kswapd_fast_id(kf_id);

  config_.kswapd_slow.tier = Tier::kSlow;
  kswapd_slow_ = std::make_unique<Kswapd>(&ms, config_.kswapd_slow);
  const ActorId ks_id = engine.AddActor(kswapd_slow_.get());
  kswapd_slow_->set_actor_id(ks_id);
  kswapd_slow_->set_pre_reclaim_fn([this](uint64_t needed, Cycles* cost) {
    return shadows_->ReclaimShadows(needed, cost);
  });

  scanner_ = std::make_unique<HintFaultScanner>(&ms, config_.scanner);
  engine.AddActor(scanner_.get());

  if (config_.enable_governor) {
    governor_ = std::make_unique<ThrashGovernor>(&ms, &gate_, config_.governor);
    engine.AddActor(governor_.get());
    scanner_->set_enabled_fn([this] { return gate_.open; });
    kpromote_->set_enabled_fn([this] { return gate_.open; });
  }

  ms.set_kswapd_waker([this, &engine, &ms](Tier tier) {
    Kswapd* k = tier == Tier::kFast ? kswapd_fast_.get() : kswapd_slow_.get();
    engine.Wake(k->actor_id(), engine.now() + ms.platform().costs.daemon_wakeup);
  });

  // Allocation-failure path: free shadows (targeting 10x the request, here
  // one page at a time) before declaring OOM. Consecutive fruitless
  // attempts escalate the target exponentially, and the loop is bounded:
  // after kAllocFailMaxAttempts misses the hook stands down until the
  // shadow index repopulates, instead of walking an empty reclaim FIFO on
  // every failing allocation forever.
  ms.pool().set_alloc_failure_hook([this](Tier tier) {
    if (tier != Tier::kSlow) {
      return false;
    }
    if (alloc_fail_streak_ >= kAllocFailMaxAttempts) {
      if (shadows_->count() == 0) {
        return false;  // still nothing to reclaim; fail fast
      }
      alloc_fail_streak_ = 0;  // shadows reappeared; re-arm
    }
    const uint64_t target =
        std::min<uint64_t>(kAllocFailReclaimFactor << alloc_fail_streak_,
                           kAllocFailReclaimCap);
    Cycles cost = 0;
    const uint64_t freed = shadows_->ReclaimShadows(target, &cost);
    if (freed == 0) {
      alloc_fail_streak_++;
      ms_->counters().Add(cnt::kNomadAllocFailReclaimMiss, 1);
      return false;
    }
    if (alloc_fail_streak_ > 0) {
      // An escalated attempt succeeded: record how hard we had to pull.
      ms_->counters().Add(cnt::kNomadAllocFailEscalate, 1);
      ms_->Trace(TraceEvent::kReclaimEscalate, target, freed);
    }
    alloc_fail_streak_ = 0;
    return true;
  });

  ms.set_hint_fault_handler([this](ActorId cpu, AddressSpace& as, Vpn vpn) {
    return OnHintFault(cpu, as, vpn);
  });
  ms.set_write_fault_handler([this](ActorId cpu, AddressSpace& as, Vpn vpn) {
    return OnWriteProtectFault(cpu, as, vpn);
  });
}

Cycles NomadPolicy::OnHintFault(ActorId /*cpu*/, AddressSpace& as, Vpn vpn) {
  MemorySystem& ms = *ms_;
  const KernelCosts& costs = ms.platform().costs;
  ProfScope span(ms.prof(), ProfNode::kHintFault);
  Pte* pte = ms.PteOf(as, vpn);
  Cycles cost = costs.pte_update;
  ms.prof().Charge(cost);
  ms.Trace(TraceEvent::kHintFault, vpn);
  // "Before migration commences, TPM clears the protection bit of the page
  // frame" - the page never hint-faults again while being considered.
  ms.ResolveHintFault(*pte);

  const Pfn pfn = pte->pfn;
  PageFrame f = ms.pool().frame(pfn);
  if (f.tier() == Tier::kFast) {
    return cost;
  }

  ms.lru(Tier::kSlow).MarkAccessed(pfn);
  cost += costs.lru_op;
  ms.prof().Charge(costs.lru_op);
  if (!gate_.open) {
    // The thrash governor closed the promotion gate: serve the page in
    // place and do not nominate it.
    return cost;
  }
  // Nominate and return: the PCQ is examined by kpromote on its own
  // (time-paced) schedule, keeping the fault handler - and hence the
  // application's critical path - minimal. Examination frequency must not
  // scale with the fault rate, or candidate expiry feeds back into more
  // faults.
  queues_->EnqueueCandidate(pfn);
  return cost;
}

Cycles NomadPolicy::OnWriteProtectFault(ActorId /*cpu*/, AddressSpace& as, Vpn vpn) {
  // Shadow page fault (Fig. 5): restore the saved write permission and
  // discard the now-divergent shadow copy.
  MemorySystem& ms = *ms_;
  const KernelCosts& costs = ms.platform().costs;
  Pte* pte = ms.PteOf(as, vpn);
  Cycles cost = costs.pte_update;
  if (pte->shadow_rw) {
    pte->writable = true;
    pte->shadow_rw = false;
  } else {
    // Not shadow-protected (shouldn't normally happen): plain restore.
    pte->writable = true;
  }
  PageFrame f = ms.pool().frame(pte->pfn);
  if (f.shadowed()) {
    shadows_->DiscardShadow(pte->pfn);
    cost += costs.lru_op;
    ms.counters().Add(cnt::kNomadShadowFault, 1);
    ms.Trace(TraceEvent::kShadowFault, vpn);
    // A store invalidated the transactional copy: the page re-dirtied
    // after promotion. This is the ledger's re-dirty-rate numerator.
    ms.provenance().OnRedirty(vpn, ms.Now());
  }
  return cost;
}

MigrateResult NomadPolicy::DemotePage(Pfn pfn) {
  MemorySystem& ms = *ms_;
  const KernelCosts& costs = ms.platform().costs;
  PageFrame f = ms.pool().frame(pfn);
  if (!f.mapped() || f.migrating()) {
    return MigrateResult{};
  }
  // Demotion credits: non-urgent background demotion draws from its own
  // token bucket so a demotion burst is paced like promotions are. Urgent
  // reclaim — the node is below its low watermark — must never block
  // behind a throttle (promotion headroom depends on it), so it bypasses
  // admission entirely.
  if (admission_ != nullptr && !ms.pool().BelowLowWatermark(Tier::kFast) &&
      !admission_->AdmitDemotion()) {
    return MigrateResult{};
  }
  AddressSpace& as = *f.owner();
  const Vpn vpn = f.vpn();
  Pte* pte = ms.PteOf(as, vpn);
  if (pte == nullptr || !pte->present || pte->pfn != pfn) {
    return MigrateResult{};
  }

  if (f.shadowed() && !pte->dirty) {
    // Remap-only demotion: the shadow copy is still identical, so demotion
    // is a PTE update - no copy, no allocation on the slow node.
    MigrateResult r;
    const Pfn shadow = shadows_->DetachShadow(pfn);
    r.cycles += costs.pte_update;
    pte->present = false;
    r.cycles += ms.TlbShootdown(as, vpn);
    pte->pfn = shadow;
    pte->present = true;
    pte->writable = pte->shadow_rw;
    pte->shadow_rw = false;
    pte->accessed = false;
    pte->dirty = false;
    r.cycles += costs.pte_update;

    PageFrame s = ms.pool().frame(shadow);
    s.set_owner(&as);
    s.set_vpn(vpn);
    s.set_referenced(false);
    s.set_active(false);
    // The detached shadow is now a live, mapped slow-tier page the hint
    // scanner must be able to re-arm.
    ms.pool().NoteScanCandidate(shadow);
    ms.lru(Tier::kSlow).AddInactive(shadow);

    ms.lru(Tier::kFast).Remove(pfn);
    ms.llc().InvalidatePage(pfn);
    ms.pool().Free(pfn);
    ms.BeginMigrationWindow(as, vpn, ms.Now() + r.cycles);
    ms.counters().Add(cnt::kNomadDemoteRemap, 1);
    ms.counters().Add(cnt::kNomadDemoteRecent, 1);
    ms.Trace(TraceEvent::kDemote, vpn, r.cycles);
    // Books as kswapd_reclaim self when kswapd drives the demotion; the
    // copy path below attributes through sync_migrate instead.
    ms.prof().Charge(r.cycles);
    ms.hists().Record(hist::kDemotionLatency, r.cycles);
    ms.provenance().OnDemote(vpn, ms.Now());
    r.success = true;
    return r;
  }

  // Demoting a page that arrived by promotion recycles that promotion -
  // the thrash governor's signal. Cold never-promoted victims are warm-up.
  if (f.promoted()) {
    ms.counters().Add(cnt::kNomadDemoteRecent, 1);
  }
  if (f.shadowed()) {
    // Dirty master: the shadow is stale. Free it first (which also makes
    // room on the slow node for the copy), then demote by copying.
    shadows_->DiscardShadow(pfn);
  }
  MigrateResult r = MigratePageSync(ms, as, vpn, Tier::kSlow);
  if (r.success) {
    ms.counters().Add(cnt::kNomadDemoteCopy, 1);
  }
  return r;
}

}  // namespace nomad
