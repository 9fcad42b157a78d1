#include "src/policy/tpp.h"

#include "src/mm/migrate.h"
#include "src/obs/event_registry.h"

namespace nomad {

namespace {

// Attempts a synchronous promotion makes before it counts as failed.
constexpr int kMigrateMaxAttempts = 10;

}  // namespace

void TppPolicy::Install(MemorySystem& ms, Engine& engine) {
  ms_ = &ms;

  config_.kswapd.tier = Tier::kFast;
  kswapd_ = std::make_unique<Kswapd>(&ms, config_.kswapd);
  const ActorId kswapd_id = engine.AddActor(kswapd_.get());
  kswapd_->set_actor_id(kswapd_id);

  scanner_ = std::make_unique<HintFaultScanner>(&ms, config_.scanner);
  engine.AddActor(scanner_.get());

  ms.set_kswapd_waker([this, &ms, &engine](Tier tier) {
    if (tier == Tier::kFast) {
      engine.Wake(kswapd_->actor_id(), engine.now() + ms.platform().costs.daemon_wakeup);
    }
  });

  ms.set_hint_fault_handler([this](ActorId cpu, AddressSpace& as, Vpn vpn) {
    return OnHintFault(cpu, as, vpn);
  });
}

Cycles TppPolicy::OnHintFault(ActorId /*cpu*/, AddressSpace& as, Vpn vpn) {
  MemorySystem& ms = *ms_;
  const KernelCosts& costs = ms.platform().costs;
  // The span shows TPP's defining cost structure in the profile: its
  // promotions appear as sync_migrate nested *inside* hint_fault, i.e. on
  // the faulting thread's critical path, where NOMAD's sit under tpm.
  ProfScope span(ms.prof(), ProfNode::kHintFault);
  Pte* pte = ms.PteOf(as, vpn);
  Cycles cost = costs.pte_update;
  ms.prof().Charge(cost);
  ms.Trace(TraceEvent::kHintFault, vpn);
  ms.ResolveHintFault(*pte);  // restore access so the faulting load can retire

  const Pfn pfn = pte->pfn;
  PageFrame f = ms.pool().frame(pfn);
  if (f.tier() == Tier::kFast) {
    return cost;  // raced with another promotion; nothing to do
  }

  // NUMA-hint fault path: record the touch. Activation goes through the
  // batched pagevec, so the page typically needs several faults before TPP
  // considers it hot.
  ms.lru(Tier::kSlow).MarkAccessed(pfn);
  cost += costs.lru_op;
  ms.prof().Charge(costs.lru_op);

  if (!f.active()) {
    ms.counters().Add(cnt::kTppFaultNotActive, 1);
    return cost;
  }

  // Promotion requires headroom on the fast node; TPP decouples allocation
  // from reclaim by waking kswapd rather than reclaiming inline.
  FramePool& pool = ms.pool();
  if (pool.FreeFrames(Tier::kFast) <= pool.LowWatermark(Tier::kFast)) {
    ms.counters().Add(cnt::kTppPromoteSkippedNomem, 1);
    if (ms.engine()) {
      ms.engine()->Wake(kswapd_->actor_id(), ms.Now() + costs.daemon_wakeup);
    }
    return cost;
  }

  // Synchronous promotion on the faulting thread's critical path.
  MigrateResult r = MigratePageWithRetry(ms, as, vpn, Tier::kFast, kMigrateMaxAttempts);
  cost += r.cycles;
  ms.counters().Add(r.success ? cnt::kTppPromote : cnt::kTppPromoteFail, 1);
  // Cycle attribution for the Figure 2 breakdown: promotion work executes
  // on the application core.
  ms.counters().Add(cnt::kTppPromoteCycles, r.cycles);
  return cost;
}

}  // namespace nomad
