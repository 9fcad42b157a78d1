#include "src/mm/memory_system.h"

#include <algorithm>

#include "src/check/check.h"
#include "src/obs/event_registry.h"

namespace nomad {

MemorySystem::MemorySystem(const PlatformSpec& platform, Engine* engine)
    : platform_(platform),
      engine_(engine),
      pool_(platform),
      llc_(platform.llc_bytes) {
  for (int t = 0; t < kNumTiers; t++) {
    lru_[t] = std::make_unique<LruLists>(&pool_);
    devices_[t] = MemoryDevice(platform.tiers[t]);
  }
}

void MemorySystem::set_fault_injector(std::unique_ptr<FaultInjector> f) {
  faults_ = std::move(f);
  if (faults_) {
    faults_->Bind(&trace_, engine_);
    pool_.set_fault_injector(faults_.get());
  } else {
    pool_.set_fault_injector(nullptr);
  }
}

void MemorySystem::RegisterCpu(ActorId id) {
  // Real TLBs hold ~1.5K 4 KB entries against 16 GB of DRAM; scale the
  // entry count with the platform scale so reach ratios are preserved.
  size_t entries = std::max<uint64_t>(16, 1536 / platform_.scale.denom);
  if (tlbs_.size() <= id) {
    tlbs_.resize(id + 1);
  }
  tlbs_[id] = std::make_unique<Tlb>(entries);
}

Pfn MemorySystem::MapNewPage(AddressSpace& as, Vpn vpn, Tier preferred, bool writable) {
  Pfn pfn = pool_.Alloc(preferred);
  if (pfn == kInvalidPfn) {
    counters_.Add(cnt::kOom, 1);
    return kInvalidPfn;
  }
  PageFrame f = pool_.frame(pfn);
  f.set_owner(&as);
  f.set_vpn(vpn);
  Pte& pte = as.table().Ensure(vpn);
  pte = Pte{};
  pte.pfn = pfn;
  pte.present = true;
  pte.writable = writable;
  pool_.NoteScanCandidate(pfn);
  lru(f.tier()).AddInactive(pfn);
  if (kswapd_waker_ && pool_.BelowLowWatermark(f.tier())) {
    kswapd_waker_(f.tier());
  }
  return pfn;
}

void MemorySystem::InstallMappingSilent(AddressSpace& as, Vpn vpn, Pfn pfn, bool writable) {
  PageFrame f = pool_.frame(pfn);
  f.set_owner(&as);
  f.set_vpn(vpn);
  Pte& pte = as.table().Ensure(vpn);
  pte = Pte{};
  pte.pfn = pfn;
  pte.present = true;
  pte.writable = writable;
  pool_.NoteScanCandidate(pfn);
  lru(f.tier()).AddInactive(pfn);
}

void MemorySystem::RepointMappingSilent(AddressSpace& as, Vpn vpn, Pfn new_pfn) {
  Pte* pte = as.table().Lookup(vpn);
  if (pte == nullptr || !pte->present) {
    return;
  }
  const Pfn old_pfn = pte->pfn;
  PageFrame old_frame = pool_.frame(old_pfn);
  PageFrame new_frame = pool_.frame(new_pfn);
  new_frame.set_owner(&as);
  new_frame.set_vpn(vpn);
  new_frame.set_referenced(old_frame.referenced());
  new_frame.set_active(old_frame.active());
  lru(old_frame.tier()).Remove(old_pfn);
  if (new_frame.active()) {
    lru(new_frame.tier()).AddActive(new_pfn);
  } else {
    lru(new_frame.tier()).AddInactive(new_pfn);
  }
  pte->pfn = new_pfn;
  pool_.NoteScanCandidate(new_pfn);
  for (ActorId cpu : as.cpus()) {
    tlb(cpu).Invalidate(vpn);
  }
  llc_.InvalidatePage(old_pfn);
  pool_.Free(old_pfn);
}

void MemorySystem::UnmapAndFree(AddressSpace& as, Vpn vpn) {
  Pte* pte = as.table().Lookup(vpn);
  if (!pte || !pte->present) {
    return;
  }
  Pfn pfn = pte->pfn;
  for (auto& tlb : tlbs_) {
    if (tlb) {
      tlb->Invalidate(vpn);
    }
  }
  llc_.InvalidatePage(pfn);
  lru(pool_.TierOf(pfn)).Remove(pfn);
  pool_.Free(pfn);
  *pte = Pte{};
}

void MemorySystem::ReserveFastFrames(uint64_t frames) {
  for (uint64_t i = 0; i < frames; i++) {
    Pfn pfn = pool_.AllocOn(Tier::kFast);
    if (pfn == kInvalidPfn) {
      break;
    }
    reserved_.push_back(pfn);
  }
}

Cycles MemorySystem::TlbShootdown(AddressSpace& as, Vpn vpn) {
  const ActorId self = engine_ ? engine_->current() : ~ActorId{0};
  uint64_t remote_targets = 0;
  for (ActorId cpu : as.cpus()) {
    if (cpu < tlbs_.size() && tlbs_[cpu]) {
      tlbs_[cpu]->Invalidate(vpn);
    }
    if (cpu != self) {
      remote_targets++;
      if (engine_) {
        engine_->Penalize(cpu, platform_.costs.ipi_remote_penalty);
      }
    }
  }
  ++FaultSlot(cnt_tlb_shootdown_, cnt::kTlbShootdown);
  FaultSlot(cnt_tlb_shootdown_ipis_, cnt::kTlbShootdownIpis) += remote_targets;
  Cycles cost = platform_.costs.tlb_shootdown_base +
                platform_.costs.tlb_shootdown_per_cpu * remote_targets;
  // A straggling ack: one responder's IPI sits in a long interrupt-off
  // region, stretching the initiator's wait.
  if (faults_ && faults_->ShouldInject(FaultKind::kTlbDelay)) {
    cost += faults_->LatencyFor(FaultKind::kTlbDelay);
    counters_.Add(cnt::kFaultInjTlbDelay, 1);
  }
  return cost;
}

Cycles MemorySystem::CopyPageCost(Tier from, Tier to) {
  const Cycles now = Now();
  Cycles r = device(from).Read(now, kPageSize);
  Cycles w = device(to).Write(now, kPageSize);
  // The copy loop pipelines reads and writes; the slower side dominates.
  Cycles cost = std::max(r, w);
  // Device contention spike: the copy collides with a burst of demand
  // traffic on one of the tiers.
  if (faults_ && faults_->ShouldInject(FaultKind::kLatencySpike)) {
    cost += faults_->LatencyFor(FaultKind::kLatencySpike);
    counters_.Add(cnt::kFaultInjLatencySpike, 1);
  }
  return cost;
}

void MemorySystem::BeginMigrationWindow(AddressSpace& as, Vpn vpn, Cycles end) {
  const Cycles now = Now();
  // Prune expired windows so the map stays tiny even across millions of
  // migrations.
  while (window_fifo_head_ < window_fifo_.size() &&
         window_fifo_[window_fifo_head_].first <= now) {
    const auto& [e, key] = window_fifo_[window_fifo_head_];
    auto it = migration_windows_.find(key);
    if (it != migration_windows_.end() && it->second <= now) {
      migration_windows_.erase(it);
    }
    window_fifo_head_++;
  }
  if (window_fifo_head_ > 4096 && window_fifo_head_ * 2 > window_fifo_.size()) {
    window_fifo_.erase(window_fifo_.begin(),
                       window_fifo_.begin() + static_cast<long>(window_fifo_head_));
    window_fifo_head_ = 0;
  }
  // The membership filter can only shed stale bits wholesale; pruning makes
  // the empty state common enough for that to keep it sparse.
  if (migration_windows_.empty()) {
    window_filter_ = 0;
  }
  migration_windows_[{&as, vpn}] = end;
  window_filter_ |= WindowFilterBit(vpn);
  window_fifo_.emplace_back(end, WindowKey{&as, vpn});
}

Cycles MemorySystem::DemandFault(ActorId /*cpu*/, AddressSpace& as, Vpn vpn) {
  ++FaultSlot(cnt_fault_demand_, cnt::kFaultDemand);
  MapNewPage(as, vpn, Tier::kFast, /*writable=*/true);
  return platform_.costs.pte_update;
}

Cycles MemorySystem::Access(ActorId cpu, AddressSpace& as, Vpn vpn, uint64_t offset,
                            bool is_write, unsigned mlp, AccessInfo* info) {
  as.NoteCpu(cpu);
  Tlb& tlb = *tlbs_.at(cpu);
  return AccessResolved(cpu, as, tlb, tlb.Lookup(vpn), vpn, offset, is_write, mlp, info);
}

}  // namespace nomad
