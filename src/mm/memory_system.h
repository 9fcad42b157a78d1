// MemorySystem: the simulated machine's MMU + kernel MM glue.
//
// This facade wires frames, page tables, TLBs, the LLC and the tier devices
// together and exposes:
//  - Access(): execute one user load/store, walking TLB -> PTE -> LLC ->
//    device, taking faults through policy-installed handlers, maintaining
//    hardware A/D bits, and returning the access's simulated latency,
//  - kernel primitives used by migration code: TLB shootdowns, page-copy
//    cost charging, map/unmap helpers, migration-window blocking,
//  - hooks: hint-fault handler (TPP promotion / NOMAD PCQ entry),
//    write-protect fault handler (NOMAD shadow fault), access observers
//    (PEBS sampling), kswapd wakeups and allocation-failure reclaim.
//
// Tiering policies (src/policy, src/nomad) are built exclusively on this
// interface; none of them reach around it, which keeps the comparison
// between TPP, Memtis and NOMAD apples-to-apples.
#ifndef SRC_MM_MEMORY_SYSTEM_H_
#define SRC_MM_MEMORY_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/base/annotations.h"
#include "src/check/check.h"
#include "src/fault/fault_injector.h"
#include "src/mem/device.h"
#include "src/mem/platform.h"
#include "src/mm/address_space.h"
#include "src/mm/cache.h"
#include "src/mm/frame_pool.h"
#include "src/mm/lru.h"
#include "src/mm/tlb.h"
#include "src/obs/hist.h"
#include "src/obs/prof.h"
#include "src/obs/provenance.h"
#include "src/obs/trace.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"

namespace nomad {

// Outcome details of one Access(), for observers and tests.
struct AccessInfo {
  Cycles latency = 0;
  Tier tier = Tier::kFast;
  bool llc_hit = false;
  bool tlb_hit = false;
  bool took_fault = false;
};

class NOMAD_SHARD_CONFINED MemorySystem {
 public:
  // Handles a hint (prot_none) fault. Must leave the PTE accessible (clear
  // prot_none or remap) before returning; returns cycles spent on top of
  // the fixed fault cost. This is where TPP promotes synchronously and
  // where NOMAD feeds its PCQ.
  using HintFaultHandler = std::function<Cycles(ActorId cpu, AddressSpace& as, Vpn vpn)>;

  // Handles a store hitting a non-writable PTE. Must make the PTE writable;
  // returns extra cycles. NOMAD's shadow page fault lives here.
  using WriteFaultHandler = std::function<Cycles(ActorId cpu, AddressSpace& as, Vpn vpn)>;

  // Observes every completed access (PEBS-style samplers subscribe).
  // tlb_miss matters because on CXL platforms PEBS only sees slow-tier
  // loads through dTLB-miss events.
  using AccessObserver =
      std::function<void(ActorId cpu, AddressSpace& as, Vpn vpn, uint64_t offset, bool is_write,
                         bool llc_miss, bool tlb_miss, Tier tier)>;

  MemorySystem(const PlatformSpec& platform, Engine* engine);

  // --- component access -----------------------------------------------
  const PlatformSpec& platform() const { return platform_; }
  Engine* engine() { return engine_; }
  FramePool& pool() { return pool_; }
  LruLists& lru(Tier t) { return *lru_[TierIndex(t)]; }
  MemoryDevice& device(Tier t) { return devices_[TierIndex(t)]; }
  LastLevelCache& llc() { return llc_; }
  CounterSet& counters() { return counters_; }
  TraceSink& trace() { return trace_; }
  const TraceSink& trace() const { return trace_; }
  // Cycle-attribution profiler, latency histograms and per-page ledger.
  // Like the trace sink these are fed per kernel event. Nothing in the
  // simulation reads any of the four back; only exporters and the timeline
  // sampler do.
  Profiler& prof() { return prof_; }
  const Profiler& prof() const { return prof_; }
  HistogramSet& hists() { return hists_; }
  const HistogramSet& hists() const { return hists_; }
  ProvenanceLedger& provenance() { return prov_; }
  const ProvenanceLedger& provenance() const { return prov_; }
  Cycles Now() const { return engine_ ? engine_->now() : 0; }

  // One switch for all four instruments: trace ring, profiler, histograms
  // and provenance ledger. They start on; the runner turns them off before
  // a run's first step when nothing will read them, and a disabled
  // instrument records nothing and allocates nothing. Not to be flipped
  // inside a profiler span.
  void set_instruments_enabled(bool on) {
    trace_.set_enabled(on);
    prof_.set_enabled(on);
    hists_.set_enabled(on);
    prov_.set_enabled(on);
  }
  bool instruments_enabled() const {
    return trace_.enabled() && prof_.enabled() && hists_.enabled() && prov_.enabled();
  }

  // Installs the (optional) fault injector. The MemorySystem owns it and
  // binds it to its trace sink and engine clock; components that consult it
  // (FramePool, TPM, PCQ) reach it through faults().
  void set_fault_injector(std::unique_ptr<FaultInjector> f);
  FaultInjector* faults() { return faults_.get(); }

  // Frames grabbed by ReserveFastFrames(): in use but intentionally
  // unmapped. The invariant checker excludes them from its transient-frame
  // budget.
  const std::vector<Pfn>& reserved_frames() const { return reserved_; }

  // Emits one trace record stamped with the current virtual time and the
  // actor being stepped. Records nothing while the trace sink is disabled.
  void Trace(TraceEvent e, uint64_t arg, uint64_t value = 0) {
    trace_.Emit(e, Now(), engine_ ? static_cast<uint16_t>(engine_->current()) : uint16_t{0},
                arg, value);
  }

  // Migration-lifecycle span links (the mig_* trace events). Off by
  // default: span records land in the trace ring and its summary counts,
  // and the fixed-seed goldens are captured without them. trace_query
  // --span needs them on (nomadsim --spans, or chaos_sim with --trace_out).
  void set_span_tracing(bool on) { spans_enabled_ = on; }
  bool span_tracing() const { return spans_enabled_; }

  // Emits one migration-lifecycle span record (`value` carries the
  // migration transaction id). Gated on span_tracing().
  void TraceSpan(TraceEvent e, uint64_t arg, uint64_t mig_id) {
    if (spans_enabled_) {
      Trace(e, arg, mig_id);
    }
  }

  // Creates the TLB for a simulated CPU; id is the engine ActorId.
  void RegisterCpu(ActorId id);
  Tlb& tlb(ActorId id) { return *tlbs_[id]; }

  // --- setup-time mapping (no cycle charging) ---------------------------
  // Allocates a frame (preferred tier, standard fallback) and maps vpn to
  // it; the new page enters its node's inactive LRU list. Returns the PFN,
  // or kInvalidPfn on OOM.
  Pfn MapNewPage(AddressSpace& as, Vpn vpn, Tier preferred = Tier::kFast, bool writable = true);

  // Unmaps and frees the frame backing vpn (teardown / explicit demote
  // tooling). No-op when unmapped.
  void UnmapAndFree(AddressSpace& as, Vpn vpn);

  // Installs a fresh mapping vpn -> pfn for an already-allocated frame:
  // frame ownership, a clean PTE, inactive LRU membership. No counters,
  // traces, or kswapd wakeups — setup/tooling only. Layers outside mm/
  // must use this instead of writing PTE bits directly (lint rule NL001).
  void InstallMappingSilent(AddressSpace& as, Vpn vpn, Pfn pfn, bool writable);

  // Repoints an existing mapping at an already-allocated frame, carrying
  // LRU state across, invalidating TLBs and the old frame's cache lines,
  // and freeing the old frame. Same silent contract as above.
  void RepointMappingSilent(AddressSpace& as, Vpn vpn, Pfn new_pfn);

  // Grabs frames off the fast node to emulate pre-existing consumers (the
  // 10 GB pre-fill in Fig. 1's setup, the ~3-4 GB the OS occupies).
  void ReserveFastFrames(uint64_t frames);

  // --- the data path ----------------------------------------------------
  // One user access to byte `offset` of page `vpn`. `mlp` approximates
  // memory-level parallelism: the device-latency component is divided by
  // it (pointer chasing passes 1, streaming workloads more).
  Cycles Access(ActorId cpu, AddressSpace& as, Vpn vpn, uint64_t offset, bool is_write,
                unsigned mlp = 4, AccessInfo* info = nullptr);

  // One queued access of an AccessBatch submission.
  struct BatchAccess {
    Vpn vpn = 0;
    uint64_t offset = 0;
    bool is_write = false;
  };

  // Executes `n` accesses in order for one CPU — exactly equivalent to n
  // Access() calls (same state mutations in the same order, so metrics are
  // byte-identical) — writing each access's latency into lat_out[i] and
  // returning the sum. The common case (TLB hit, no dirty-bit assist, no
  // PEBS observers) resolves fully inline: TLB probe, LLC lookup, device
  // charge. Everything else — walks, faults, migration windows, policy
  // hooks, observers — falls out to the out-of-line resolver per access.
  // Non-virtual and header-inline so workload Step loops amortize engine
  // dispatch over the whole batch.
  Cycles AccessBatch(ActorId cpu, AddressSpace& as, const BatchAccess* ops, size_t n,
                     unsigned mlp, Cycles* lat_out);

  // --- kernel primitives (used by migrate.cc, nomad/tpm.cc, kswapd) -----
  // Direct PTE access (the "kernel" manipulates entries it owns).
  Pte* PteOf(AddressSpace& as, Vpn vpn) { return as.table().Lookup(vpn); }

  // Restores access after a NUMA-hint fault (the scanner set prot_none so
  // the next touch would fault). Policy layers call this instead of
  // flipping PTE bits themselves (lint rule NL001). Re-arms the frame as a
  // scan candidate: it just became armable again.
  void ResolveHintFault(Pte& pte) {
    pte.prot_none = false;
    pool_.NoteScanCandidate(pte.pfn);
  }

  // Invalidates vpn on every CPU in as's cpumask and charges the initiator;
  // remote CPUs get an IPI service penalty via the engine. Returns the
  // initiator-side cost.
  Cycles TlbShootdown(AddressSpace& as, Vpn vpn);

  // Charges a 4 KB page copy from `from` to `to` against both devices and
  // returns its duration.
  Cycles CopyPageCost(Tier from, Tier to);

  // Marks a migration window on (as,vpn) ending at `end`. State changes in
  // the simulator are atomic within an actor step, so a concurrent accessor
  // cannot observe the page half-migrated; instead, its TLB-miss walk finds
  // the window and blocks until `end`. This is what puts TPP's synchronous
  // migration on the critical path of *every* thread touching the page.
  void BeginMigrationWindow(AddressSpace& as, Vpn vpn, Cycles end);

  // --- hooks -------------------------------------------------------------
  void set_hint_fault_handler(HintFaultHandler h) { hint_fault_ = std::move(h); }
  void set_write_fault_handler(WriteFaultHandler h) { write_fault_ = std::move(h); }
  void add_access_observer(AccessObserver o) { observers_.push_back(std::move(o)); }
  void set_kswapd_waker(std::function<void(Tier)> w) { kswapd_waker_ = std::move(w); }

  // Counts of useful user bytes moved, for bandwidth accounting.
  uint64_t user_bytes() const { return user_bytes_; }

 private:
  // Demand-zero fault: first touch of an unmapped page.
  Cycles DemandFault(ActorId cpu, AddressSpace& as, Vpn vpn);

  // Everything past the TLB probe: dirty-bit assists, page walks, faults,
  // migration-window blocking, the physical access, observers. `entry` is
  // the probe's result (possibly null); the probe is NOT repeated here —
  // TLB ticks advance exactly once per access. Defined inline below: with
  // ~80% of micro-workload accesses missing the TLB, this IS the hot path,
  // and the cross-TU call (plus the out-of-line Tlb::Fill it prevented the
  // compiler from inlining) was measurable.
  Cycles AccessResolved(ActorId cpu, AddressSpace& as, Tlb& tlb, Tlb::Entry* entry, Vpn vpn,
                        uint64_t offset, bool is_write, unsigned mlp, AccessInfo* info);

  PlatformSpec platform_;
  Engine* engine_;
  FramePool pool_;
  std::unique_ptr<LruLists> lru_[kNumTiers];
  MemoryDevice devices_[kNumTiers];
  LastLevelCache llc_;
  // Dense ActorId-indexed registry (ids are small engine indices); null for
  // non-CPU actors. Replaced a std::map whose per-access .at() lookup showed
  // up in the profile.
  std::vector<std::unique_ptr<Tlb>> tlbs_;
  CounterSet counters_;
  TraceSink trace_;
  Profiler prof_;
  HistogramSet hists_;
  ProvenanceLedger prov_;
  std::unique_ptr<FaultInjector> faults_;
  bool spans_enabled_ = false;

  HintFaultHandler hint_fault_;
  WriteFaultHandler write_fault_;
  std::vector<AccessObserver> observers_;
  std::function<void(Tier)> kswapd_waker_;

  // (as pointer, vpn) -> window end time, plus a FIFO for expiry pruning.
  using WindowKey = std::pair<const AddressSpace*, Vpn>;
  std::map<WindowKey, Cycles> migration_windows_;
  std::vector<std::pair<Cycles, WindowKey>> window_fifo_;
  size_t window_fifo_head_ = 0;
  // 64-bit membership summary over the live windows' VPNs. Every TLB miss
  // used to probe the window map; under tpp that was ~1.8M tree finds per
  // 2M ops, nearly all misses. A lookup whose filter bit is clear cannot be
  // in the map (bits are set on insert and the filter is only zeroed when
  // the map empties — which the pruning keeps frequent), so the common case
  // is one multiply and an AND. False positives just fall through to find.
  uint64_t window_filter_ = 0;
  static uint64_t WindowFilterBit(Vpn vpn) {
    return uint64_t{1} << ((vpn * uint64_t{0x9e3779b97f4a7c15}) >> 58);
  }

  // Device-contention fault opportunity, consulted once per LLC-miss
  // device access. This is THE per-access fault decision point, and it is
  // deliberately a single shared helper: the scalar path (AccessResolved)
  // and the batched fast path (AccessBatch) must consult the injector at
  // exactly the same opportunities, in the same order, or a K=1 and a K=8
  // execution of the same access stream would draw different fault
  // schedules (tests/mm/batch_fault_test.cc proves they do not). It costs
  // one predictable null check when no injector is installed.
  Cycles AccessFaultLatency() {
    if (faults_ != nullptr && faults_->ShouldInject(FaultKind::kLatencySpike)) {
      counters_.Add(cnt::kFaultInjLatencySpike, 1);
      return faults_->LatencyFor(FaultKind::kLatencySpike);
    }
    return 0;
  }

  // Counter slots charged on the access fast path, resolved on first use
  // instead of per-event string lookups (CounterSet references are stable
  // and this set is never Reset()). Lazy on purpose: creating them eagerly
  // would add zero-valued counters to runs that never take such a fault,
  // changing exported metrics bytes.
  uint64_t& FaultSlot(uint64_t*& slot, std::string_view name) {
    if (slot == nullptr) {
      slot = &counters_.At(name);
    }
    return *slot;
  }
  uint64_t* cnt_fault_demand_ = nullptr;
  uint64_t* cnt_tlb_shootdown_ = nullptr;
  uint64_t* cnt_tlb_shootdown_ipis_ = nullptr;
  uint64_t* cnt_fault_hint_ = nullptr;
  uint64_t* cnt_fault_write_protect_ = nullptr;
  uint64_t* cnt_fault_migration_block_ = nullptr;
  uint64_t* cnt_fault_unresolved_ = nullptr;

  std::vector<Pfn> reserved_;
  uint64_t user_bytes_ = 0;
};

inline Cycles MemorySystem::AccessResolved(ActorId cpu, AddressSpace& as, Tlb& tlb,
                                           Tlb::Entry* entry, Vpn vpn, uint64_t offset,
                                           bool is_write, unsigned mlp, AccessInfo* info) {
  const KernelCosts& costs = platform_.costs;
  Cycles total = 0;
  bool tlb_hit = false;
  bool took_fault = false;
  Pfn pfn = kInvalidPfn;

  if (entry && (!is_write || entry->writable)) {
    tlb_hit = true;
    pfn = entry->pfn;
    if (is_write && !entry->dirty) {
      // Microcode A/D assist: set the PTE dirty bit on first store through
      // a clean cached translation.
      Pte* pte = as.table().Lookup(vpn);
      NOMAD_CHECK(pte != nullptr, "tlb entry with no pte, vpn=", vpn, " pfn=", entry->pfn);
      pte->dirty = true;
      pte->accessed = true;
      entry->dirty = true;
      total += costs.pte_update;
    }
  } else {
    // TLB miss (or a store through a read-only cached entry): walk.
    total += costs.page_walk;
    // A migration in flight on this page blocks the walk until it ends;
    // the unmap's shootdown guarantees concurrent users take this path.
    if ((window_filter_ & WindowFilterBit(vpn)) != 0) {
      auto it = migration_windows_.find({&as, vpn});
      if (it != migration_windows_.end()) {
        const Cycles now = Now() + total;
        if (it->second > now) {
          total += it->second - now;
          total += costs.page_fault;  // discovered via a fault on the locked page
          ++FaultSlot(cnt_fault_migration_block_, cnt::kFaultMigrationBlock);
          took_fault = true;
        }
        migration_windows_.erase(it);
        if (migration_windows_.empty()) {
          window_filter_ = 0;
        }
      }
    }
    Pte* pte = as.table().Lookup(vpn);
    int guard = 0;
    while (true) {
      if (guard++ > 6) {
        // A fault handler failed to make progress; force-map to keep the
        // simulation alive and count the anomaly.
        ++FaultSlot(cnt_fault_unresolved_, cnt::kFaultUnresolved);
        if (!pte || !pte->present) {
          DemandFault(cpu, as, vpn);
          pte = as.table().Lookup(vpn);
        }
        // No PTE at all: the page was never mapped and the demand fault
        // found no frame on either tier.
        NOMAD_CHECK(pte != nullptr, "unresolved fault left vpn=", vpn,
                    " without a PTE: no frame to map it");
        if (!pte->present) {
          // The PTE exists but both tiers are full, as after UnmapAndFree:
          // no frame backs the page, so nothing is cached and no LLC set or
          // device is charged. The access costs the faults it took.
          if (info) {
            *info = AccessInfo{.latency = total, .took_fault = took_fault};
          }
          return total;
        }
        pte->prot_none = false;
        pte->writable = true;
        pool_.NoteScanCandidate(pte->pfn);
        break;
      }
      if (!pte || !pte->present) {
        took_fault = true;
        total += costs.page_fault;
        total += DemandFault(cpu, as, vpn);
        pte = as.table().Lookup(vpn);
        continue;
      }
      if (pte->prot_none) {
        took_fault = true;
        total += costs.page_fault;
        ++FaultSlot(cnt_fault_hint_, cnt::kFaultHint);
        if (hint_fault_) {
          total += hint_fault_(cpu, as, vpn);
        } else {
          pte->prot_none = false;
          pool_.NoteScanCandidate(pte->pfn);
        }
        pte = as.table().Lookup(vpn);
        continue;
      }
      if (is_write && !pte->writable) {
        took_fault = true;
        total += costs.page_fault;
        ++FaultSlot(cnt_fault_write_protect_, cnt::kFaultWriteProtect);
        if (write_fault_) {
          total += write_fault_(cpu, as, vpn);
        } else {
          pte->writable = true;
        }
        continue;
      }
      break;
    }
    pte->accessed = true;
    if (is_write) {
      pte->dirty = true;
    }
    pfn = pte->pfn;
    entry = &tlb.Fill(vpn, pfn, pte->writable, pte->dirty);
  }

  // Physical access: LLC, then the tier device on a miss.
  const Tier tier = pool_.TierOf(pfn);
  const uint64_t paddr = pfn * kPageSize + (offset % kPageSize);
  const bool llc_hit = llc_.Access(paddr);
  if (llc_hit) {
    total += costs.llc_hit;
  } else {
    const Cycles now = Now() + total;
    const Cycles dev = is_write ? device(tier).Write(now, kCacheLineSize)
                                : device(tier).Read(now, kCacheLineSize);
    const unsigned mlp_div = mlp < 1 ? 1 : mlp;
    Cycles c = dev / mlp_div;
    if (c < 1) {
      c = 1;
    }
    // Demand-traffic contention spike (same decision point as the batched
    // fast path — see AccessFaultLatency).
    c += AccessFaultLatency();
    total += c;
  }
  user_bytes_ += kCacheLineSize;

  for (const AccessObserver& obs : observers_) {
    obs(cpu, as, vpn, offset % kPageSize, is_write, !llc_hit, !tlb_hit, tier);
  }
  if (info) {
    info->latency = total;
    info->tier = tier;
    info->llc_hit = llc_hit;
    info->tlb_hit = tlb_hit;
    info->took_fault = took_fault;
  }
  return total;
}

inline Cycles MemorySystem::AccessBatch(ActorId cpu, AddressSpace& as, const BatchAccess* ops,
                                        size_t n, unsigned mlp, Cycles* lat_out) {
  as.NoteCpu(cpu);
  Tlb& tlb = *tlbs_.at(cpu);
  const Cycles llc_hit_cost = platform_.costs.llc_hit;
  const bool slow_observers = !observers_.empty();
  const unsigned mlp_div = mlp < 1 ? 1 : mlp;
  const PageTable& table = as.table();
  // Batched execution lets us overlap the host-memory latency of the model
  // structures for upcoming accesses with the work of the current one, in
  // two stages: a far stage pulls in the TLB set and PTE leaf, and a near
  // stage peeks the (by now cached) PTE to prefetch the physically-indexed
  // LLC set and frame-flags word behind the likely translation. A peek that
  // turns out stale (an earlier access in the batch remapped the page) only
  // wastes a prefetch. Prefetching touches no simulated state, so results
  // are bit-for-bit those of unbatched execution.
  constexpr size_t kFarAhead = 8;
  constexpr size_t kNearAhead = 3;
  const uint32_t* flag_words = pool_.table().flags_data();
  const auto near_prefetch = [&](size_t j) {
    const Pte* pte = table.PeekPte(ops[j].vpn);
    if (pte != nullptr && pte->present) {
      const Pfn pf = pte->pfn;
      llc_.PrefetchSet(pf * kPageSize + (ops[j].offset % kPageSize));
      __builtin_prefetch(flag_words + pf);
    }
  };
  for (size_t i = 0, e = n < kFarAhead ? n : kFarAhead; i < e; i++) {
    tlb.PrefetchSet(ops[i].vpn);
    table.PrefetchPte(ops[i].vpn);
  }
  for (size_t i = 0, e = n < kNearAhead ? n : kNearAhead; i < e; i++) {
    near_prefetch(i);
  }
  Cycles total = 0;
  for (size_t i = 0; i < n; i++) {
    if (i + kFarAhead < n) {
      tlb.PrefetchSet(ops[i + kFarAhead].vpn);
      table.PrefetchPte(ops[i + kFarAhead].vpn);
    }
    if (i + kNearAhead < n) {
      near_prefetch(i + kNearAhead);
    }
    const Vpn vpn = ops[i].vpn;
    const bool is_write = ops[i].is_write;
    Cycles c;
    Tlb::Entry* entry = tlb.Lookup(vpn);
    if (entry != nullptr && (!is_write || (entry->writable && entry->dirty)) &&
        !slow_observers) {
      // Fast path: cached translation needing no PTE update. Identical
      // state mutations, in identical order, to the hit path of
      // AccessResolved — LLC set, device channel, user-byte count.
      const Pfn pfn = entry->pfn;
      const uint64_t paddr = pfn * kPageSize + (ops[i].offset % kPageSize);
      if (llc_.Access(paddr)) {
        c = llc_hit_cost;
      } else {
        const Tier tier = pool_.TierOf(pfn);
        const Cycles dev = is_write ? devices_[TierIndex(tier)].Write(Now(), kCacheLineSize)
                                    : devices_[TierIndex(tier)].Read(Now(), kCacheLineSize);
        c = dev / mlp_div;
        if (c < 1) {
          c = 1;
        }
        // Same fault decision point as the scalar path: without this, a
        // batched run would skip the injector exactly on its fast-path
        // accesses and the fault schedule would depend on K.
        c += AccessFaultLatency();
      }
      user_bytes_ += kCacheLineSize;
    } else {
      c = AccessResolved(cpu, as, tlb, entry, vpn, ops[i].offset, is_write, mlp, nullptr);
    }
    lat_out[i] = c;
    total += c;
  }
  return total;
}

}  // namespace nomad

#endif  // SRC_MM_MEMORY_SYSTEM_H_
