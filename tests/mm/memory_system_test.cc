// Tests for MemorySystem: the access data path, hardware A/D-bit
// semantics, fault dispatch, TLB shootdowns and migration windows.
#include "src/mm/memory_system.h"

#include <gtest/gtest.h>

namespace nomad {
namespace {

PlatformSpec TestPlatform(uint64_t fast_pages = 256, uint64_t slow_pages = 256) {
  PlatformSpec p = MakePlatform(PlatformId::kA);
  p.tiers[0].capacity_bytes = fast_pages * kPageSize;
  p.tiers[1].capacity_bytes = slow_pages * kPageSize;
  p.llc_bytes = 64 * 1024;
  return p;
}

class MemorySystemTest : public ::testing::Test {
 protected:
  MemorySystemTest() : ms_(TestPlatform(), &engine_), as_(1024) {
    ms_.RegisterCpu(kCpu);
  }

  static constexpr ActorId kCpu = 0;

  Engine engine_;
  MemorySystem ms_;
  AddressSpace as_;
};

TEST_F(MemorySystemTest, MapNewPagePrefersFastTier) {
  const Pfn pfn = ms_.MapNewPage(as_, 0);
  ASSERT_NE(pfn, kInvalidPfn);
  EXPECT_EQ(ms_.pool().TierOf(pfn), Tier::kFast);
  const Pte* pte = ms_.PteOf(as_, 0);
  ASSERT_NE(pte, nullptr);
  EXPECT_TRUE(pte->present);
  EXPECT_TRUE(pte->writable);
  EXPECT_EQ(pte->pfn, pfn);
  EXPECT_EQ(ms_.pool().frame(pfn).owner(), &as_);
  EXPECT_EQ(ms_.pool().frame(pfn).lru(), LruList::kInactive);
}

TEST_F(MemorySystemTest, MapNewPageSpillsWhenFastFull) {
  for (Vpn v = 0; v < 256; v++) {
    ms_.MapNewPage(as_, v);
  }
  const Pfn spilled = ms_.MapNewPage(as_, 300);
  EXPECT_EQ(ms_.pool().TierOf(spilled), Tier::kSlow);
}

TEST_F(MemorySystemTest, AccessChargesFastLatency) {
  ms_.MapNewPage(as_, 0);
  AccessInfo info;
  const Cycles c = ms_.Access(kCpu, as_, 0, 0, false, 1, &info);
  EXPECT_FALSE(info.llc_hit);
  EXPECT_FALSE(info.tlb_hit);
  EXPECT_EQ(info.tier, Tier::kFast);
  // Walk + device read latency at least.
  EXPECT_GE(c, ms_.platform().tiers[0].read_latency);
}

TEST_F(MemorySystemTest, RepeatAccessHitsLlcAndTlb) {
  ms_.MapNewPage(as_, 0);
  ms_.Access(kCpu, as_, 0, 0, false);
  AccessInfo info;
  const Cycles c = ms_.Access(kCpu, as_, 0, 0, false, 1, &info);
  EXPECT_TRUE(info.llc_hit);
  EXPECT_TRUE(info.tlb_hit);
  EXPECT_LE(c, ms_.platform().costs.llc_hit + 5);
}

TEST_F(MemorySystemTest, MlpDividesDeviceLatency) {
  ms_.MapNewPage(as_, 0);
  ms_.MapNewPage(as_, 1);
  AccessInfo a1, a8;
  ms_.Access(kCpu, as_, 0, 0, false, 1, &a1);
  ms_.Access(kCpu, as_, 1, 0, false, 8, &a8);
  EXPECT_GT(a1.latency, a8.latency);
}

TEST_F(MemorySystemTest, DemandFaultMapsUnmappedPage) {
  AccessInfo info;
  ms_.Access(kCpu, as_, 7, 0, false, 4, &info);
  EXPECT_TRUE(info.took_fault);
  EXPECT_EQ(ms_.counters().Get("fault.demand"), 1u);
  const Pte* pte = ms_.PteOf(as_, 7);
  ASSERT_NE(pte, nullptr);
  EXPECT_TRUE(pte->present);
}

TEST_F(MemorySystemTest, AccessSetsAccessedBit) {
  ms_.MapNewPage(as_, 0);
  EXPECT_FALSE(ms_.PteOf(as_, 0)->accessed);
  ms_.Access(kCpu, as_, 0, 0, false);
  EXPECT_TRUE(ms_.PteOf(as_, 0)->accessed);
}

TEST_F(MemorySystemTest, ReadDoesNotSetDirty) {
  ms_.MapNewPage(as_, 0);
  ms_.Access(kCpu, as_, 0, 0, false);
  EXPECT_FALSE(ms_.PteOf(as_, 0)->dirty);
}

TEST_F(MemorySystemTest, WriteSetsDirty) {
  ms_.MapNewPage(as_, 0);
  ms_.Access(kCpu, as_, 0, 0, true);
  EXPECT_TRUE(ms_.PteOf(as_, 0)->dirty);
}

// The TPM-critical rule: writes through a dirty cached translation do NOT
// update the PTE; after clearing the PTE dirty bit, a shootdown is required
// for the next write to be recorded.
TEST_F(MemorySystemTest, DirtyTlbEntryAbsorbsWrites) {
  ms_.MapNewPage(as_, 0);
  ms_.Access(kCpu, as_, 0, 0, true);  // PTE + TLB entry now dirty
  ms_.PteOf(as_, 0)->dirty = false;   // TPM step 1, *without* shootdown
  ms_.Access(kCpu, as_, 0, 0, true);  // write through cached dirty entry
  EXPECT_FALSE(ms_.PteOf(as_, 0)->dirty) << "write bypassed the PTE";
}

TEST_F(MemorySystemTest, ShootdownRestoresDirtyTracking) {
  ms_.MapNewPage(as_, 0);
  ms_.Access(kCpu, as_, 0, 0, true);
  ms_.PteOf(as_, 0)->dirty = false;
  ms_.TlbShootdown(as_, 0);           // TPM step 2
  ms_.Access(kCpu, as_, 0, 0, true);  // must re-walk and set dirty
  EXPECT_TRUE(ms_.PteOf(as_, 0)->dirty);
}

TEST_F(MemorySystemTest, WriteThroughCleanEntryUpdatesPte) {
  ms_.MapNewPage(as_, 0);
  ms_.Access(kCpu, as_, 0, 0, false);  // fill TLB with clean entry
  EXPECT_FALSE(ms_.PteOf(as_, 0)->dirty);
  ms_.Access(kCpu, as_, 0, 0, true);  // microcode assist path
  EXPECT_TRUE(ms_.PteOf(as_, 0)->dirty);
}

TEST_F(MemorySystemTest, HintFaultInvokesHandler) {
  ms_.MapNewPage(as_, 0);
  ms_.PteOf(as_, 0)->prot_none = true;
  int calls = 0;
  ms_.set_hint_fault_handler([&](ActorId, AddressSpace& as, Vpn vpn) -> Cycles {
    calls++;
    ms_.PteOf(as, vpn)->prot_none = false;
    return 123;
  });
  AccessInfo info;
  ms_.Access(kCpu, as_, 0, 0, false, 4, &info);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(info.took_fault);
  EXPECT_EQ(ms_.counters().Get("fault.hint"), 1u);
}

TEST_F(MemorySystemTest, HintFaultDefaultClearsProtNone) {
  ms_.MapNewPage(as_, 0);
  ms_.PteOf(as_, 0)->prot_none = true;
  ms_.Access(kCpu, as_, 0, 0, false);
  EXPECT_FALSE(ms_.PteOf(as_, 0)->prot_none);
}

TEST_F(MemorySystemTest, WriteProtectFaultInvokesHandler) {
  ms_.MapNewPage(as_, 0, Tier::kFast, /*writable=*/false);
  int calls = 0;
  ms_.set_write_fault_handler([&](ActorId, AddressSpace& as, Vpn vpn) -> Cycles {
    calls++;
    ms_.PteOf(as, vpn)->writable = true;
    return 50;
  });
  ms_.Access(kCpu, as_, 0, 0, true);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ms_.counters().Get("fault.write_protect"), 1u);
}

TEST_F(MemorySystemTest, ReadOnReadOnlyPageTakesNoFault) {
  ms_.MapNewPage(as_, 0, Tier::kFast, /*writable=*/false);
  AccessInfo info;
  ms_.Access(kCpu, as_, 0, 0, false, 4, &info);
  EXPECT_FALSE(info.took_fault);
}

TEST_F(MemorySystemTest, WriteAfterReadOnCachedReadOnlyEntryFaults) {
  ms_.MapNewPage(as_, 0, Tier::kFast, /*writable=*/false);
  ms_.Access(kCpu, as_, 0, 0, false);  // caches a read-only entry
  AccessInfo info;
  ms_.Access(kCpu, as_, 0, 0, true, 4, &info);  // store must still fault
  EXPECT_TRUE(info.took_fault);
  EXPECT_TRUE(ms_.PteOf(as_, 0)->writable);  // default handler restored it
}

TEST_F(MemorySystemTest, ShootdownInvalidatesAllCpusAndPenalizesRemote) {
  ms_.RegisterCpu(1);
  ms_.MapNewPage(as_, 0);
  ms_.Access(kCpu, as_, 0, 0, false);
  ms_.Access(1, as_, 0, 0, false);
  EXPECT_NE(ms_.tlb(kCpu).Lookup(0), nullptr);
  const Cycles cost = ms_.TlbShootdown(as_, 0);
  EXPECT_EQ(ms_.tlb(kCpu).Lookup(0), nullptr);
  EXPECT_EQ(ms_.tlb(1).Lookup(0), nullptr);
  // Initiator (engine.current()==0 outside a step) pays base + per-cpu.
  EXPECT_GE(cost, ms_.platform().costs.tlb_shootdown_base);
  EXPECT_EQ(ms_.counters().Get("tlb.shootdown"), 1u);
}

TEST_F(MemorySystemTest, MigrationWindowBlocksWalkers) {
  ms_.MapNewPage(as_, 0);
  ms_.Access(kCpu, as_, 0, 0, false);
  // Simulate a migration: invalidate the TLB and open a window to t=50000.
  ms_.TlbShootdown(as_, 0);
  ms_.BeginMigrationWindow(as_, 0, 50000);
  AccessInfo info;
  const Cycles c = ms_.Access(kCpu, as_, 0, 0, false, 4, &info);
  EXPECT_GE(c, 50000u);
  EXPECT_EQ(ms_.counters().Get("fault.migration_block"), 1u);
}

TEST_F(MemorySystemTest, MigrationWindowDoesNotBlockTlbHits) {
  ms_.MapNewPage(as_, 0);
  ms_.Access(kCpu, as_, 0, 0, false);  // TLB filled
  ms_.BeginMigrationWindow(as_, 0, 50000);
  const Cycles c = ms_.Access(kCpu, as_, 0, 0, false);
  EXPECT_LT(c, 10000u);  // served from the TLB, no blocking
}

TEST_F(MemorySystemTest, ExpiredWindowDoesNotBlock) {
  ms_.MapNewPage(as_, 0);
  ms_.BeginMigrationWindow(as_, 0, 0);  // already over
  const Cycles c = ms_.Access(kCpu, as_, 0, 0, false);
  EXPECT_LT(c, 10000u);
  EXPECT_EQ(ms_.counters().Get("fault.migration_block"), 0u);
}

TEST_F(MemorySystemTest, UnmapAndFreeReleasesFrame) {
  const Pfn pfn = ms_.MapNewPage(as_, 0);
  ms_.Access(kCpu, as_, 0, 0, false);
  const uint64_t free_before = ms_.pool().FreeFrames(Tier::kFast);
  ms_.UnmapAndFree(as_, 0);
  EXPECT_EQ(ms_.pool().FreeFrames(Tier::kFast), free_before + 1);
  EXPECT_FALSE(ms_.PteOf(as_, 0)->present);
  EXPECT_EQ(ms_.tlb(kCpu).Lookup(0), nullptr);
  EXPECT_EQ(ms_.pool().frame(pfn).lru(), LruList::kNone);
}

TEST(MemorySystemFullTest, UnresolvedFaultOnUnmappedPageCachesNothing) {
  // Both tiers full and vpn 3's PTE emptied by UnmapAndFree: the access's
  // demand faults find no frame. It must count the unresolved fault and
  // leave no translation behind, not a writable PTE and a TLB entry to a
  // frame that does not exist.
  Engine engine;
  MemorySystem ms(TestPlatform(4, 4), &engine);
  ms.RegisterCpu(0);
  AddressSpace as(16);
  for (Vpn v = 0; v < 8; v++) {
    ASSERT_NE(ms.MapNewPage(as, v), kInvalidPfn);
  }
  ms.UnmapAndFree(as, 3);
  ASSERT_NE(ms.MapNewPage(as, 9), kInvalidPfn);
  ms.Access(0, as, 3, 0, false);
  EXPECT_EQ(ms.counters().Get(cnt::kFaultUnresolved), 1u);
  EXPECT_EQ(ms.tlb(0).Lookup(3), nullptr);
  const Pte* pte = ms.PteOf(as, 3);
  ASSERT_NE(pte, nullptr);
  EXPECT_FALSE(pte->present);
  EXPECT_FALSE(pte->writable);
  EXPECT_EQ(ms.user_bytes(), 0u);
}

TEST_F(MemorySystemTest, ReserveFastFramesShrinksFreePool) {
  const uint64_t before = ms_.pool().FreeFrames(Tier::kFast);
  ms_.ReserveFastFrames(10);
  EXPECT_EQ(ms_.pool().FreeFrames(Tier::kFast), before - 10);
}

TEST_F(MemorySystemTest, KswapdWakerFiresBelowLowWatermark) {
  ms_.pool().SetWatermarks(Tier::kFast, 200, 220);
  std::vector<Tier> wakes;
  ms_.set_kswapd_waker([&](Tier t) { wakes.push_back(t); });
  for (Vpn v = 0; v < 100; v++) {
    ms_.MapNewPage(as_, v);
  }
  EXPECT_FALSE(wakes.empty());
  EXPECT_EQ(wakes[0], Tier::kFast);
}

TEST_F(MemorySystemTest, ObserverSeesAccesses) {
  ms_.MapNewPage(as_, 0);
  int seen = 0;
  bool last_write = false;
  ms_.add_access_observer(
      [&](ActorId, AddressSpace&, Vpn, uint64_t, bool is_write, bool, bool, Tier) {
        seen++;
        last_write = is_write;
      });
  ms_.Access(kCpu, as_, 0, 0, false);
  ms_.Access(kCpu, as_, 0, 64, true);
  EXPECT_EQ(seen, 2);
  EXPECT_TRUE(last_write);
}

TEST_F(MemorySystemTest, UserBytesAccumulate) {
  ms_.MapNewPage(as_, 0);
  ms_.Access(kCpu, as_, 0, 0, false);
  ms_.Access(kCpu, as_, 0, 64, false);
  EXPECT_EQ(ms_.user_bytes(), 2 * kCacheLineSize);
}

TEST_F(MemorySystemTest, SlowTierAccessCostsMore) {
  AddressSpace as2(16);
  ms_.MapNewPage(as2, 0, Tier::kSlow);
  ms_.MapNewPage(as2, 1, Tier::kFast);
  AccessInfo slow, fast;
  ms_.Access(kCpu, as2, 0, 0, false, 1, &slow);
  ms_.Access(kCpu, as2, 1, 0, false, 1, &fast);
  EXPECT_EQ(slow.tier, Tier::kSlow);
  EXPECT_GT(slow.latency, fast.latency);
}

}  // namespace
}  // namespace nomad
