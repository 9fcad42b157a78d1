// Tests for the kswapd reclaim daemon: watermark behaviour, second-chance
// scanning, demotion, and the policy hooks NOMAD uses.
#include "src/mm/kswapd.h"

#include <gtest/gtest.h>

namespace nomad {
namespace {

PlatformSpec TestPlatform(uint64_t fast_pages, uint64_t slow_pages) {
  PlatformSpec p = MakePlatform(PlatformId::kA);
  p.tiers[0].capacity_bytes = fast_pages * kPageSize;
  p.tiers[1].capacity_bytes = slow_pages * kPageSize;
  p.llc_bytes = 64 * 1024;
  return p;
}

class KswapdTest : public ::testing::Test {
 protected:
  KswapdTest() : ms_(TestPlatform(64, 256), &engine_), as_(1024) {
    ms_.RegisterCpu(0);
    ms_.pool().SetWatermarks(Tier::kFast, 8, 16);
  }

  Kswapd MakeKswapd(Tier tier = Tier::kFast) {
    Kswapd::Config cfg;
    cfg.tier = tier;
    cfg.scan_batch = 16;
    Kswapd k(&ms_, cfg);
    return k;
  }

  // Fills the fast node below its low watermark.
  void FillFastNode(uint64_t leave_free = 4) {
    const uint64_t n = ms_.pool().FreeFrames(Tier::kFast) - leave_free;
    for (Vpn v = 0; v < n; v++) {
      ms_.MapNewPage(as_, v, Tier::kFast);
    }
  }

  Engine engine_;
  MemorySystem ms_;
  AddressSpace as_;
};

TEST_F(KswapdTest, SleepsWhenWatermarksFine) {
  Kswapd k = MakeKswapd();
  const ActorId id = engine_.AddActor(&k);
  k.set_actor_id(id);
  engine_.Run(1);  // one step
  EXPECT_EQ(k.pages_demoted(), 0u);
  // It rescheduled itself at the poll interval.
  EXPECT_GE(engine_.NextTimeOf(id), Kswapd::kPollInterval);
}

TEST_F(KswapdTest, DemotesUntilHighWatermark) {
  FillFastNode();
  Kswapd k = MakeKswapd();
  const ActorId id = engine_.AddActor(&k);
  k.set_actor_id(id);
  engine_.Run(10000000);
  EXPECT_GE(ms_.pool().FreeFrames(Tier::kFast), 16u);
  EXPECT_GT(k.pages_demoted(), 0u);
  // Demoted pages are mapped on the slow node now.
  EXPECT_GT(ms_.pool().UsedFrames(Tier::kSlow), 0u);
}

TEST_F(KswapdTest, SecondChanceSparesAccessedPages) {
  FillFastNode();
  // Touch the oldest pages so their A-bits are set.
  for (Vpn v = 0; v < 8; v++) {
    ms_.Access(0, as_, v, 0, false);
  }
  Kswapd k = MakeKswapd();
  const ActorId id = engine_.AddActor(&k);
  k.set_actor_id(id);
  engine_.Run(2000000);
  // The touched pages survived on the fast tier.
  for (Vpn v = 0; v < 8; v++) {
    EXPECT_EQ(ms_.pool().TierOf(ms_.PteOf(as_, v)->pfn), Tier::kFast) << "vpn " << v;
  }
}

TEST_F(KswapdTest, ReclaimPageHookOverridesDemotion) {
  FillFastNode();
  uint64_t hook_calls = 0;
  Kswapd k = MakeKswapd();
  k.set_reclaim_page_fn([&](Pfn pfn) {
    hook_calls++;
    // Free outright instead of demoting (a policy could do remap tricks).
    PageFrame f = ms_.pool().frame(pfn);
    ms_.UnmapAndFree(*f.owner(), f.vpn());
    MigrateResult r;
    r.success = true;
    r.cycles = 100;
    return r;
  });
  const ActorId id = engine_.AddActor(&k);
  k.set_actor_id(id);
  engine_.Run(10000000);
  EXPECT_GT(hook_calls, 0u);
  EXPECT_EQ(ms_.pool().UsedFrames(Tier::kSlow), 0u);  // nothing was demoted
}

TEST_F(KswapdTest, PreReclaimRunsBeforeDemotion) {
  // Sacrificial fast pages first (while the node has room), then fill.
  for (Vpn v = 900; v < 932; v++) {
    ms_.MapNewPage(as_, v, Tier::kFast);
  }
  FillFastNode();
  Kswapd k = MakeKswapd();
  k.set_pre_reclaim_fn([&](uint64_t needed, Cycles* cost) -> uint64_t {
    *cost += 100;
    uint64_t freed = 0;
    for (Vpn v = 900; v < 900 + needed && v < 932; v++) {
      if (ms_.PteOf(as_, v) != nullptr && ms_.PteOf(as_, v)->present) {
        ms_.UnmapAndFree(as_, v);
        freed++;
      }
    }
    return freed;
  });
  const ActorId id = engine_.AddActor(&k);
  k.set_actor_id(id);
  engine_.Run(10000000);
  EXPECT_GE(ms_.pool().FreeFrames(Tier::kFast), 16u);
  EXPECT_EQ(k.pages_demoted(), 0u);
}

TEST_F(KswapdTest, VictimFnOverridesTailChoice) {
  FillFastNode();
  // Always demote vpn 10's frame first.
  const Pfn preferred = ms_.PteOf(as_, 10)->pfn;
  bool offered = false;
  Kswapd k = MakeKswapd();
  k.set_victim_fn([&]() -> Pfn {
    if (!offered) {
      offered = true;
      return preferred;
    }
    return kInvalidPfn;
  });
  const ActorId id = engine_.AddActor(&k);
  k.set_actor_id(id);
  engine_.Run(10000000);
  EXPECT_EQ(ms_.pool().TierOf(ms_.PteOf(as_, 10)->pfn), Tier::kSlow);
}

TEST_F(KswapdTest, BacksOffWhenDestinationFull) {
  // Tiny slow node: demotion fails quickly.
  Engine engine;
  MemorySystem ms(TestPlatform(64, 4), &engine);
  ms.RegisterCpu(0);
  ms.pool().SetWatermarks(Tier::kFast, 8, 16);
  AddressSpace as(1024);
  for (Vpn v = 0; v < 60; v++) {
    ms.MapNewPage(as, v, Tier::kFast);
  }
  for (Vpn v = 100; v < 104; v++) {
    ms.MapNewPage(as, v, Tier::kSlow);
  }
  Kswapd::Config cfg;
  cfg.tier = Tier::kFast;
  cfg.scan_batch = 8;
  Kswapd k(&ms, cfg);
  const ActorId id = engine.AddActor(&k);
  k.set_actor_id(id);
  engine.Run(5000000);
  EXPECT_GT(k.demote_failures(), 0u);
  // It must not spin forever: it went back to sleep.
  EXPECT_GT(engine.NextTimeOf(id), engine.now());
}

TEST_F(KswapdTest, SlowNodeKswapdWithoutHooksIdles) {
  // Fill the slow node below watermark; without a pre-reclaim hook there
  // is nothing it can do, and it must not crash or spin.
  for (Vpn v = 0; v < 250; v++) {
    ms_.MapNewPage(as_, v, Tier::kSlow);
  }
  ms_.pool().SetWatermarks(Tier::kSlow, 16, 32);
  Kswapd k = MakeKswapd(Tier::kSlow);
  const ActorId id = engine_.AddActor(&k);
  k.set_actor_id(id);
  engine_.Run(2000000);
  EXPECT_EQ(k.pages_demoted(), 0u);
}

}  // namespace
}  // namespace nomad
