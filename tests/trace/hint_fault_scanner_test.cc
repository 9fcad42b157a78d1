// Tests for hint-fault arming of slow-tier pages.
#include "src/trace/hint_fault_scanner.h"

#include <gtest/gtest.h>

namespace nomad {
namespace {

PlatformSpec TestPlatform() {
  PlatformSpec p = MakePlatform(PlatformId::kA);
  p.tiers[0].capacity_bytes = 64 * kPageSize;
  p.tiers[1].capacity_bytes = 64 * kPageSize;
  p.llc_bytes = 64 * 1024;
  return p;
}

class ScannerTest : public ::testing::Test {
 protected:
  ScannerTest() : ms_(TestPlatform(), &engine_), as_(256) { ms_.RegisterCpu(0); }

  HintFaultScanner::Config FastConfig() {
    HintFaultScanner::Config cfg;
    cfg.pages_per_round = 128;
    cfg.round_interval = 1000;
    return cfg;
  }

  Engine engine_;
  MemorySystem ms_;
  AddressSpace as_;
};

TEST_F(ScannerTest, ArmsSlowTierPages) {
  for (Vpn v = 0; v < 8; v++) {
    ms_.MapNewPage(as_, v, Tier::kSlow);
  }
  HintFaultScanner scanner(&ms_, FastConfig());
  engine_.AddActor(&scanner);
  engine_.Run(100);
  for (Vpn v = 0; v < 8; v++) {
    EXPECT_TRUE(ms_.PteOf(as_, v)->prot_none) << "vpn " << v;
  }
  EXPECT_EQ(scanner.pages_armed(), 8u);
}

TEST_F(ScannerTest, DoesNotArmFastTierPages) {
  ms_.MapNewPage(as_, 0, Tier::kFast);
  ms_.MapNewPage(as_, 1, Tier::kSlow);
  HintFaultScanner scanner(&ms_, FastConfig());
  engine_.AddActor(&scanner);
  engine_.Run(100);
  EXPECT_FALSE(ms_.PteOf(as_, 0)->prot_none);
  EXPECT_TRUE(ms_.PteOf(as_, 1)->prot_none);
}

TEST_F(ScannerTest, SkipsQueuedAndMigratingPages) {
  const Pfn a = ms_.MapNewPage(as_, 0, Tier::kSlow);
  const Pfn b = ms_.MapNewPage(as_, 1, Tier::kSlow);
  const Pfn c = ms_.MapNewPage(as_, 2, Tier::kSlow);
  ms_.pool().frame(a).set_in_pcq(true);
  ms_.pool().frame(b).set_in_pending(true);
  ms_.pool().frame(c).set_migrating(true);
  HintFaultScanner scanner(&ms_, FastConfig());
  engine_.AddActor(&scanner);
  engine_.Run(100);
  EXPECT_FALSE(ms_.PteOf(as_, 0)->prot_none);
  EXPECT_FALSE(ms_.PteOf(as_, 1)->prot_none);
  EXPECT_FALSE(ms_.PteOf(as_, 2)->prot_none);
  // Once the pages leave the queues, the next sweep arms all three: the
  // scanner's queued mask must follow the flags back down.
  ms_.pool().frame(a).set_in_pcq(false);
  ms_.pool().frame(b).set_in_pending(false);
  ms_.pool().frame(c).set_migrating(false);
  engine_.Run(engine_.now() + 10000);
  EXPECT_TRUE(ms_.PteOf(as_, 0)->prot_none);
  EXPECT_TRUE(ms_.PteOf(as_, 1)->prot_none);
  EXPECT_TRUE(ms_.PteOf(as_, 2)->prot_none);
  EXPECT_EQ(scanner.pages_armed(), 3u);
}

TEST_F(ScannerTest, SkipsShadowFrames) {
  const Pfn a = ms_.MapNewPage(as_, 0, Tier::kSlow);
  ms_.pool().frame(a).set_is_shadow(true);
  HintFaultScanner scanner(&ms_, FastConfig());
  engine_.AddActor(&scanner);
  engine_.Run(100);
  EXPECT_FALSE(ms_.PteOf(as_, 0)->prot_none);
}

TEST_F(ScannerTest, RearmsAfterFaultCleared) {
  ms_.MapNewPage(as_, 0, Tier::kSlow);
  HintFaultScanner scanner(&ms_, FastConfig());
  engine_.AddActor(&scanner);
  engine_.Run(100);
  EXPECT_TRUE(ms_.PteOf(as_, 0)->prot_none);
  // A fault clears the protection (default handler).
  ms_.Access(0, as_, 0, 0, false);
  EXPECT_FALSE(ms_.PteOf(as_, 0)->prot_none);
  // The next sweep re-arms it.
  engine_.Run(engine_.now() + 10000);
  EXPECT_TRUE(ms_.PteOf(as_, 0)->prot_none);
}

TEST_F(ScannerTest, ArmingInvalidatesTlb) {
  ms_.MapNewPage(as_, 0, Tier::kSlow);
  ms_.Access(0, as_, 0, 0, false);  // caches the translation
  ASSERT_NE(ms_.tlb(0).Lookup(0), nullptr);
  HintFaultScanner scanner(&ms_, FastConfig());
  engine_.AddActor(&scanner);
  engine_.Run(100);
  EXPECT_EQ(ms_.tlb(0).Lookup(0), nullptr);
}

TEST_F(ScannerTest, SweepPausesBetweenRounds) {
  HintFaultScanner::Config cfg;
  cfg.pages_per_round = 16;  // 64 slow frames -> 5 steps per sweep
  cfg.round_interval = 50000;
  HintFaultScanner scanner(&ms_, cfg);
  const ActorId id = engine_.AddActor(&scanner);
  engine_.Run(10000);  // enough for one sweep, not the interval
  EXPECT_GE(engine_.NextTimeOf(id), 50000u);
}

}  // namespace
}  // namespace nomad
