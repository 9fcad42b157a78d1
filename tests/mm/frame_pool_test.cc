// Tests for the per-node frame allocator, watermarks and failure hooks.
#include "src/mm/frame_pool.h"

#include <gtest/gtest.h>

#include "src/mem/platform.h"

namespace nomad {
namespace {

PlatformSpec SmallPlatform(uint64_t fast_pages = 64, uint64_t slow_pages = 64) {
  PlatformSpec p = MakePlatform(PlatformId::kA);
  p.tiers[0].capacity_bytes = fast_pages * kPageSize;
  p.tiers[1].capacity_bytes = slow_pages * kPageSize;
  return p;
}

TEST(FramePoolTest, CapacityPerTier) {
  FramePool pool(SmallPlatform(64, 32));
  EXPECT_EQ(pool.TotalFrames(Tier::kFast), 64u);
  EXPECT_EQ(pool.TotalFrames(Tier::kSlow), 32u);
  EXPECT_EQ(pool.FreeFrames(Tier::kFast), 64u);
}

TEST(FramePoolTest, PfnRangesAreDisjoint) {
  FramePool pool(SmallPlatform(64, 32));
  const Pfn fast = pool.AllocOn(Tier::kFast);
  const Pfn slow = pool.AllocOn(Tier::kSlow);
  EXPECT_LT(fast, 64u);
  EXPECT_GE(slow, 64u);
  EXPECT_EQ(pool.TierOf(fast), Tier::kFast);
  EXPECT_EQ(pool.TierOf(slow), Tier::kSlow);
}

TEST(FramePoolTest, AllocAscendingPfn) {
  FramePool pool(SmallPlatform());
  EXPECT_EQ(pool.AllocOn(Tier::kFast), 0u);
  EXPECT_EQ(pool.AllocOn(Tier::kFast), 1u);
}

TEST(FramePoolTest, ExhaustionReturnsInvalid) {
  FramePool pool(SmallPlatform(2, 2));
  EXPECT_NE(pool.AllocOn(Tier::kFast), kInvalidPfn);
  EXPECT_NE(pool.AllocOn(Tier::kFast), kInvalidPfn);
  EXPECT_EQ(pool.AllocOn(Tier::kFast), kInvalidPfn);
}

TEST(FramePoolTest, PreferredAllocSpillsToOtherTier) {
  FramePool pool(SmallPlatform(1, 4));
  EXPECT_EQ(pool.TierOf(pool.Alloc(Tier::kFast)), Tier::kFast);
  const Pfn spilled = pool.Alloc(Tier::kFast);
  EXPECT_EQ(pool.TierOf(spilled), Tier::kSlow);
  EXPECT_EQ(pool.spill_count(), 1u);
}

TEST(FramePoolTest, OomCountsWhenBothTiersFull) {
  FramePool pool(SmallPlatform(1, 1));
  pool.Alloc(Tier::kFast);
  pool.Alloc(Tier::kFast);
  EXPECT_EQ(pool.Alloc(Tier::kFast), kInvalidPfn);
  EXPECT_EQ(pool.oom_count(), 1u);
}

TEST(FramePoolTest, FreeMakesFrameReusable) {
  FramePool pool(SmallPlatform(1, 1));
  const Pfn pfn = pool.AllocOn(Tier::kFast);
  pool.Free(pfn);
  EXPECT_EQ(pool.AllocOn(Tier::kFast), pfn);
}

TEST(FramePoolTest, FreeBumpsGeneration) {
  FramePool pool(SmallPlatform());
  const Pfn pfn = pool.AllocOn(Tier::kFast);
  const uint32_t gen = pool.frame(pfn).generation();
  pool.Free(pfn);
  EXPECT_EQ(pool.frame(pfn).generation(), gen + 1);
}

TEST(FramePoolTest, FreeResetsState) {
  FramePool pool(SmallPlatform());
  const Pfn pfn = pool.AllocOn(Tier::kFast);
  pool.frame(pfn).set_referenced(true);
  pool.frame(pfn).set_shadowed(true);
  pool.Free(pfn);
  EXPECT_FALSE(pool.frame(pfn).referenced());
  EXPECT_FALSE(pool.frame(pfn).shadowed());
  EXPECT_FALSE(pool.frame(pfn).in_use());
}

TEST(FramePoolTest, WatermarkPredicates) {
  FramePool pool(SmallPlatform(128, 128));
  pool.SetWatermarks(Tier::kFast, 10, 30);
  EXPECT_FALSE(pool.BelowLowWatermark(Tier::kFast));
  for (int i = 0; i < 119; i++) {
    pool.AllocOn(Tier::kFast);
  }
  EXPECT_TRUE(pool.BelowLowWatermark(Tier::kFast));   // 9 free < 10
  EXPECT_TRUE(pool.BelowHighWatermark(Tier::kFast));  // 9 free < 30
}

TEST(FramePoolTest, DefaultWatermarksProportionalToNode) {
  FramePool pool(SmallPlatform(1280, 1280));
  EXPECT_EQ(pool.LowWatermark(Tier::kFast), 10u);
  EXPECT_EQ(pool.HighWatermark(Tier::kFast), 30u);
}

TEST(FramePoolTest, AllocFailureHookCanRescueAllocation) {
  FramePool pool(SmallPlatform(1, 1));
  const Pfn held = pool.AllocOn(Tier::kSlow);
  int hook_calls = 0;
  pool.set_alloc_failure_hook([&](Tier tier) {
    hook_calls++;
    if (tier == Tier::kSlow) {
      pool.Free(held);
      return true;
    }
    return false;
  });
  const Pfn rescued = pool.AllocOn(Tier::kSlow);
  EXPECT_EQ(rescued, held);
  EXPECT_EQ(hook_calls, 1);
}

TEST(FramePoolTest, AllocFailureHookFalseMeansFailure) {
  FramePool pool(SmallPlatform(1, 1));
  pool.AllocOn(Tier::kSlow);
  pool.set_alloc_failure_hook([](Tier) { return false; });
  EXPECT_EQ(pool.AllocOn(Tier::kSlow), kInvalidPfn);
}

TEST(FramePoolTest, UsedFramesTracksAllocations) {
  FramePool pool(SmallPlatform(8, 8));
  pool.AllocOn(Tier::kFast);
  pool.AllocOn(Tier::kFast);
  const Pfn p = pool.AllocOn(Tier::kFast);
  pool.Free(p);
  EXPECT_EQ(pool.UsedFrames(Tier::kFast), 2u);
}

// A node's free frames are its freed frames (LIFO) plus the frames never
// allocated (ascending PFN). Freed frames go out first; the never-allocated
// range resumes where it stopped.
TEST(FramePoolTest, FreedFramesGoFirstThenNeverAllocatedOnesInPfnOrder) {
  FramePool pool(SmallPlatform(4, 4));
  for (const Tier tier : {Tier::kFast, Tier::kSlow}) {
    const Pfn base = tier == Tier::kFast ? 0 : 4;
    EXPECT_EQ(pool.FreeFrames(tier), 4u);
    EXPECT_EQ(pool.AllocOn(tier), base + 0);
    EXPECT_EQ(pool.AllocOn(tier), base + 1);
    EXPECT_EQ(pool.AllocOn(tier), base + 2);
    EXPECT_EQ(pool.FreeFrames(tier), 1u);  // only base + 3, never allocated
    pool.Free(base + 1);
    EXPECT_EQ(pool.FreeFrames(tier), 2u);
    pool.Free(base + 0);
    EXPECT_EQ(pool.FreeFrames(tier), 3u);
    EXPECT_EQ(pool.AllocOn(tier), base + 0);  // last freed
    EXPECT_EQ(pool.FreeFrames(tier), 2u);
    EXPECT_EQ(pool.AllocOn(tier), base + 1);
    EXPECT_EQ(pool.FreeFrames(tier), 1u);
    EXPECT_EQ(pool.AllocOn(tier), base + 3);  // then the never-allocated one
    EXPECT_EQ(pool.FreeFrames(tier), 0u);
    EXPECT_EQ(pool.frame(base + 3).tier(), tier);
    EXPECT_EQ(pool.UsedFrames(tier), 4u);
  }
}

TEST(FramePoolTest, FailureHookRunsOnlyWhenFreedAndNeverAllocatedAreBothEmpty) {
  FramePool pool(SmallPlatform(1, 3));
  int hook_calls = 0;
  Pfn victim = kInvalidPfn;
  pool.set_alloc_failure_hook([&](Tier tier) {
    hook_calls++;
    if (tier != Tier::kSlow || victim == kInvalidPfn) {
      return false;
    }
    pool.Free(victim);
    return true;
  });
  const Pfn a = pool.AllocOn(Tier::kSlow);  // the never-allocated range alone
  victim = pool.AllocOn(Tier::kSlow);
  EXPECT_EQ(pool.AllocOn(Tier::kSlow), 3u);  // ... which is now empty
  pool.Free(a);
  EXPECT_EQ(pool.AllocOn(Tier::kSlow), a);  // the freed list alone
  EXPECT_EQ(hook_calls, 0);
  EXPECT_EQ(pool.FreeFrames(Tier::kSlow), 0u);
  EXPECT_EQ(pool.AllocOn(Tier::kSlow), victim);  // the frame the hook freed
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(pool.FreeFrames(Tier::kSlow), 0u);
}

}  // namespace
}  // namespace nomad
