// Tests for the set-associative LLC model.
#include "src/mm/cache.h"

#include <gtest/gtest.h>

namespace nomad {
namespace {

TEST(CacheTest, MissThenHit) {
  LastLevelCache llc(64 * 1024);
  EXPECT_FALSE(llc.Access(0x1000));
  EXPECT_TRUE(llc.Access(0x1000));
  EXPECT_EQ(llc.hits(), 1u);
  EXPECT_EQ(llc.misses(), 1u);
}

TEST(CacheTest, SameLineDifferentByteHits) {
  LastLevelCache llc(64 * 1024);
  llc.Access(0x1000);
  EXPECT_TRUE(llc.Access(0x1001));
  EXPECT_TRUE(llc.Access(0x103F));
  EXPECT_FALSE(llc.Access(0x1040));  // next line
}

TEST(CacheTest, CapacityInLines) {
  LastLevelCache llc(16 * 64);  // 16 lines -> one 16-way set
  EXPECT_EQ(llc.capacity_lines(), 16u);
}

TEST(CacheTest, EvictionOnSetOverflow) {
  LastLevelCache llc(16 * 64);  // one set, 16 ways
  for (uint64_t i = 0; i < 16; i++) {
    llc.Access(i * 64);
  }
  llc.Access(16 * 64);  // 17th distinct line evicts the LRU (line 0)
  EXPECT_FALSE(llc.Access(0));
}

TEST(CacheTest, LruKeepsRecentlyUsed) {
  LastLevelCache llc(16 * 64);
  for (uint64_t i = 0; i < 16; i++) {
    llc.Access(i * 64);
  }
  llc.Access(0);         // refresh line 0
  llc.Access(16 * 64);   // evicts line 1, not 0
  EXPECT_TRUE(llc.Access(0));
  EXPECT_FALSE(llc.Access(64));
}

TEST(CacheTest, InvalidatePageDropsAllItsLines) {
  LastLevelCache llc(1 << 20);
  const Pfn pfn = 3;
  for (uint64_t line = 0; line < kPageSize / kCacheLineSize; line++) {
    llc.Access(pfn * kPageSize + line * kCacheLineSize);
  }
  llc.InvalidatePage(pfn);
  EXPECT_FALSE(llc.Access(pfn * kPageSize));
  EXPECT_FALSE(llc.Access(pfn * kPageSize + 63 * kCacheLineSize));
}

TEST(CacheTest, InvalidatePageBeforeAnyAccessIsANoOp) {
  // A cache that has never missed is empty, so invalidating returns at
  // once; the first access afterwards still misses, then hits.
  LastLevelCache llc(1 << 20);
  for (Pfn pfn = 0; pfn < 8; pfn++) {
    llc.InvalidatePage(pfn);
  }
  EXPECT_EQ(llc.hits(), 0u);
  EXPECT_EQ(llc.misses(), 0u);
  EXPECT_FALSE(llc.Access(3 * kPageSize));
  EXPECT_TRUE(llc.Access(3 * kPageSize));
  EXPECT_EQ(llc.misses(), 1u);
  EXPECT_EQ(llc.hits(), 1u);
}

TEST(CacheTest, InvalidatePageLeavesOtherPages) {
  LastLevelCache llc(1 << 20);
  llc.Access(5 * kPageSize);
  llc.InvalidatePage(3);
  EXPECT_TRUE(llc.Access(5 * kPageSize));
}

TEST(CacheTest, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup) {
  LastLevelCache llc(1 << 20);  // 16K lines
  for (int round = 0; round < 2; round++) {
    for (uint64_t i = 0; i < 1000; i++) {
      llc.Access(i * 64);
    }
  }
  EXPECT_EQ(llc.misses(), 1000u);
  EXPECT_EQ(llc.hits(), 1000u);
}

TEST(CacheTest, StreamLargerThanCacheKeepsMissing) {
  LastLevelCache llc(16 * 64 * 4);  // 64 lines
  for (int round = 0; round < 3; round++) {
    for (uint64_t i = 0; i < 1024; i++) {
      llc.Access(i * 64);
    }
  }
  // A cyclic stream 16x the cache size under LRU misses every time.
  EXPECT_EQ(llc.hits(), 0u);
}

}  // namespace
}  // namespace nomad
