// Tests for the Zipfian generators.
#include "src/workload/zipfian.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

namespace nomad {
namespace {

TEST(ZipfianRanksTest, DrawsInRange) {
  ZipfianRanks z(100, 0.99);
  Rng rng(1);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(z.Draw(rng), 100u);
  }
}

TEST(ZipfianRanksTest, RankZeroIsHottest) {
  ZipfianRanks z(1000, 0.99);
  Rng rng(2);
  std::vector<int> hits(1000, 0);
  for (int i = 0; i < 100000; i++) {
    hits[z.Draw(rng)]++;
  }
  // Monotone-ish decay: rank 0 beats rank 10 beats rank 100.
  EXPECT_GT(hits[0], hits[10]);
  EXPECT_GT(hits[10], hits[100]);
  // Skew: the top 10% of ranks should carry well over half the draws.
  int top = 0;
  for (int r = 0; r < 100; r++) {
    top += hits[r];
  }
  EXPECT_GT(top, 60000);
}

TEST(ZipfianRanksTest, ZipfianFrequencyRatio) {
  // P(0)/P(1) should be about 2^theta.
  ZipfianRanks z(100000, 0.99);
  Rng rng(3);
  int h0 = 0, h1 = 0;
  for (int i = 0; i < 300000; i++) {
    const uint64_t r = z.Draw(rng);
    h0 += r == 0;
    h1 += r == 1;
  }
  EXPECT_NEAR(static_cast<double>(h0) / h1, 2.0, 0.35);
}

TEST(ZipfianRanksTest, SingleItem) {
  ZipfianRanks z(1, 0.99);
  Rng rng(4);
  EXPECT_EQ(z.Draw(rng), 0u);
}

TEST(ScrambledZipfianTest, PermutationIsBijective) {
  ScrambledZipfian z(1000, 0.99, 7);
  std::set<uint64_t> seen;
  for (uint64_t r = 0; r < 1000; r++) {
    const uint64_t item = z.ItemOfRank(r);
    EXPECT_LT(item, 1000u);
    EXPECT_TRUE(seen.insert(item).second) << "duplicate item " << item;
  }
}

TEST(ScrambledZipfianTest, DrawMatchesRankMapping) {
  ScrambledZipfian z(100, 0.99, 7);
  Rng rng(5);
  std::vector<int> hits(100, 0);
  for (int i = 0; i < 50000; i++) {
    hits[z.Draw(rng)]++;
  }
  // The scrambled hottest item must be the most-hit one.
  const uint64_t hottest = z.ItemOfRank(0);
  const auto max_it = std::max_element(hits.begin(), hits.end());
  EXPECT_EQ(static_cast<uint64_t>(max_it - hits.begin()), hottest);
}

TEST(ScrambledZipfianTest, SeedsChangePermutation) {
  ScrambledZipfian a(1000, 0.99, 1);
  ScrambledZipfian b(1000, 0.99, 2);
  int same = 0;
  for (uint64_t r = 0; r < 1000; r++) {
    same += a.ItemOfRank(r) == b.ItemOfRank(r);
  }
  EXPECT_LT(same, 20);
}

TEST(ScrambledZipfianTest, SameSeedDeterministic) {
  ScrambledZipfian a(500, 0.99, 9);
  ScrambledZipfian b(500, 0.99, 9);
  Rng ra(3), rb(3);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(a.Draw(ra), b.Draw(rb));
  }
}

// Hot items are spread uniformly across the range (the paper's "hot data
// uniformly distributed along the WSS").
TEST(ScrambledZipfianTest, HotItemsSpreadAcrossRange) {
  ScrambledZipfian z(10000, 0.99, 11);
  // Take the 100 hottest items and check they are not clustered.
  uint64_t lower_half = 0;
  for (uint64_t r = 0; r < 100; r++) {
    lower_half += z.ItemOfRank(r) < 5000;
  }
  EXPECT_GT(lower_half, 25u);
  EXPECT_LT(lower_half, 75u);
}

// FNV-1a over each value's 8 little-endian bytes, for comparing long draw
// sequences with sequences recorded before the zeta cache and the uint32_t
// permutation existed.
uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; i++) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// Digest of 1,000 ranks drawn from Rng(3).
uint64_t RankDigest(const ZipfianRanks& z) {
  Rng rng(3);
  uint64_t h = kFnvBasis;
  for (int i = 0; i < 1000; i++) {
    h = Fnv1a(h, z.Draw(rng));
  }
  return h;
}

// Death tests run before the threaded tests below (gtest orders *DeathTest
// suites first), so they fork a single-threaded process.
TEST(ScrambledZipfianDeathTest, RejectsAnEmptyRange) {
  EXPECT_DEATH(ScrambledZipfian(0, 0.99, 1), "n=0");
}

TEST(ScrambledZipfianDeathTest, RejectsARangeTheUint32PermutationCannotHold) {
  EXPECT_DEATH(ScrambledZipfian(uint64_t{UINT32_MAX} + 1, 0.99, 1), "n=4294967296");
}

// Values recorded with the uint64_t permutation and an uncached zeta.
TEST(ScrambledZipfianTest, DrawsAndRanksMatchRecordedValues) {
  ScrambledZipfian z(100000, 0.99, 42);
  Rng rng(7);
  const uint64_t first[] = {37444, 75529, 83002, 18799, 29222, 89136, 24572, 15352};
  uint64_t draws = kFnvBasis;
  for (int i = 0; i < 1000; i++) {
    const uint64_t d = z.Draw(rng);
    if (i < 8) {
      EXPECT_EQ(d, first[i]) << "draw " << i;
    }
    draws = Fnv1a(draws, d);
  }
  EXPECT_EQ(draws, 0xcf3737b3341f50feull);
  EXPECT_EQ(z.ItemOfRank(0), 24572u);
  EXPECT_EQ(z.ItemOfRank(3), 22659u);
  uint64_t ranks = kFnvBasis;
  for (uint64_t r = 0; r < 100000; r++) {
    ranks = Fnv1a(ranks, z.ItemOfRank(r));
  }
  EXPECT_EQ(ranks, 0xd37a39196db6f139ull);
}

TEST(ZetaCacheTest, ConcurrentConstructionMatchesOneAlone) {
  // n is used by no other test, so the four threads race on a cold entry.
  constexpr uint64_t kN = 123457;
  constexpr uint64_t kRecorded = 0x905438d07c1aa577ull;  // uncached zeta
  std::atomic<bool> go{false};
  std::vector<uint64_t> digests(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < digests.size(); t++) {
    threads.emplace_back([&go, &digests, t] {
      while (!go.load()) {
        std::this_thread::yield();
      }
      digests[t] = RankDigest(ZipfianRanks(kN, 0.99));
    });
  }
  go.store(true);
  for (std::thread& th : threads) {
    th.join();
  }
  const uint64_t alone = RankDigest(ZipfianRanks(kN, 0.99));
  EXPECT_EQ(alone, kRecorded);
  for (uint64_t d : digests) {
    EXPECT_EQ(d, alone);
  }
}

TEST(ZetaCacheTest, ADifferentKeyIsNotServedTheCachedValue) {
  EXPECT_EQ(RankDigest(ZipfianRanks(1001, 0.99)), 0x0b354fb1f2fdc6a8ull);
  EXPECT_EQ(RankDigest(ZipfianRanks(2003, 0.99)), 0xaca0afdcefe392d3ull);
  EXPECT_EQ(RankDigest(ZipfianRanks(2003, 0.8)), 0x5f62e0de0228c5daull);
  EXPECT_NE(Zeta(1001, 0.99), Zeta(2003, 0.99));
  EXPECT_NE(Zeta(2003, 0.99), Zeta(2003, 0.8));
}

}  // namespace
}  // namespace nomad
