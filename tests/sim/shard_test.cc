// Tests for the reusable epoch barrier the lockstep engine rests on
// (src/sim/shard.h): no party is released before every party arrived, the
// completion callback runs once in between, and the barrier can be crossed
// again and again.
#include "src/sim/shard.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace nomad {
namespace {

TEST(ShardBarrierTest, ReleasesAllPartiesAndIsReusable) {
  constexpr uint32_t kParties = 4;
  constexpr int kEpochs = 50;
  ShardBarrier barrier(kParties);
  std::atomic<int> in_phase{0};
  std::atomic<bool> overlap{false};
  // The completion runs once per crossing, after every arrival and before
  // any release, so it may share plain fields with the parties, as the
  // lockstep controller does (TSan checks both edges).
  int completions = 0;
  bool ran_early = false;

  // Each thread alternates work/barrier; if the barrier ever released
  // early, two threads would be in different epochs at once and the
  // in_phase counter would exceed the party count mid-epoch.
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < kParties; t++) {
    pool.emplace_back([&] {
      for (int e = 0; e < kEpochs; e++) {
        in_phase++;
        barrier.ArriveAndWait([&] {
          completions++;
          ran_early = ran_early || in_phase.load() != static_cast<int>(kParties) * completions;
        });
        if (in_phase.load() > static_cast<int>(kParties) * (e + 1) || completions != e + 1) {
          overlap = true;
        }
        barrier.ArriveAndWait();
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  EXPECT_FALSE(overlap.load());
  EXPECT_FALSE(ran_early);
  EXPECT_EQ(completions, kEpochs);
  EXPECT_EQ(in_phase.load(), static_cast<int>(kParties) * kEpochs);
}

TEST(ShardBarrierTest, SinglePartyNeverBlocks) {
  ShardBarrier barrier(1);
  for (int i = 0; i < 1000; i++) {
    barrier.ArriveAndWait();
  }
}

}  // namespace
}  // namespace nomad
