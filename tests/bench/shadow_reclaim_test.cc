// Table 3's claim at three seeds: as RSS nears the 30.7 GB of tiered
// memory, shadow reclamation shrinks the shadow footprint and no
// allocation ever fails.
#include <gtest/gtest.h>

#include "bench/bench_common.h"

namespace nomad {
namespace {

TEST(ShadowReclaimTest, FootprintShrinksNearCapacityWithoutOom) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    const MicroRunResult roomy = RunMicroBench(ShadowReclaimConfig(25.0, seed));
    const MicroRunResult tight = RunMicroBench(ShadowReclaimConfig(29.0, seed));
    EXPECT_EQ(roomy.counters.Get(cnt::kOom), 0u);
    EXPECT_EQ(tight.counters.Get(cnt::kOom), 0u);
    EXPECT_GT(roomy.shadow_pages, 0u);
    EXPECT_LT(tight.shadow_pages, roomy.shadow_pages);
    EXPECT_GT(tight.counters.Get(cnt::kNomadShadowReclaimed), 0u);
  }
}

}  // namespace
}  // namespace nomad
