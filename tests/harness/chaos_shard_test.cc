// Chaos seed matrix over the sharded engine: every fault focus runs at
// threads {1,4}, must pass the post-fault InvariantChecker quiescence
// audit, must actually degrade (nonzero fault/degradation counters — a
// chaos cell that injects nothing tests nothing), and must produce
// byte-identical recovery records across thread counts. This is the
// ctest-resident slice of the larger `chaos_sim --soak` campaign, so it
// also runs under the CI TSan job.
#include "src/harness/chaos.h"

#include <gtest/gtest.h>

#include <string>

#include "src/fault/fault_injector.h"

namespace nomad {
namespace {

// Small enough to keep the 3x2 matrix cheap under TSan, large enough that
// every focus's trigger windows land inside the run.
constexpr uint64_t kCellOps = 16000;

ChaosCellConfig Cell(ChaosFocus focus, uint32_t threads, uint64_t seed) {
  ChaosCellConfig cfg;
  cfg.seed = seed;
  cfg.focus = focus;
  cfg.exec_threads = threads;
  cfg.shards = 4;
  cfg.total_ops = kCellOps;
  return cfg;
}

class ChaosMatrixTest : public ::testing::TestWithParam<ChaosFocus> {};

TEST_P(ChaosMatrixTest, QuiescesWithDegradationAtEveryThreadCount) {
  for (uint32_t threads : {1u, 4u}) {
    for (uint64_t seed : {1u, 2u}) {
      const ChaosCellResult r = RunChaosCell(Cell(GetParam(), threads, seed));
      SCOPED_TRACE(std::string("focus=") + ChaosFocusName(GetParam()) +
                   " threads=" + std::to_string(threads) + " seed=" + std::to_string(seed));
      EXPECT_TRUE(r.ok);
      EXPECT_EQ(r.invariant_violations, 0u) << r.recovery;
      EXPECT_GT(r.epochs, 0u);
      // The cell must have exercised its failure mode: faults fired and
      // the control plane visibly degraded (stall/delay/wave/overflow/
      // sync-fallback counters), rather than sailing through untouched.
      EXPECT_GT(r.faults_injected, 0u) << r.recovery;
      EXPECT_GT(r.degradations, 0u) << r.recovery;
    }
  }
}

TEST_P(ChaosMatrixTest, RecoveryIsByteIdenticalAcrossThreadCounts) {
  std::string diff;
  EXPECT_TRUE(ChaosCellDeterministic(Cell(GetParam(), /*threads=*/1, /*seed=*/1), &diff))
      << diff;
}

std::string FocusParamName(const ::testing::TestParamInfo<ChaosFocus>& param_info) {
  return ChaosFocusName(param_info.param);
}

INSTANTIATE_TEST_SUITE_P(AllFocuses, ChaosMatrixTest, ::testing::ValuesIn(kChaosFocuses),
                         FocusParamName);

// The shard-stall focus arms windows at or past the watchdog threshold, so
// the deterministic watchdog must convict at least one shard and surface
// the verdict in both the merged result and the recovery record.
TEST(ChaosWatchdogTest, StallFocusTripsWatchdog) {
  const ChaosCellResult r = RunChaosCell(Cell(ChaosFocus::kShardStall, /*threads=*/1, /*seed=*/1));
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.watchdog_stalls, 0u) << r.recovery;
  EXPECT_NE(r.recovery.find("watchdog_stalls"), std::string::npos);
}

// Focus names round-trip (the soak CLI parses --focus lists with these).
TEST(ChaosFocusTest, NamesRoundTrip) {
  for (ChaosFocus f : kChaosFocuses) {
    ChaosFocus parsed;
    ASSERT_TRUE(ChaosFocusFromName(ChaosFocusName(f), &parsed));
    EXPECT_EQ(parsed, f);
  }
  ChaosFocus parsed;
  EXPECT_FALSE(ChaosFocusFromName("not-a-focus", &parsed));
}

}  // namespace
}  // namespace nomad
