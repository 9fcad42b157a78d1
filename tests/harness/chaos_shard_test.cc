// Chaos seed matrix over the sharded engine: every fault focus runs at
// threads {1,4}, must pass the auditors' checks during the run and the
// InvariantChecker quiescence audit after it, must actually degrade
// (nonzero fault/degradation counters — a chaos cell that injects nothing
// tests nothing), and must produce byte-identical recovery records across
// thread counts. The migration focus also runs under every access
// pattern, and a corrupted cell must be caught mid-run. This is the
// ctest-resident slice of the larger `chaos_sim` campaign, so it also runs
// under the CI TSan job.
#include "src/harness/chaos.h"

#include <gtest/gtest.h>

#include <string>

namespace nomad {
namespace {

// Small enough to keep the 3x2 matrix cheap under TSan, large enough that
// every focus's trigger windows land inside the run.
constexpr uint64_t kCellOps = 16000;

ChaosCellConfig Cell(ChaosFocus focus, uint32_t threads, uint64_t seed,
                     AccessPattern pattern = AccessPattern::kZipf) {
  ChaosCellConfig cfg;
  cfg.seed = seed;
  cfg.focus = focus;
  cfg.pattern = pattern;
  cfg.exec_threads = threads;
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
      EXPECT_TRUE(r.audit_violations.empty()) << r.audit_violations.front().rule;
      EXPECT_GT(r.audits, 0u);
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
  const ChaosCellResult one = RunChaosCell(Cell(GetParam(), /*threads=*/1, /*seed=*/1));
  const ChaosCellResult four = RunChaosCell(Cell(GetParam(), /*threads=*/4, /*seed=*/1));
  EXPECT_EQ(one.recovery, four.recovery);
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

// The migration focus arms the per-page fault kinds under every access
// pattern the campaign runs, with the auditors stepping during the run.
TEST(ChaosMigrationTest, EveryAccessPatternQuiescesUnderPerPageFaults) {
  for (AccessPattern pattern : kAccessPatterns) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string("pattern=") + AccessPatternName(pattern) +
                   " seed=" + std::to_string(seed));
      const ChaosCellResult r =
          RunChaosCell(Cell(ChaosFocus::kMigration, /*threads=*/1, seed, pattern));
      EXPECT_TRUE(r.ok) << r.recovery;
      EXPECT_GT(r.audits, 0u);
      EXPECT_GT(r.faults_injected, 0u) << r.recovery;
      EXPECT_GT(r.degradations, 0u) << r.recovery;
    }
  }
}

// A frame freed behind its PTE's back mid-run must be reported by the
// auditors while the run goes on, not only by the audit at its end: the
// case chaos_sim --selftest proves from the command line.
TEST(ChaosCorruptionTest, AuditorsReportAFreedMappedFrame) {
  for (AccessPattern pattern : kAccessPatterns) {
    SCOPED_TRACE(AccessPatternName(pattern));
    ChaosCellConfig cfg = Cell(ChaosFocus::kMigration, /*threads=*/1, /*seed=*/7, pattern);
    cfg.corrupt = true;
    const ChaosCellResult r = RunChaosCell(cfg);
    EXPECT_FALSE(r.ok);
    ASSERT_FALSE(r.audit_violations.empty());
    EXPECT_EQ(r.audit_violations.front().rule.rfind("pte.", 0), 0u)
        << r.audit_violations.front().rule;
  }
}

// Focus and workload names round-trip (chaos_sim parses --focus and
// --workloads lists with these).
TEST(ChaosFocusTest, NamesRoundTrip) {
  for (ChaosFocus f : kChaosFocuses) {
    ChaosFocus parsed;
    ASSERT_TRUE(ChaosFocusFromName(ChaosFocusName(f), &parsed));
    EXPECT_EQ(parsed, f);
  }
  ChaosFocus parsed;
  EXPECT_FALSE(ChaosFocusFromName("not-a-focus", &parsed));
  for (AccessPattern p : kAccessPatterns) {
    AccessPattern parsed_pattern;
    ASSERT_TRUE(AccessPatternFromName(AccessPatternName(p), &parsed_pattern));
    EXPECT_EQ(parsed_pattern, p);
  }
  AccessPattern parsed_pattern;
  EXPECT_FALSE(AccessPatternFromName("micro", &parsed_pattern));
}

}  // namespace
}  // namespace nomad
