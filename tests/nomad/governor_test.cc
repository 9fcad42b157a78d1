// Tests for the thrash governor (the paper's sec. 5 extension).
#include "src/nomad/governor.h"

#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/workload/micro.h"

namespace nomad {
namespace {

PlatformSpec TestPlatform() {
  PlatformSpec p = MakePlatform(PlatformId::kA);
  p.tiers[0].capacity_bytes = 256 * kPageSize;
  p.tiers[1].capacity_bytes = 256 * kPageSize;
  p.llc_bytes = 64 * 1024;
  return p;
}

class GovernorTest : public ::testing::Test {
 protected:
  GovernorTest() : ms_(TestPlatform(), &engine_) {
    ThrashGovernor::Config cfg;
    cfg.period = 1000;
    cfg.min_promotions = 100;
    cfg.probation_periods = 2;
    cfg.max_backoff = 8;
    governor_ = std::make_unique<ThrashGovernor>(&ms_, &gate_, cfg);
    engine_.AddActor(governor_.get());
  }

  // Advances virtual time by one governor period.
  void Tick() { engine_.Run(engine_.now() + 1000); }

  // Simulates one period of migration activity.
  void Churn(uint64_t promos, uint64_t demos) {
    ms_.counters().Add("nomad.tpm_commit", promos);
    ms_.counters().Add("nomad.demote_recent", demos);
  }

  Engine engine_;
  MemorySystem ms_;
  PromotionGate gate_;
  std::unique_ptr<ThrashGovernor> governor_;
};

TEST_F(GovernorTest, GateStartsOpen) { EXPECT_TRUE(gate_.open); }

TEST_F(GovernorTest, QuietPeriodsKeepGateOpen) {
  for (int i = 0; i < 5; i++) {
    Tick();
  }
  EXPECT_TRUE(gate_.open);
  EXPECT_EQ(governor_->throttle_events(), 0u);
}

TEST_F(GovernorTest, OneSidedMigrationKeepsGateOpen) {
  // Heavy promotion with little demotion = healthy warm-up, not thrash.
  for (int i = 0; i < 4; i++) {
    Churn(1000, 50);
    Tick();
  }
  EXPECT_TRUE(gate_.open);
}

TEST_F(GovernorTest, BalancedChurnClosesGate) {
  Tick();             // baseline sample
  Churn(1000, 950);   // promotions ~ demotions, both high
  Tick();
  EXPECT_FALSE(gate_.open);
  EXPECT_EQ(governor_->throttle_events(), 1u);
  EXPECT_EQ(ms_.counters().Get("governor.throttle"), 1u);
}

TEST_F(GovernorTest, LowRateBalancedChurnIgnored) {
  Tick();
  Churn(50, 50);  // balanced but below min_promotions
  Tick();
  EXPECT_TRUE(gate_.open);
}

TEST_F(GovernorTest, GateReopensAfterBackoff) {
  Tick();
  Churn(1000, 950);
  Tick();
  ASSERT_FALSE(gate_.open);
  // First throttle: backoff = 1 period, then it reopens on probation.
  Tick();
  EXPECT_TRUE(gate_.open);
  EXPECT_EQ(ms_.counters().Get("governor.reopen"), 1u);
}

TEST_F(GovernorTest, RelapseDoublesBackoff) {
  Tick();
  Churn(1000, 950);
  Tick();           // close (backoff 1)
  Tick();           // reopen on probation
  ASSERT_TRUE(gate_.open);
  Churn(1000, 950);
  Tick();           // relapse during probation: close with backoff 2
  ASSERT_FALSE(gate_.open);
  Tick();           // 1 of 2 closed periods
  EXPECT_FALSE(gate_.open);
  Tick();           // 2 of 2: reopens
  EXPECT_TRUE(gate_.open);
}

TEST_F(GovernorTest, SurvivingProbationResetsBackoff) {
  Tick();
  Churn(1000, 950);
  Tick();  // close
  Tick();  // reopen, probation = 2
  Tick();  // quiet probation period 1
  Tick();  // quiet probation period 2 -> backoff resets
  Churn(1000, 950);
  Tick();  // close again: backoff must be 1 (not doubled)
  ASSERT_FALSE(gate_.open);
  Tick();
  EXPECT_TRUE(gate_.open);
}

// End-to-end: under a large-WSS thrashing run, the governed NOMAD throttles
// promotion and performs at least as well as ungoverned NOMAD.
TEST(GovernorIntegrationTest, ThrottlesUnderLargeWss) {
  auto run = [](bool governed) {
    const Scale scale{1024};
    const PlatformSpec platform = MakePlatform(PlatformId::kA, scale);
    NomadPolicy::Config pcfg;
    pcfg.enable_governor = governed;
    pcfg.governor.period = 500000;
    pcfg.governor.min_promotions = 8;  // scaled-down run: low absolute rates
    Sim sim(platform, PolicyKind::kNomad, 20000, pcfg);
    MicroLayout layout;
    layout.rss_pages = scale.Pages(27.0);
    layout.wss_pages = scale.Pages(27.0);
    layout.wss_fast_pages = scale.Pages(16.0);
    layout.kernel_pages = scale.Pages(3.5);
    ScrambledZipfian zipf(layout.wss_pages, 0.99, 5);
    const Vpn wss_start = SetupMicroLayout(sim, layout, zipf);
    MicroWorkload::Config cfg;
    cfg.base.total_ops = 120000;
    cfg.wss_start = wss_start;
    cfg.wss_pages = layout.wss_pages;
    MicroWorkload app(&sim.ms(), &sim.as(), &zipf, cfg);
    sim.AddWorkload(&app);
    sim.Run();
    return std::make_pair(sim.nomad()->governor() != nullptr
                              ? sim.ms().counters().Get("governor.throttle")
                              : 0,
                          Analyze(sim).overall_gbps);
  };
  const auto [throttles, governed_gbps] = run(true);
  const auto [zero, plain_gbps] = run(false);
  EXPECT_GT(throttles, 0u);
  EXPECT_EQ(zero, 0u);
  EXPECT_GE(governed_gbps, plain_gbps * 0.9);
}

}  // namespace
}  // namespace nomad
