// Tests for the migration admission controller (the overload control
// plane): token-bucket budget accrual, backlog rejection, the per-page
// abort-storm downgrade with decay re-admission, demotion credits, and the
// observability contract (counters, trace events, provenance fields).
#include "src/nomad/admission.h"

#include <gtest/gtest.h>

#include "src/obs/event_registry.h"

namespace nomad {
namespace {

PlatformSpec TestPlatform() {
  PlatformSpec p = MakePlatform(PlatformId::kA);
  p.tiers[0].capacity_bytes = 64 * kPageSize;
  p.tiers[1].capacity_bytes = 64 * kPageSize;
  p.llc_bytes = 64 * 1024;
  return p;
}

// Advancing virtual time requires a runnable actor.
class TickerActor : public Actor {
 public:
  Cycles Step(Engine&) override { return 1000; }
  std::string name() const override { return "ticker"; }
};

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest() : ms_(TestPlatform(), &engine_), as_(256) {
    ms_.RegisterCpu(0);
    engine_.AddActor(&ticker_);
    AdmissionController::Config cfg;
    cfg.promote_cycles_per_page = 1000;
    cfg.promote_burst_pages = 4;
    cfg.demote_cycles_per_page = 1000;
    cfg.demote_burst_pages = 2;
    cfg.max_pending_backlog = 8;
    cfg.downgrade_abort_threshold = 3;
    cfg.downgrade_decay = 10000;
    admission_ = std::make_unique<AdmissionController>(&ms_, cfg);
  }

  Pfn SlowPage(Vpn vpn) { return ms_.MapNewPage(as_, vpn, Tier::kSlow); }

  AdmissionVerdict Admit(Pfn pfn, Vpn vpn, uint64_t backlog = 0) {
    Cycles retry = 0;
    return admission_->AdmitPromotion(pfn, vpn, backlog, &retry);
  }

  Engine engine_;
  MemorySystem ms_;
  AddressSpace as_;
  TickerActor ticker_;
  std::unique_ptr<AdmissionController> admission_;
};

TEST_F(AdmissionTest, FirstBurstAcceptedThenDeferred) {
  const Pfn pfn = SlowPage(0);
  // The bucket primes full: burst_pages accepts back-to-back at time 0.
  for (int i = 0; i < 4; i++) {
    EXPECT_EQ(Admit(pfn, 0), AdmissionVerdict::kAccept) << "accept #" << i;
  }
  // Budget exhausted and no virtual time has passed: defer.
  EXPECT_EQ(Admit(pfn, 0), AdmissionVerdict::kDefer);
  EXPECT_EQ(admission_->stats().accepts, 4u);
  EXPECT_EQ(admission_->stats().defers, 1u);
}

TEST_F(AdmissionTest, DeferReportsWhenTokenAccrues) {
  const Pfn pfn = SlowPage(0);
  for (int i = 0; i < 4; i++) {
    Admit(pfn, 0);
  }
  Cycles retry = 0;
  EXPECT_EQ(admission_->AdmitPromotion(pfn, 0, 0, &retry), AdmissionVerdict::kDefer);
  // Empty bucket at time 0: a full token needs promote_cycles_per_page.
  EXPECT_EQ(retry, 1000u);
}

TEST_F(AdmissionTest, BudgetRefillsWithVirtualTime) {
  const Pfn pfn = SlowPage(0);
  for (int i = 0; i < 5; i++) {
    Admit(pfn, 0);  // 4 accepts, then a defer leaves the bucket empty
  }
  engine_.Run(2500);  // 2500 cycles -> 2 tokens accrued
  EXPECT_EQ(Admit(pfn, 0), AdmissionVerdict::kAccept);
  EXPECT_EQ(Admit(pfn, 0), AdmissionVerdict::kAccept);
  EXPECT_EQ(Admit(pfn, 0), AdmissionVerdict::kDefer);
}

TEST_F(AdmissionTest, BacklogOverCapRejects) {
  const Pfn pfn = SlowPage(0);
  EXPECT_EQ(Admit(pfn, 0, /*backlog=*/9), AdmissionVerdict::kReject);
  EXPECT_EQ(admission_->stats().rejects, 1u);
  // The reject consumed no budget: the full burst is still available.
  for (int i = 0; i < 4; i++) {
    EXPECT_EQ(Admit(pfn, 0), AdmissionVerdict::kAccept);
  }
}

TEST_F(AdmissionTest, PcqFeedThrottleAtCap) {
  EXPECT_FALSE(admission_->PcqFeedThrottled(7));
  EXPECT_TRUE(admission_->PcqFeedThrottled(8));
  EXPECT_TRUE(admission_->PcqFeedThrottled(9));
}

TEST_F(AdmissionTest, AbortStormDowngradesToSync) {
  const Pfn pfn = SlowPage(0);
  ms_.pool().frame(pfn).set_tpm_aborts(3);  // at the threshold
  EXPECT_EQ(Admit(pfn, 0), AdmissionVerdict::kDowngradeSync);
  EXPECT_EQ(admission_->downgraded_pages(), 1u);
  // Still downgraded on the next request (tracked in the map now).
  EXPECT_EQ(Admit(pfn, 0), AdmissionVerdict::kDowngradeSync);
  EXPECT_EQ(admission_->downgraded_pages(), 1u);
  EXPECT_EQ(admission_->stats().downgrades, 2u);
}

TEST_F(AdmissionTest, DowngradeDecayReadmitsAndResetsAborts) {
  const Pfn pfn = SlowPage(0);
  ms_.pool().frame(pfn).set_tpm_aborts(3);
  EXPECT_EQ(Admit(pfn, 0), AdmissionVerdict::kDowngradeSync);
  engine_.Run(11000);  // past downgrade_decay
  EXPECT_EQ(Admit(pfn, 0), AdmissionVerdict::kAccept);
  EXPECT_EQ(admission_->downgraded_pages(), 0u);
  EXPECT_EQ(ms_.pool().frame(pfn).tpm_aborts(), 0u);
  EXPECT_EQ(admission_->stats().readmits, 1u);
}

TEST_F(AdmissionTest, DemotionCreditsPaceBackgroundDemotion) {
  EXPECT_TRUE(admission_->AdmitDemotion());
  EXPECT_TRUE(admission_->AdmitDemotion());
  EXPECT_FALSE(admission_->AdmitDemotion());  // burst of 2 spent
  EXPECT_EQ(admission_->stats().demote_accepts, 2u);
  EXPECT_EQ(admission_->stats().demote_defers, 1u);
  engine_.Run(1500);
  EXPECT_TRUE(admission_->AdmitDemotion());
}

TEST_F(AdmissionTest, PromotionAndDemotionBucketsAreIndependent) {
  const Pfn pfn = SlowPage(0);
  for (int i = 0; i < 5; i++) {
    Admit(pfn, 0);  // exhaust the promotion bucket entirely
  }
  // Demotion credits are untouched by promotion spending.
  EXPECT_TRUE(admission_->AdmitDemotion());
}

TEST_F(AdmissionTest, EveryVerdictIsCountedAndTraced) {
  const Pfn storm = SlowPage(0);
  const Pfn ok = SlowPage(1);
  ms_.pool().frame(storm).set_tpm_aborts(3);
  Admit(ok, 1);               // accept
  Admit(storm, 0);            // downgrade
  Admit(ok, 1, /*backlog=*/9);  // reject
  for (int i = 0; i < 4; i++) {
    Admit(ok, 1);  // drain the budget...
  }
  EXPECT_EQ(ms_.counters().Get(cnt::kAdmissionAccept), admission_->stats().accepts);
  EXPECT_EQ(ms_.counters().Get(cnt::kAdmissionDowngradeSync), 1u);
  EXPECT_EQ(ms_.counters().Get(cnt::kAdmissionReject), 1u);
  EXPECT_EQ(ms_.counters().Get(cnt::kAdmissionDefer), admission_->stats().defers);
  EXPECT_GT(admission_->stats().defers, 0u);
  const uint64_t verdicts = admission_->stats().accepts + admission_->stats().defers +
                            admission_->stats().rejects + admission_->stats().downgrades;
  EXPECT_EQ(ms_.trace().CountOf(TraceEvent::kAdmissionVerdict), verdicts);
}

TEST_F(AdmissionTest, ProvenanceRecordsDegradingVerdicts) {
  const Pfn storm = SlowPage(0);
  const Pfn ok = SlowPage(1);
  ms_.pool().frame(storm).set_tpm_aborts(3);
  Admit(storm, 0);              // downgrade -> ledger (consumes a token)
  Admit(ok, 1, /*backlog=*/9);  // reject -> ledger (consumes none)
  for (int i = 0; i < 5; i++) {
    Admit(ok, 1);  // 3 remaining tokens: 3 accepts, then 2 defers -> ledger
  }
  EXPECT_EQ(ms_.provenance().admit_downgrades(), 1u);
  EXPECT_EQ(ms_.provenance().admit_rejects(), 1u);
  EXPECT_EQ(ms_.provenance().admit_defers(), 2u);
}

}  // namespace
}  // namespace nomad
