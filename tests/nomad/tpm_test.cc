// Tests for kpromote's transactional page migration: commit, abort on
// dirty, shadow creation, fallbacks, and retries.
#include "src/nomad/kpromote.h"

#include <gtest/gtest.h>

namespace nomad {
namespace {

PlatformSpec TestPlatform(uint64_t fast_pages = 64, uint64_t slow_pages = 64) {
  PlatformSpec p = MakePlatform(PlatformId::kA);
  p.tiers[0].capacity_bytes = fast_pages * kPageSize;
  p.tiers[1].capacity_bytes = slow_pages * kPageSize;
  p.llc_bytes = 64 * 1024;
  return p;
}

class TpmTest : public ::testing::Test {
 protected:
  TpmTest() : TpmTest(TestPlatform()) {}
  explicit TpmTest(const PlatformSpec& platform)
      : ms_(platform, &engine_),
        as_(256),
        shadows_(&ms_),
        queues_(&ms_),
        kpromote_(&ms_, &queues_, &shadows_) {
    ms_.RegisterCpu(0);
    const ActorId id = engine_.AddActor(&kpromote_);
    kpromote_.set_actor_id(id);
  }

  // Maps a slow page and queues it for promotion directly.
  Pfn QueueSlowPage(Vpn vpn, bool writable = true) {
    const Pfn pfn = ms_.MapNewPage(as_, vpn, Tier::kSlow, writable);
    ms_.pool().frame(pfn).set_referenced(true);
    queues_.RequeuePending(pfn);
    return pfn;
  }

  // Runs kpromote's next step (Begin or Commit).
  void StepOnce() {
    const Cycles t = engine_.NextTimeOf(kpromote_.actor_id());
    engine_.Run(t);
  }

  Engine engine_;
  MemorySystem ms_;
  AddressSpace as_;
  ShadowManager shadows_;
  PromotionQueues queues_;
  KpromoteActor kpromote_;
};

TEST_F(TpmTest, CommitPromotesAndCreatesShadow) {
  const Pfn old_pfn = QueueSlowPage(0);
  StepOnce();  // Begin: clear dirty, shootdown, copy
  EXPECT_TRUE(ms_.pool().frame(old_pfn).migrating());
  StepOnce();  // Commit
  EXPECT_EQ(kpromote_.stats().commits, 1u);
  const Pte* pte = ms_.PteOf(as_, 0);
  ASSERT_TRUE(pte->present);
  const Pfn new_pfn = pte->pfn;
  EXPECT_EQ(ms_.pool().TierOf(new_pfn), Tier::kFast);
  // Master is read-only with the original permission in shadow_rw.
  EXPECT_FALSE(pte->writable);
  EXPECT_TRUE(pte->shadow_rw);
  EXPECT_FALSE(pte->dirty);
  // The old frame is the shadow.
  EXPECT_TRUE(ms_.pool().frame(new_pfn).shadowed());
  EXPECT_EQ(shadows_.ShadowOf(new_pfn), old_pfn);
  EXPECT_TRUE(ms_.pool().frame(old_pfn).is_shadow());
  EXPECT_EQ(ms_.pool().frame(old_pfn).lru(), LruList::kNone);
  // The master lands on the fast active list.
  EXPECT_EQ(ms_.pool().frame(new_pfn).lru(), LruList::kActive);
}

TEST_F(TpmTest, ReadOnlyPagePromotesWithoutShadowRw) {
  QueueSlowPage(0, /*writable=*/false);
  StepOnce();
  StepOnce();
  const Pte* pte = ms_.PteOf(as_, 0);
  EXPECT_FALSE(pte->writable);
  EXPECT_FALSE(pte->shadow_rw);  // it was never writable
}

TEST_F(TpmTest, PageStaysAccessibleDuringCopy) {
  QueueSlowPage(0);
  StepOnce();  // Begin; the copy is in flight now
  // An access during the copy must not block or fault.
  AccessInfo info;
  const Cycles c = ms_.Access(0, as_, 0, 0, false, 4, &info);
  EXPECT_FALSE(info.took_fault);
  EXPECT_EQ(info.tier, Tier::kSlow);
  EXPECT_LT(c, 10000u);
}

TEST_F(TpmTest, WriteDuringCopyAbortsTransaction) {
  const Pfn old_pfn = QueueSlowPage(0);
  StepOnce();                        // Begin
  ms_.Access(0, as_, 0, 0, true);    // store during the copy window
  EXPECT_TRUE(ms_.PteOf(as_, 0)->dirty);
  StepOnce();                        // Commit -> abort
  EXPECT_EQ(kpromote_.stats().aborts, 1u);
  EXPECT_EQ(kpromote_.stats().commits, 0u);
  // The page is untouched: same frame, still mapped, still writable.
  const Pte* pte = ms_.PteOf(as_, 0);
  EXPECT_EQ(pte->pfn, old_pfn);
  EXPECT_TRUE(pte->writable);
  EXPECT_FALSE(ms_.pool().frame(old_pfn).migrating());
  // No fast frame was leaked.
  EXPECT_EQ(ms_.pool().UsedFrames(Tier::kFast), 0u);
  // The page was parked for a backed-off retry, still flagged pending.
  EXPECT_EQ(kpromote_.stats().backoffs, 1u);
  EXPECT_EQ(queues_.deferred_size(), 1u);
  EXPECT_TRUE(ms_.pool().frame(old_pfn).in_pending());
  EXPECT_EQ(ms_.pool().frame(old_pfn).tpm_aborts(), 1u);
}

TEST_F(TpmTest, AbortedTransactionRetriesAndCommits) {
  QueueSlowPage(0);
  StepOnce();
  ms_.Access(0, as_, 0, 0, true);  // abort #1
  StepOnce();
  EXPECT_EQ(queues_.deferred_size(), 1u);
  // No further writes: once the backoff expires, the retry goes through.
  for (int i = 0; i < 10 && kpromote_.stats().commits == 0; i++) {
    StepOnce();
  }
  EXPECT_EQ(kpromote_.stats().aborts, 1u);
  EXPECT_EQ(kpromote_.stats().commits, 1u);
  EXPECT_EQ(ms_.pool().TierOf(ms_.PteOf(as_, 0)->pfn), Tier::kFast);
  // A successful commit clears the abort history.
  EXPECT_EQ(ms_.pool().frame(ms_.PteOf(as_, 0)->pfn).tpm_aborts(), 0u);
}

TEST_F(TpmTest, ReadDuringCopyDoesNotAbort) {
  QueueSlowPage(0);
  StepOnce();
  ms_.Access(0, as_, 0, 0, false);  // read during copy
  StepOnce();
  EXPECT_EQ(kpromote_.stats().commits, 1u);
}

TEST_F(TpmTest, MultiMappedPageFallsBackToSyncMigration) {
  const Pfn pfn = QueueSlowPage(0);
  ms_.pool().frame(pfn).set_extra_mappers(1);
  StepOnce();
  EXPECT_EQ(kpromote_.stats().sync_fallbacks, 1u);
  EXPECT_EQ(kpromote_.stats().commits, 0u);
  EXPECT_EQ(ms_.pool().TierOf(ms_.PteOf(as_, 0)->pfn), Tier::kFast);
  // Sync migration is exclusive: no shadow.
  EXPECT_FALSE(ms_.pool().frame(ms_.PteOf(as_, 0)->pfn).shadowed());
}

TEST_F(TpmTest, UnmappedPendingPageIsSkipped) {
  QueueSlowPage(0);
  ms_.UnmapAndFree(as_, 0);
  StepOnce();
  EXPECT_EQ(kpromote_.stats().commits, 0u);
  EXPECT_EQ(kpromote_.stats().aborts, 0u);
}

TEST_F(TpmTest, PageFreedDuringCopyAbortsCleanly) {
  QueueSlowPage(0);
  StepOnce();  // Begin
  ms_.UnmapAndFree(as_, 0);
  StepOnce();  // Commit finds the page gone
  EXPECT_EQ(kpromote_.stats().commits, 0u);
  EXPECT_EQ(ms_.pool().UsedFrames(Tier::kFast), 0u);  // copy frame freed
}

TEST_F(TpmTest, CommitChargesTwoShootdowns) {
  QueueSlowPage(0);
  const uint64_t before = ms_.counters().Get("tlb.shootdown");
  StepOnce();
  StepOnce();
  EXPECT_EQ(ms_.counters().Get("tlb.shootdown"), before + 2);
}

TEST_F(TpmTest, SleepsWhenIdle) {
  StepOnce();  // nothing queued
  EXPECT_GE(engine_.NextTimeOf(kpromote_.actor_id()),
            KpromoteActor::kIdlePoll);
}

TEST_F(TpmTest, DoubleAbortSameVpnBacksOffEachTime) {
  const Pfn pfn = QueueSlowPage(0);
  for (int round = 1; round <= 2; round++) {
    // Step until the next transaction begins on this page (the retry is
    // parked behind an exponential backoff).
    for (int i = 0; i < 20 && !ms_.pool().frame(pfn).migrating(); i++) {
      StepOnce();
    }
    ASSERT_TRUE(ms_.pool().frame(pfn).migrating()) << "round " << round;
    ms_.Access(0, as_, 0, 0, true);  // store during the copy window
    StepOnce();                      // Commit -> abort
    EXPECT_EQ(kpromote_.stats().aborts, static_cast<uint64_t>(round));
    EXPECT_EQ(ms_.pool().frame(pfn).tpm_aborts(), round);
  }
  EXPECT_EQ(kpromote_.stats().backoffs, 2u);
  EXPECT_EQ(queues_.deferred_size(), 1u);
  EXPECT_EQ(kpromote_.stats().commits, 0u);
  // Still mapped to the original frame, still writable.
  EXPECT_EQ(ms_.PteOf(as_, 0)->pfn, pfn);
  EXPECT_TRUE(ms_.PteOf(as_, 0)->writable);
}

TEST_F(TpmTest, AbortThenFreeDropsStaleRetry) {
  QueueSlowPage(0);
  StepOnce();  // Begin
  ms_.Access(0, as_, 0, 0, true);
  StepOnce();  // Commit -> abort, page parked for retry
  ms_.UnmapAndFree(as_, 0);  // page freed before the retry comes due
  for (int i = 0; i < 10; i++) {
    StepOnce();
  }
  // The stale deferred entry was dropped by the generation check, not
  // migrated.
  EXPECT_EQ(kpromote_.stats().commits, 0u);
  EXPECT_EQ(kpromote_.stats().aborts, 1u);
  EXPECT_EQ(queues_.deferred_size(), 0u);
  EXPECT_EQ(ms_.pool().UsedFrames(Tier::kFast), 0u);
  EXPECT_EQ(ms_.pool().UsedFrames(Tier::kSlow), 0u);
}

TEST_F(TpmTest, CommitThenShadowReclaimThenWriteIsSafe) {
  QueueSlowPage(0);
  StepOnce();
  StepOnce();  // Commit: shadow created
  ASSERT_EQ(shadows_.count(), 1u);
  Cycles cost = 0;
  EXPECT_EQ(shadows_.ReclaimShadows(10, &cost), 1u);
  EXPECT_EQ(shadows_.count(), 0u);
  EXPECT_EQ(ms_.pool().UsedFrames(Tier::kSlow), 0u);  // shadow frame freed
  // The master's write protection outlived its shadow; the write-protect
  // fault restores writability without touching freed memory.
  ms_.Access(0, as_, 0, 0, true);
  EXPECT_TRUE(ms_.PteOf(as_, 0)->writable);
  EXPECT_FALSE(ms_.pool().frame(ms_.PteOf(as_, 0)->pfn).shadowed());
}

// Degradation-focused fixture: tiny backoff so retries come due quickly,
// low give-up and storm thresholds so the paths trip within a short test.
class TpmDegradeTest : public ::testing::Test {
 protected:
  static KpromoteActor::Config DegradeConfig() {
    KpromoteActor::Config c;
    c.abort_backoff_base = 1000;
    c.max_txn_retries = 2;
    c.storm_abort_threshold = 3;
    c.storm_window = 10'000'000;
    c.sync_degrade_duration = 300'000;
    return c;
  }

  TpmDegradeTest()
      : ms_(TestPlatform(), &engine_),
        as_(256),
        shadows_(&ms_),
        queues_(&ms_),
        kpromote_(&ms_, &queues_, &shadows_, DegradeConfig()) {
    ms_.RegisterCpu(0);
    const ActorId id = engine_.AddActor(&kpromote_);
    kpromote_.set_actor_id(id);
  }

  Pfn QueueSlowPage(Vpn vpn) {
    const Pfn pfn = ms_.MapNewPage(as_, vpn, Tier::kSlow, true);
    ms_.pool().frame(pfn).set_referenced(true);
    queues_.RequeuePending(pfn);
    return pfn;
  }

  void StepOnce() { engine_.Run(engine_.NextTimeOf(kpromote_.actor_id())); }

  // Dirties vpn whenever its transaction is mid-copy, forcing `n` aborts.
  void ForceAborts(Pfn pfn, Vpn vpn, uint64_t n) {
    const uint64_t start = kpromote_.stats().aborts;
    for (int i = 0; i < 200 && kpromote_.stats().aborts < start + n; i++) {
      if (ms_.pool().frame(pfn).migrating()) {
        ms_.Access(0, as_, vpn, 0, true);
      }
      StepOnce();
    }
    ASSERT_EQ(kpromote_.stats().aborts, start + n);
  }

  Engine engine_;
  MemorySystem ms_;
  AddressSpace as_;
  ShadowManager shadows_;
  PromotionQueues queues_;
  KpromoteActor kpromote_;
};

TEST_F(TpmDegradeTest, GivesUpAfterMaxConsecutiveAborts) {
  const Pfn pfn = QueueSlowPage(0);
  ForceAborts(pfn, 0, 2);  // max_txn_retries = 2
  EXPECT_EQ(kpromote_.stats().giveups, 1u);
  EXPECT_EQ(kpromote_.stats().backoffs, 1u);  // first abort backed off
  // Candidacy dropped entirely; abort history reset for a future
  // re-nomination.
  EXPECT_FALSE(ms_.pool().frame(pfn).in_pending());
  EXPECT_EQ(ms_.pool().frame(pfn).tpm_aborts(), 0u);
  EXPECT_EQ(queues_.deferred_size(), 0u);
  EXPECT_EQ(queues_.pending_size(), 0u);
  // The page itself is intact on the slow tier.
  EXPECT_EQ(ms_.PteOf(as_, 0)->pfn, pfn);
  EXPECT_EQ(ms_.pool().UsedFrames(Tier::kFast), 0u);
}

TEST_F(TpmDegradeTest, AbortStormDegradesToSyncMigrationAndRecovers) {
  // Three different pages each abort once: trips storm_abort_threshold.
  const Pfn p0 = QueueSlowPage(0);
  ForceAborts(p0, 0, 1);
  const Pfn p1 = QueueSlowPage(1);
  ForceAborts(p1, 1, 1);
  const Pfn p2 = QueueSlowPage(2);
  ForceAborts(p2, 2, 1);
  EXPECT_TRUE(kpromote_.degraded());
  EXPECT_EQ(kpromote_.stats().sync_degrades, 1u);

  // While degraded, a fresh candidate migrates synchronously: no shadow,
  // no abort risk, counted separately from multi-map fallbacks. (The three
  // backed-off pages drain through the same degraded path.)
  QueueSlowPage(3);
  for (int i = 0; i < 50 && ms_.pool().TierOf(ms_.PteOf(as_, 3)->pfn) != Tier::kFast; i++) {
    StepOnce();
  }
  EXPECT_GE(kpromote_.stats().degraded_migrations, 1u);
  const Pte* pte = ms_.PteOf(as_, 3);
  ASSERT_EQ(ms_.pool().TierOf(pte->pfn), Tier::kFast);
  EXPECT_FALSE(ms_.pool().frame(pte->pfn).shadowed());

  // After sync_degrade_duration the actor re-enables TPM.
  for (int i = 0; i < 100 && kpromote_.degraded(); i++) {
    StepOnce();
  }
  EXPECT_FALSE(kpromote_.degraded());
  // And a new candidate commits transactionally again.
  const uint64_t commits_before = kpromote_.stats().commits;
  QueueSlowPage(4);
  for (int i = 0; i < 100 && ms_.pool().TierOf(ms_.PteOf(as_, 4)->pfn) != Tier::kFast; i++) {
    StepOnce();
  }
  EXPECT_GT(kpromote_.stats().commits, commits_before);
  EXPECT_TRUE(ms_.pool().frame(ms_.PteOf(as_, 4)->pfn).shadowed());
}

class TpmNoMemTest : public TpmTest {
 protected:
  TpmNoMemTest() : TpmTest(TestPlatform(4, 64)) {}
};

TEST_F(TpmNoMemTest, WaitsWhenFastTierFull) {
  // Fill the tiny fast tier completely.
  for (Vpn v = 100; v < 104; v++) {
    ms_.MapNewPage(as_, v, Tier::kFast);
  }
  QueueSlowPage(0);
  StepOnce();
  EXPECT_EQ(kpromote_.stats().nomem_waits, 1u);
  EXPECT_EQ(kpromote_.stats().commits, 0u);
  // Still queued for a later attempt.
  EXPECT_EQ(queues_.pending_size(), 1u);
}

}  // namespace
}  // namespace nomad
