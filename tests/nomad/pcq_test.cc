// Tests for the promotion candidate queue / migration pending queue.
#include "src/nomad/pcq.h"

#include <gtest/gtest.h>

#include "src/fault/fault_injector.h"

namespace nomad {
namespace {

PlatformSpec TestPlatform() {
  PlatformSpec p = MakePlatform(PlatformId::kA);
  p.tiers[0].capacity_bytes = 64 * kPageSize;
  p.tiers[1].capacity_bytes = 64 * kPageSize;
  p.llc_bytes = 64 * 1024;
  return p;
}

class PcqTest : public ::testing::Test {
 protected:
  PcqTest() : ms_(TestPlatform(), &engine_), as_(256) {
    ms_.RegisterCpu(0);
    PromotionQueues::Config cfg;
    cfg.pcq_capacity = 8;
    queues_ = std::make_unique<PromotionQueues>(&ms_, cfg);
  }

  Pfn SlowPage(Vpn vpn) { return ms_.MapNewPage(as_, vpn, Tier::kSlow); }

  // Marks the page as referenced + accessed (a hot page's state).
  void Heat(Vpn vpn) {
    Pte* pte = ms_.PteOf(as_, vpn);
    pte->accessed = true;
    ms_.pool().frame(pte->pfn).set_referenced(true);
  }

  Engine engine_;
  MemorySystem ms_;
  AddressSpace as_;
  std::unique_ptr<PromotionQueues> queues_;
};

TEST_F(PcqTest, EnqueueSetsFlag) {
  const Pfn pfn = SlowPage(0);
  queues_->EnqueueCandidate(pfn);
  EXPECT_TRUE(ms_.pool().frame(pfn).in_pcq());
  EXPECT_EQ(queues_->pcq_size(), 1u);
}

TEST_F(PcqTest, DuplicateEnqueueIgnored) {
  const Pfn pfn = SlowPage(0);
  queues_->EnqueueCandidate(pfn);
  queues_->EnqueueCandidate(pfn);
  EXPECT_EQ(queues_->pcq_size(), 1u);
}

TEST_F(PcqTest, FirstScanPrimesAndClearsAbit) {
  const Pfn pfn = SlowPage(0);
  Heat(0);
  queues_->EnqueueCandidate(pfn);
  auto [moved, cost] = queues_->ScanPcq(10);
  EXPECT_EQ(moved, 0u);
  EXPECT_GT(cost, 0u);
  EXPECT_TRUE(ms_.pool().frame(pfn).pcq_primed());
  EXPECT_FALSE(ms_.PteOf(as_, 0)->accessed);
  EXPECT_EQ(queues_->pcq_size(), 1u);  // rotated, still a candidate
}

TEST_F(PcqTest, SecondTouchAfterPrimeMovesToPending) {
  const Pfn pfn = SlowPage(0);
  Heat(0);
  queues_->EnqueueCandidate(pfn);
  queues_->ScanPcq(10);                 // prime
  ms_.PteOf(as_, 0)->accessed = true;   // the decisive second touch
  auto [moved, cost] = queues_->ScanPcq(10);
  EXPECT_EQ(moved, 1u);
  EXPECT_TRUE(ms_.pool().frame(pfn).in_pending());
  EXPECT_FALSE(ms_.pool().frame(pfn).in_pcq());
  EXPECT_EQ(queues_->pending_size(), 1u);
}

TEST_F(PcqTest, UntouchedCandidateKeepsCycling) {
  const Pfn pfn = SlowPage(0);
  Heat(0);
  queues_->EnqueueCandidate(pfn);
  for (int i = 0; i < 5; i++) {
    auto [moved, cost] = queues_->ScanPcq(10);
    EXPECT_EQ(moved, 0u);
  }
  EXPECT_EQ(queues_->pcq_size(), 1u);
  EXPECT_TRUE(ms_.pool().frame(pfn).in_pcq());
}

TEST_F(PcqTest, ScanDoesNotReexamineSameEntryInOneCall) {
  const Pfn pfn = SlowPage(0);
  Heat(0);
  queues_->EnqueueCandidate(pfn);
  // Even with a huge limit, the snapshot prevents prime+expire in one call.
  queues_->ScanPcq(1000);
  EXPECT_TRUE(ms_.pool().frame(pfn).in_pcq());
}

TEST_F(PcqTest, ColdPageWithoutReferencedNeverPromotes) {
  const Pfn pfn = SlowPage(0);
  queues_->EnqueueCandidate(pfn);
  queues_->ScanPcq(10);
  ms_.PteOf(as_, 0)->accessed = true;  // touched, but never referenced
  ms_.pool().frame(pfn).set_referenced(false);
  queues_->ScanPcq(10);
  EXPECT_EQ(queues_->pending_size(), 0u);
}

TEST_F(PcqTest, OverflowDropsOldest) {
  std::vector<Pfn> pages;
  for (Vpn v = 0; v < 9; v++) {  // capacity is 8
    pages.push_back(SlowPage(v));
    queues_->EnqueueCandidate(pages.back());
  }
  EXPECT_EQ(queues_->pcq_size(), 8u);
  EXPECT_FALSE(ms_.pool().frame(pages[0]).in_pcq());  // oldest dropped
  EXPECT_TRUE(ms_.pool().frame(pages[8]).in_pcq());
  EXPECT_EQ(ms_.counters().Get("nomad.pcq_overflow"), 1u);
}

TEST_F(PcqTest, ScanSkipsPromotedPages) {
  const Pfn pfn = SlowPage(0);
  Heat(0);
  queues_->EnqueueCandidate(pfn);
  // Simulate promotion elsewhere: page is unmapped & freed.
  ms_.UnmapAndFree(as_, 0);
  auto [moved, cost] = queues_->ScanPcq(10);
  EXPECT_EQ(moved, 0u);
  EXPECT_EQ(queues_->pcq_size(), 0u);  // dropped as stale
}

TEST_F(PcqTest, PopPendingValidates) {
  const Pfn pfn = SlowPage(0);
  Heat(0);
  queues_->EnqueueCandidate(pfn);
  queues_->ScanPcq(10);
  ms_.PteOf(as_, 0)->accessed = true;
  queues_->ScanPcq(10);
  EXPECT_EQ(queues_->PopPending(), pfn);
  EXPECT_EQ(queues_->PopPending(), kInvalidPfn);
}

TEST_F(PcqTest, PopPendingSkipsStaleEntries) {
  const Pfn pfn = SlowPage(0);
  Heat(0);
  queues_->EnqueueCandidate(pfn);
  queues_->ScanPcq(10);
  ms_.PteOf(as_, 0)->accessed = true;
  queues_->ScanPcq(10);
  ms_.UnmapAndFree(as_, 0);  // page vanished while pending
  EXPECT_EQ(queues_->PopPending(), kInvalidPfn);
}

TEST_F(PcqTest, RequeuePendingForRetry) {
  const Pfn pfn = SlowPage(0);
  queues_->RequeuePending(pfn);
  EXPECT_TRUE(ms_.pool().frame(pfn).in_pending());
  EXPECT_EQ(queues_->PopPending(), pfn);
}

TEST_F(PcqTest, EnqueueRejectedWhilePendingOrMigrating) {
  const Pfn pfn = SlowPage(0);
  ms_.pool().frame(pfn).set_in_pending(true);
  queues_->EnqueueCandidate(pfn);
  EXPECT_EQ(queues_->pcq_size(), 0u);
  ms_.pool().frame(pfn).set_in_pending(false);
  ms_.pool().frame(pfn).set_migrating(true);
  queues_->EnqueueCandidate(pfn);
  EXPECT_EQ(queues_->pcq_size(), 0u);
}

TEST_F(PcqTest, ScanClearsAbitThroughTlb) {
  const Pfn pfn = SlowPage(0);
  ms_.Access(0, as_, 0, 0, false);  // loads the TLB + sets A
  ms_.pool().frame(pfn).set_referenced(true);
  queues_->EnqueueCandidate(pfn);
  queues_->ScanPcq(10);
  // The cached translation must be gone so the next touch re-walks and
  // re-sets the A bit.
  EXPECT_EQ(ms_.tlb(0).Lookup(0), nullptr);
  ms_.Access(0, as_, 0, 0, false);
  EXPECT_TRUE(ms_.PteOf(as_, 0)->accessed);
}

TEST_F(PcqTest, OverflowEmitsTraceAndCounts) {
  // Fill to capacity (8), then one more: the oldest is evicted.
  for (Vpn v = 0; v < 9; v++) {
    queues_->EnqueueCandidate(SlowPage(v));
  }
  EXPECT_EQ(queues_->pcq_size(), 8u);
  EXPECT_EQ(queues_->overflow_count(), 1u);
  EXPECT_EQ(ms_.counters().Get("nomad.pcq_overflow"), 1u);
  EXPECT_EQ(ms_.trace().CountOf(TraceEvent::kPcqOverflow), 1u);
}

TEST_F(PcqTest, HighWatermarksTrackDepth) {
  for (Vpn v = 0; v < 5; v++) {
    queues_->EnqueueCandidate(SlowPage(v));
  }
  EXPECT_EQ(queues_->pcq_hwm(), 5u);
  // Drain some; the high watermark stays.
  queues_->ScanPcq(5);
  EXPECT_EQ(queues_->pcq_hwm(), 5u);
}

// Advancing virtual time requires a runnable actor.
class TickerActor : public Actor {
 public:
  Cycles Step(Engine&) override { return 1000; }
  std::string name() const override { return "ticker"; }
};

TEST_F(PcqTest, DeferPendingSurfacesAfterReadyTime) {
  TickerActor ticker;
  engine_.AddActor(&ticker);
  const Pfn pfn = SlowPage(0);
  queues_->DeferPending(pfn, 5000);
  EXPECT_TRUE(ms_.pool().frame(pfn).in_pending());
  EXPECT_EQ(queues_->deferred_size(), 1u);
  EXPECT_EQ(queues_->NextDeferredReady(), 5000u);
  // Not due yet: PopPending returns nothing (engine time is 0).
  EXPECT_EQ(queues_->PopPending(), kInvalidPfn);
  EXPECT_EQ(queues_->deferred_size(), 1u);
  // Advance virtual time past the ready point.
  engine_.Run(6000);
  EXPECT_EQ(queues_->PopPending(), pfn);
  EXPECT_EQ(queues_->deferred_size(), 0u);
  EXPECT_EQ(queues_->NextDeferredReady(), kNever);
}

// --- PCQ overflow under injected queue pressure -------------------------
//
// The kPcqOverflow fault makes EnqueueCandidate behave as if the PCQ were
// at capacity. These tests pin down why no retry can be lost through that
// seam: an overflow eviction only ever touches pcq_.front(), and every
// deferred/pending page carries in_pending, which makes EnqueueCandidate a
// no-op for it — so a page awaiting its deferred-promotion retry can
// neither be evicted by the storm nor double-queued by the scanner while
// it waits.

TEST_F(PcqTest, ForcedOverflowEvictsOnlyOldestCandidate) {
  auto fi = std::make_unique<FaultInjector>(7);
  FaultSchedule storm;
  storm.probability = 1.0;
  fi->set_schedule(FaultKind::kPcqOverflow, storm);
  ms_.set_fault_injector(std::move(fi));
  const Pfn a = SlowPage(0);
  const Pfn b = SlowPage(1);
  const Pfn c = SlowPage(2);
  queues_->EnqueueCandidate(a);  // empty queue: no fault consult, admitted
  queues_->EnqueueCandidate(b);  // forced overflow evicts a
  queues_->EnqueueCandidate(c);  // forced overflow evicts b
  EXPECT_EQ(queues_->pcq_size(), 1u);
  EXPECT_FALSE(ms_.pool().frame(a).in_pcq());
  EXPECT_FALSE(ms_.pool().frame(b).in_pcq());
  EXPECT_TRUE(ms_.pool().frame(c).in_pcq());
  EXPECT_EQ(queues_->overflow_count(), 2u);
  EXPECT_EQ(ms_.counters().Get("nomad.pcq_overflow"), 2u);
}

TEST_F(PcqTest, DeferredRetrySurvivesForcedOverflowStorm) {
  TickerActor ticker;
  engine_.AddActor(&ticker);
  auto fi = std::make_unique<FaultInjector>(7);
  FaultSchedule storm;
  storm.probability = 1.0;
  fi->set_schedule(FaultKind::kPcqOverflow, storm);
  ms_.set_fault_injector(std::move(fi));
  const Pfn retry = SlowPage(0);
  queues_->DeferPending(retry, 2000);  // a deferred promotion retry in flight
  // A storm of new candidates, every one forcing an eviction.
  for (Vpn v = 1; v <= 6; v++) {
    queues_->EnqueueCandidate(SlowPage(v));
  }
  // The scanner re-notices the hot page mid-storm: in_pending makes this a
  // no-op instead of a second queue entry that the storm could evict.
  queues_->EnqueueCandidate(retry);
  EXPECT_FALSE(ms_.pool().frame(retry).in_pcq());
  EXPECT_TRUE(ms_.pool().frame(retry).in_pending());
  EXPECT_EQ(queues_->deferred_size(), 1u);
  EXPECT_GT(queues_->overflow_count(), 0u);
  // The retry still fires once due, storm notwithstanding.
  engine_.Run(3000);
  EXPECT_EQ(queues_->PopPending(), retry);
}

TEST_F(PcqTest, ForcedOverflowPreservesFifoOrderOfSurvivors) {
  auto fi = std::make_unique<FaultInjector>(7);
  FaultSchedule once;
  once.trigger_start = 0;  // window-only (no probability): exactly the
  once.trigger_count = 1;  // first consult fires
  fi->set_schedule(FaultKind::kPcqOverflow, once);
  ms_.set_fault_injector(std::move(fi));
  std::vector<Pfn> pages;
  for (Vpn v = 0; v < 4; v++) {
    pages.push_back(SlowPage(v));
    Heat(v);
    queues_->EnqueueCandidate(pages.back());  // v==1 forces out v==0
  }
  EXPECT_FALSE(ms_.pool().frame(pages[0]).in_pcq());
  EXPECT_EQ(queues_->pcq_size(), 3u);
  // Promote the survivors through the usual two-touch protocol; pending
  // (and thus migration) order must still be their enqueue order.
  queues_->ScanPcq(10);  // prime
  for (Vpn v = 1; v < 4; v++) {
    ms_.PteOf(as_, v)->accessed = true;
  }
  auto [moved, cost] = queues_->ScanPcq(10);
  (void)cost;
  EXPECT_EQ(moved, 3u);
  EXPECT_EQ(queues_->PopPending(), pages[1]);
  EXPECT_EQ(queues_->PopPending(), pages[2]);
  EXPECT_EQ(queues_->PopPending(), pages[3]);
}

TEST_F(PcqTest, DeferPendingDrainsInReadyOrder) {
  TickerActor ticker;
  engine_.AddActor(&ticker);
  const Pfn a = SlowPage(0);
  const Pfn b = SlowPage(1);
  queues_->DeferPending(b, 3000);  // later insertion, earlier deadline
  queues_->DeferPending(a, 1000);
  engine_.Run(4000);
  EXPECT_EQ(queues_->PopPending(), a);
  EXPECT_EQ(queues_->PopPending(), b);
}

}  // namespace
}  // namespace nomad
