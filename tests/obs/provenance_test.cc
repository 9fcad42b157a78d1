// Provenance ledger tests: ping-pong detection, re-dirty rate, the page
// bound with its dropped counter, and deterministic top-thrasher ranking.
#include "src/obs/provenance.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/obs/exporters.h"

namespace nomad {
namespace {

TEST(ProvenanceTest, PingPongNeedsLivePromotion) {
  ProvenanceLedger ledger;
  // Demoting a never-promoted (cold) page is warm-up, not a ping-pong.
  ledger.OnDemote(5, 100);
  // Promote then demote: one ping-pong; a second demote without a new
  // promotion does not count again.
  ledger.OnPromote(5, 200);
  ledger.OnDemote(5, 300);
  ledger.OnDemote(5, 400);
  const PageProvenance& rec = ledger.pages().at(5);
  EXPECT_EQ(rec.promotions, 1u);
  EXPECT_EQ(rec.demotions, 3u);
  EXPECT_EQ(rec.ping_pongs, 1u);
  EXPECT_FALSE(rec.promoted_live);
  EXPECT_EQ(ledger.ping_pong_events(), 1u);
  EXPECT_EQ(ledger.ping_pong_pages(), 1u);
  EXPECT_EQ(rec.first_event, 100u);
  EXPECT_EQ(rec.last_event, 400u);
}

TEST(ProvenanceTest, RedirtyRateIsPerPromotion) {
  ProvenanceLedger ledger;
  ledger.OnPromote(1, 10);
  ledger.OnPromote(2, 20);
  ledger.OnPromote(3, 30);
  ledger.OnPromote(4, 40);
  ledger.OnRedirty(1, 50);
  EXPECT_DOUBLE_EQ(ledger.RedirtyRate(), 0.25);
  EXPECT_EQ(ledger.redirty_events(), 1u);
}

TEST(ProvenanceTest, BoundDropsExcessPages) {
  ProvenanceLedger ledger(/*max_pages=*/4);
  for (uint64_t vpn = 0; vpn < 10; vpn++) {
    ledger.OnPromote(vpn, vpn);
  }
  // Updates to already-tracked pages still land after the bound is hit.
  ledger.OnDemote(0, 100);
  EXPECT_EQ(ledger.tracked(), 4u);
  EXPECT_EQ(ledger.dropped(), 6u);
  EXPECT_EQ(ledger.promotions(), 4u);
  EXPECT_EQ(ledger.pages().at(0).demotions, 1u);
}

TEST(ProvenanceTest, TopThrashersRankingIsDeterministic) {
  ProvenanceLedger ledger;
  // vpn 10: 2 ping-pongs (score 4). vpn 20: 1 ping-pong + 1 redirty
  // (score 3). vpn 30 and 31: 1 abort each (score 1, tie broken by vpn).
  // vpn 40: promoted only (score 0, omitted).
  for (int i = 0; i < 2; i++) {
    ledger.OnPromote(10, 1);
    ledger.OnDemote(10, 2);
  }
  ledger.OnPromote(20, 3);
  ledger.OnRedirty(20, 4);
  ledger.OnDemote(20, 5);
  ledger.OnAbort(31, 6);
  ledger.OnAbort(30, 7);
  ledger.OnPromote(40, 8);
  const auto top = ledger.TopThrashers(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].vpn, 10u);
  EXPECT_EQ(top[0].score, 4u);
  EXPECT_EQ(top[1].vpn, 20u);
  EXPECT_EQ(top[1].score, 3u);
  EXPECT_EQ(top[2].vpn, 30u);  // vpn ascending on the tie with 31
  EXPECT_EQ(ledger.TopThrashers(10).size(), 4u);
}

TEST(ProvenanceTest, ShadowFreesTracked) {
  ProvenanceLedger ledger;
  ledger.OnPromote(7, 1);
  ledger.OnShadowFree(7, 2);
  EXPECT_EQ(ledger.shadow_frees(), 1u);
  EXPECT_EQ(ledger.pages().at(7).shadow_frees, 1u);
}

TEST(ProvenanceTest, ResetClears) {
  ProvenanceLedger ledger(/*max_pages=*/2);
  ledger.OnPromote(1, 1);
  ledger.OnPromote(2, 2);
  ledger.OnPromote(3, 3);  // dropped
  ledger.Reset();
  EXPECT_EQ(ledger.tracked(), 0u);
  EXPECT_EQ(ledger.dropped(), 0u);
  EXPECT_EQ(ledger.promotions(), 0u);
  // The bound re-arms after reset.
  ledger.OnPromote(9, 4);
  EXPECT_EQ(ledger.tracked(), 1u);
}

TEST(ProvenanceExportTest, JsonCarriesAggregatesAndThrashers) {
  ProvenanceLedger ledger;
  ledger.OnPromote(11, 1);
  ledger.OnDemote(11, 2);
  std::ostringstream os;
  JsonWriter jw(os);
  AppendProvenanceJson(jw, ledger);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"redirty_rate\""), std::string::npos);
  EXPECT_NE(doc.find("\"ping_pong_events\":1"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"vpn\":11"), std::string::npos) << doc;
}

}  // namespace
}  // namespace nomad
