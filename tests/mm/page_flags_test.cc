// Round-trip and aliasing tests for the packed frame-flags word.
//
// FrameTable stores every frame's hot state in one uint32_t (src/mm/page.h):
// single-bit flags plus two multi-bit fields (LRU list id, TPM abort
// count). The hazard of a packed word is aliasing - a setter clobbering a
// neighboring field - so each test drives one accessor through its full
// range while asserting every OTHER field of the same word is untouched.
#include "src/mm/page.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace nomad {
namespace {

class PageFlagsTest : public ::testing::Test {
 protected:
  void SetUp() override { table_.Resize(kFrames); }

  static constexpr uint64_t kFrames = 8;
  FrameTable table_;
};

// Snapshot of every field PageFrame exposes out of the packed word, for
// whole-word aliasing checks.
struct FlagsSnapshot {
  Tier tier;
  bool in_use, referenced, active, promoted, shadowed, is_shadow;
  bool in_pcq, pcq_primed, in_pending, migrating;
  LruList lru;
  uint8_t tpm_aborts;

  static FlagsSnapshot Of(const PageFrame& f) {
    return {f.tier(),     f.in_use(),     f.referenced(), f.active(),
            f.promoted(), f.shadowed(),   f.is_shadow(),  f.in_pcq(),
            f.pcq_primed(), f.in_pending(), f.migrating(), f.lru(),
            f.tpm_aborts()};
  }

  bool operator==(const FlagsSnapshot&) const = default;
};

TEST_F(PageFlagsTest, FreshFrameIsAllClear) {
  const PageFrame f(&table_, 0);
  EXPECT_EQ(f.tier(), Tier::kFast);
  EXPECT_FALSE(f.in_use());
  EXPECT_FALSE(f.referenced());
  EXPECT_FALSE(f.active());
  EXPECT_FALSE(f.promoted());
  EXPECT_FALSE(f.shadowed());
  EXPECT_FALSE(f.is_shadow());
  EXPECT_FALSE(f.in_pcq());
  EXPECT_FALSE(f.pcq_primed());
  EXPECT_FALSE(f.in_pending());
  EXPECT_FALSE(f.migrating());
  EXPECT_EQ(f.lru(), LruList::kNone);
  EXPECT_EQ(f.tpm_aborts(), 0);
}

TEST_F(PageFlagsTest, BooleanFlagsRoundTripWithoutAliasing) {
  PageFrame f(&table_, 1);
  // Give the neighbors distinctive values so a clobber is visible.
  f.set_tier(Tier::kSlow);
  f.set_lru(LruList::kActive);
  f.set_tpm_aborts(0xA5);

  struct Bit {
    void (PageFrame::*set)(bool);
    bool (PageFrame::*get)() const;
  };
  const Bit bits[] = {
      {&PageFrame::set_in_use, &PageFrame::in_use},
      {&PageFrame::set_referenced, &PageFrame::referenced},
      {&PageFrame::set_active, &PageFrame::active},
      {&PageFrame::set_promoted, &PageFrame::promoted},
      {&PageFrame::set_shadowed, &PageFrame::shadowed},
      {&PageFrame::set_is_shadow, &PageFrame::is_shadow},
      {&PageFrame::set_in_pcq, &PageFrame::in_pcq},
      {&PageFrame::set_pcq_primed, &PageFrame::pcq_primed},
      {&PageFrame::set_in_pending, &PageFrame::in_pending},
      {&PageFrame::set_migrating, &PageFrame::migrating},
  };
  for (const Bit& b : bits) {
    FlagsSnapshot before = FlagsSnapshot::Of(f);
    (f.*b.set)(true);
    EXPECT_TRUE((f.*b.get)());
    // Everything except the toggled bit must be unchanged.
    FlagsSnapshot after = FlagsSnapshot::Of(f);
    EXPECT_EQ(after.tier, before.tier);
    EXPECT_EQ(after.lru, before.lru);
    EXPECT_EQ(after.tpm_aborts, before.tpm_aborts);
    (f.*b.set)(false);
    EXPECT_FALSE((f.*b.get)());
    EXPECT_EQ(FlagsSnapshot::Of(f), before);
  }
}

TEST_F(PageFlagsTest, LruFieldCoversAllValuesWithoutAliasing) {
  PageFrame f(&table_, 2);
  f.set_referenced(true);
  f.set_migrating(true);
  f.set_tpm_aborts(0xFF);
  for (LruList l : {LruList::kInactive, LruList::kActive, LruList::kNone}) {
    f.set_lru(l);
    EXPECT_EQ(f.lru(), l);
    EXPECT_TRUE(f.referenced());
    EXPECT_TRUE(f.migrating());
    EXPECT_EQ(f.tpm_aborts(), 0xFF);
  }
}

TEST_F(PageFlagsTest, TpmAbortsCoversFullRangeWithoutAliasing) {
  PageFrame f(&table_, 3);
  f.set_lru(LruList::kActive);
  f.set_shadowed(true);
  for (int v : {0, 1, 0x7F, 0x80, 0xFF}) {
    f.set_tpm_aborts(static_cast<uint8_t>(v));
    EXPECT_EQ(f.tpm_aborts(), v);
    EXPECT_EQ(f.lru(), LruList::kActive);
    EXPECT_TRUE(f.shadowed());
  }
  // bump saturates modulo 256 by construction (uint8_t cast).
  f.set_tpm_aborts(0xFF);
  f.bump_tpm_aborts();
  EXPECT_EQ(f.tpm_aborts(), 0);
  EXPECT_EQ(f.lru(), LruList::kActive);  // the wrap must not carry out
}

TEST_F(PageFlagsTest, FramesDoNotAliasEachOther) {
  PageFrame a(&table_, 4);
  PageFrame b(&table_, 5);
  a.set_active(true);
  a.set_tpm_aborts(7);
  EXPECT_FALSE(b.active());
  EXPECT_EQ(b.tpm_aborts(), 0);
  b.set_lru(LruList::kInactive);
  EXPECT_EQ(a.lru(), LruList::kNone);
}

TEST_F(PageFlagsTest, ResetStatePreservesIdentityOnly) {
  PageFrame f(&table_, 6);
  f.set_tier(Tier::kSlow);
  f.set_in_use(true);
  f.set_referenced(true);
  f.set_active(true);
  f.set_migrating(true);
  f.set_lru(LruList::kActive);
  f.set_tpm_aborts(9);
  f.set_vpn(1234);
  f.set_extra_mappers(2);
  f.set_lru_prev(1);
  f.set_lru_next(2);

  f.ResetState();

  EXPECT_EQ(f.tier(), Tier::kSlow);  // identity survives
  EXPECT_TRUE(f.in_use());
  EXPECT_FALSE(f.referenced());
  EXPECT_FALSE(f.active());
  EXPECT_FALSE(f.migrating());
  EXPECT_EQ(f.lru(), LruList::kNone);
  EXPECT_EQ(f.tpm_aborts(), 0);
  EXPECT_EQ(f.owner(), nullptr);
  EXPECT_EQ(f.vpn(), kInvalidVpn);
  EXPECT_EQ(f.extra_mappers(), 0u);
  EXPECT_EQ(f.lru_prev(), kInvalidPfn);
  EXPECT_EQ(f.lru_next(), kInvalidPfn);
}

TEST_F(PageFlagsTest, FlagsDataViewMatchesAccessors) {
  PageFrame f(&table_, 7);
  f.set_in_use(true);
  f.set_active(true);
  const uint32_t w = table_.flags_data()[7];
  EXPECT_NE(w & frame_flags::kInUse, 0u);
  EXPECT_NE(w & frame_flags::kActive, 0u);
  EXPECT_EQ(w & frame_flags::kReferenced, 0u);
}

// The queued sidecar bit of `pfn`, read the way the scanner reads it.
bool Queued(const FrameTable& t, Pfn pfn) { return (t.QueuedWord(pfn >> 6) >> (pfn & 63)) & 1; }

TEST_F(PageFlagsTest, QueuedSidecarFollowsEachQueueFlag) {
  PageFrame f(&table_, 1);
  for (void (PageFrame::*set)(bool) :
       {&PageFrame::set_in_pcq, &PageFrame::set_in_pending, &PageFrame::set_migrating}) {
    (f.*set)(true);
    EXPECT_TRUE(Queued(table_, 1));
    EXPECT_FALSE(Queued(table_, 2));  // one bit per frame
    (f.*set)(false);
    EXPECT_FALSE(Queued(table_, 1));
  }
}

TEST_F(PageFlagsTest, QueuedSidecarStaysSetWhileAnyQueueFlagIs) {
  // The bit is the OR of the three flags: with two set, clearing one must
  // leave it set (a page both pending and migrating is still queued).
  using Setter = void (PageFrame::*)(bool);
  const Setter setters[] = {&PageFrame::set_in_pcq, &PageFrame::set_in_pending,
                            &PageFrame::set_migrating};
  PageFrame f(&table_, 3);
  for (Setter a : setters) {
    for (Setter b : setters) {
      if (a == b) {
        continue;
      }
      (f.*a)(true);
      (f.*b)(true);
      (f.*a)(false);
      EXPECT_TRUE(Queued(table_, 3));
      (f.*b)(false);
      EXPECT_FALSE(Queued(table_, 3));
    }
  }
}

TEST_F(PageFlagsTest, OtherSettersLeaveQueuedSidecarAlone) {
  PageFrame queued(&table_, 4);
  PageFrame idle(&table_, 5);
  queued.set_in_pcq(true);
  for (PageFrame f : {queued, idle}) {
    const bool before = Queued(table_, f.pfn());
    for (bool v : {true, false}) {
      f.set_in_use(v);
      f.set_referenced(v);
      f.set_active(v);
      f.set_promoted(v);
      f.set_shadowed(v);
      f.set_is_shadow(v);
      f.set_pcq_primed(v);
      f.set_tier(v ? Tier::kSlow : Tier::kFast);
      f.set_lru(v ? LruList::kActive : LruList::kNone);
      f.set_tpm_aborts(v ? 0xFF : 0);
      f.bump_tpm_aborts();
      f.bump_generation();
      f.set_owner(nullptr);
      f.set_vpn(v ? 99 : kInvalidVpn);
      f.set_extra_mappers(v ? 1 : 0);
      f.set_lru_prev(v ? 1 : kInvalidPfn);
      f.set_lru_next(v ? 2 : kInvalidPfn);
      EXPECT_EQ(Queued(table_, f.pfn()), before) << "pfn " << f.pfn();
    }
  }
}

TEST_F(PageFlagsTest, ResetStateAndResizeClearQueuedSidecar) {
  PageFrame f(&table_, 6);
  f.set_in_use(true);
  f.set_in_pcq(true);
  f.set_in_pending(true);
  f.set_migrating(true);
  f.ResetState();
  EXPECT_FALSE(Queued(table_, 6));

  // Resize zeroes every word, including a second one.
  table_.Resize(130);
  PageFrame g(&table_, 129);
  g.set_migrating(true);
  ASSERT_TRUE(Queued(table_, 129));
  table_.Resize(130);
  EXPECT_EQ(table_.QueuedWord(0), 0u);
  EXPECT_EQ(table_.QueuedWord(2), 0u);
}

// Zero means "none": a slot nothing has written reads as the sentinels.
TEST_F(PageFlagsTest, FreshlyResizedTableReadsAsSentinels) {
  table_.Resize(200);
  for (Pfn pfn = 0; pfn < 200; pfn++) {
    const PageFrame f(&table_, pfn);
    EXPECT_EQ(f.vpn(), kInvalidVpn) << "pfn " << pfn;
    EXPECT_EQ(f.lru_prev(), kInvalidPfn) << "pfn " << pfn;
    EXPECT_EQ(f.lru_next(), kInvalidPfn) << "pfn " << pfn;
    EXPECT_EQ(f.owner(), nullptr) << "pfn " << pfn;
    EXPECT_EQ(f.generation(), 0u) << "pfn " << pfn;
    EXPECT_EQ(f.extra_mappers(), 0u) << "pfn " << pfn;
    EXPECT_EQ(table_.flags_data()[pfn], 0u) << "pfn " << pfn;
  }
}

TEST_F(PageFlagsTest, SentinelsAndExtremesRoundTrip) {
  PageFrame f(&table_, 2);
  for (const uint64_t v : {uint64_t{0}, uint64_t{1}, kInvalidVpn - 1, kInvalidVpn}) {
    f.set_vpn(v);
    f.set_lru_prev(v);
    f.set_lru_next(v);
    EXPECT_EQ(f.vpn(), v);
    EXPECT_EQ(f.lru_prev(), v);
    EXPECT_EQ(f.lru_next(), v);
  }
}

TEST_F(PageFlagsTest, ResetStateRestoresSentinelsFromZeroValues) {
  // PFN 0 and VPN 0 are real values, stored as 1; ResetState must bring
  // back the all-zero "none" encoding, not a stored zero.
  PageFrame f(&table_, 0);
  f.set_vpn(0);
  f.set_lru_prev(0);
  f.set_lru_next(0);
  f.ResetState();
  EXPECT_EQ(f.vpn(), kInvalidVpn);
  EXPECT_EQ(f.lru_prev(), kInvalidPfn);
  EXPECT_EQ(f.lru_next(), kInvalidPfn);
  EXPECT_EQ(f.owner(), nullptr);
}

TEST_F(PageFlagsTest, BytesPerFrameMatchesDeclaredArrays) {
  // 4 (flags) + 8 (owner) + 8 (vpn) + 4 (generation) + 4 (extra_mappers)
  // + 16 (lru links) = 44: the number bench_throughput reports as
  // metadata_bytes_per_page.
  EXPECT_EQ(FrameTable::BytesPerFrame(), 44u);
}

}  // namespace
}  // namespace nomad
