// Profiler tests: self/total attribution under nesting, collapsed-path
// bookkeeping, recursion de-dup, unattributed cycles, and the runtime off
// switch (a disabled profiler books nothing and keeps no stack).
#include "src/obs/prof.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/obs/exporters.h"

namespace nomad {
namespace {

TEST(ProfilerTest, ChargeAttributesSelfAndTotal) {
  Profiler p;
  p.Enter(ProfNode::kTpm);
  p.Charge(100);  // tpm self
  p.Enter(ProfNode::kTpmCopy);
  p.Charge(40);  // tpm_copy self, tpm total
  p.Exit();
  p.Charge(10);  // tpm self again
  p.Exit();
  EXPECT_EQ(p.self_cycles(ProfNode::kTpm), 110u);
  EXPECT_EQ(p.total_cycles(ProfNode::kTpm), 150u);
  EXPECT_EQ(p.self_cycles(ProfNode::kTpmCopy), 40u);
  EXPECT_EQ(p.total_cycles(ProfNode::kTpmCopy), 40u);
  EXPECT_EQ(p.unattributed(), 0u);
  EXPECT_EQ(p.depth(), 0);
}

TEST(ProfilerTest, EmptyStackGoesToUnattributed) {
  Profiler p;
  p.Charge(77);
  EXPECT_EQ(p.unattributed(), 77u);
  EXPECT_TRUE(p.paths().empty());
}

TEST(ProfilerTest, ZeroChargeIsDropped) {
  Profiler p;
  p.Enter(ProfNode::kGovernor);
  p.Charge(0);
  p.Exit();
  EXPECT_EQ(p.total_cycles(ProfNode::kGovernor), 0u);
  EXPECT_TRUE(p.paths().empty());
}

TEST(ProfilerTest, PathsRecordDistinctStacks) {
  Profiler p;
  p.ChargeLeaf(ProfNode::kLruScan, 5);  // root-level scan
  p.Enter(ProfNode::kKswapdReclaim);
  p.ChargeLeaf(ProfNode::kLruScan, 7);  // nested scan: a different path
  p.Exit();
  EXPECT_EQ(p.paths().size(), 2u);
  EXPECT_EQ(p.self_cycles(ProfNode::kLruScan), 12u);
  EXPECT_EQ(p.total_cycles(ProfNode::kKswapdReclaim), 7u);
  uint64_t sum = 0;
  for (const auto& [key, cycles] : p.paths()) {
    const std::vector<ProfNode> path = Profiler::DecodePath(key);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.back(), ProfNode::kLruScan);
    sum += cycles;
  }
  EXPECT_EQ(sum, 12u);
}

TEST(ProfilerTest, RecursiveNodeCountsTotalOnce) {
  Profiler p;
  p.Enter(ProfNode::kSyncMigrate);
  p.Enter(ProfNode::kSyncMigrate);  // recursion
  p.Charge(50);
  p.Exit();
  p.Exit();
  // Total must not double-count the node for the two stack levels.
  EXPECT_EQ(p.total_cycles(ProfNode::kSyncMigrate), 50u);
  EXPECT_EQ(p.self_cycles(ProfNode::kSyncMigrate), 50u);
}

TEST(ProfilerTest, DecodePathRoundTrips) {
  Profiler p;
  p.Enter(ProfNode::kHintFault);
  p.Enter(ProfNode::kSyncMigrate);
  p.Charge(9);
  p.Exit();
  p.Exit();
  ASSERT_EQ(p.paths().size(), 1u);
  const std::vector<ProfNode> path = Profiler::DecodePath(p.paths().begin()->first);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], ProfNode::kHintFault);  // outermost first
  EXPECT_EQ(path[1], ProfNode::kSyncMigrate);
}

TEST(ProfilerTest, ProfScopeIsBalanced) {
  Profiler p;
  {
    ProfScope outer(p, ProfNode::kKswapdReclaim);
    {
      ProfScope inner(p, ProfNode::kShadowReclaim);
      p.Charge(3);
    }
    p.Charge(4);
  }
  EXPECT_EQ(p.depth(), 0);
  EXPECT_EQ(p.total_cycles(ProfNode::kKswapdReclaim), 7u);
  EXPECT_EQ(p.self_cycles(ProfNode::kShadowReclaim), 3u);
}

TEST(ProfilerTest, DisabledProfilerBooksNothing) {
  Profiler p;
  p.set_enabled(false);
  {
    ProfScope span(p, ProfNode::kTpm);
    p.ChargeLeaf(ProfNode::kTpmCopy, 40);
    p.Charge(100);
  }
  p.Charge(5);
  EXPECT_EQ(p.depth(), 0);
  EXPECT_EQ(p.total_cycles(ProfNode::kTpm), 0u);
  EXPECT_EQ(p.unattributed(), 0u);
  EXPECT_TRUE(p.paths().empty());
}

TEST(ProfilerDeathTest, SwitchInsideSpanAborts) {
  Profiler p;
  p.Enter(ProfNode::kTpm);
  EXPECT_DEATH(p.set_enabled(false), "prof switched inside a span");
}

TEST(ProfilerTest, ResetClearsEverything) {
  Profiler p;
  p.ChargeLeaf(ProfNode::kPebsDrain, 11);
  p.Charge(5);  // unattributed
  p.Reset();
  EXPECT_EQ(p.total_cycles(ProfNode::kPebsDrain), 0u);
  EXPECT_EQ(p.unattributed(), 0u);
  EXPECT_TRUE(p.paths().empty());
}

TEST(ProfilerExportTest, CollapsedStacksFormat) {
  Profiler p;
  p.Enter(ProfNode::kTpm);
  p.ChargeLeaf(ProfNode::kTpmCopy, 40);
  p.Charge(100);
  p.Exit();
  p.Charge(6);  // unattributed
  std::ostringstream os;
  WriteCollapsedStacks(p, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("tpm 100\n"), std::string::npos) << text;
  EXPECT_NE(text.find("tpm;tpm_copy 40\n"), std::string::npos) << text;
  EXPECT_NE(text.find("(unattributed) 6\n"), std::string::npos) << text;
}

TEST(ProfilerExportTest, ProfileJsonSkipsIdleNodes) {
  Profiler p;
  p.ChargeLeaf(ProfNode::kGovernor, 21);
  std::ostringstream os;
  JsonWriter jw(os);
  AppendProfileJson(jw, p);
  const std::string doc = os.str();
  EXPECT_NE(doc.find("\"governor\":{\"self\":21,\"total\":21}"), std::string::npos)
      << doc;
  // Nodes that never charged stay out of the document.
  EXPECT_EQ(doc.find("pebs_drain"), std::string::npos);
}

TEST(ProfNodeRegistryTest, NamesAreNonEmptyAndDistinct) {
  for (uint8_t i = 0; i < kNumProfNodes; i++) {
    const char* name = ProfNodeName(static_cast<ProfNode>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_NE(std::string(name), "");
    for (uint8_t j = 0; j < i; j++) {
      EXPECT_NE(std::string(name), ProfNodeName(static_cast<ProfNode>(j)));
    }
  }
}

}  // namespace
}  // namespace nomad
