// Tests for the experiment harness: policy factory, Sim wiring, placement
// setups, the demote-all tool, and phase analysis.
#include "src/harness/experiment.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/harness/run.h"
#include "src/harness/table.h"
#include "src/workload/micro.h"

namespace nomad {
namespace {

PlatformSpec SmallPlatform(PlatformId id = PlatformId::kA) {
  Scale scale{1024};  // 16 GB -> 4096 pages
  return MakePlatform(id, scale);
}

TEST(PolicyFactoryTest, AllKindsConstructWithMatchingNames) {
  for (PolicyKind kind :
       {PolicyKind::kNoMigration, PolicyKind::kTpp, PolicyKind::kMemtisDefault,
        PolicyKind::kMemtisQuickCool, PolicyKind::kNomad}) {
    auto policy = MakePolicy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), PolicyKindName(kind));
  }
}

TEST(PolicyFactoryTest, SupportMatrix) {
  const PlatformSpec a = SmallPlatform(PlatformId::kA);
  const PlatformSpec d = SmallPlatform(PlatformId::kD);
  EXPECT_TRUE(PolicySupported(PolicyKind::kMemtisDefault, a));
  EXPECT_FALSE(PolicySupported(PolicyKind::kMemtisDefault, d));
  EXPECT_FALSE(PolicySupported(PolicyKind::kMemtisQuickCool, d));
  EXPECT_TRUE(PolicySupported(PolicyKind::kNomad, d));
  EXPECT_TRUE(PolicySupported(PolicyKind::kTpp, d));
}

TEST(SimTest, NomadAccessorOnlyForNomad) {
  Sim nomad_sim(SmallPlatform(), PolicyKind::kNomad, 1000);
  EXPECT_NE(nomad_sim.nomad(), nullptr);
  Sim tpp_sim(SmallPlatform(), PolicyKind::kTpp, 1000);
  EXPECT_EQ(tpp_sim.nomad(), nullptr);
}

TEST(SimTest, RunCompletesWorkloads) {
  Sim sim(SmallPlatform(), PolicyKind::kNoMigration, 1000);
  ScrambledZipfian zipf(100, 0.99, 1);
  MicroWorkload::Config cfg;
  cfg.base.total_ops = 1000;
  cfg.wss_start = 0;
  cfg.wss_pages = 100;
  MicroWorkload w(&sim.ms(), &sim.as(), &zipf, cfg);
  sim.AddWorkload(&w);
  sim.Run();
  EXPECT_TRUE(w.done());
  EXPECT_EQ(w.ops_done(), 1000u);
}

TEST(SimTest, RunUntilOpsStopsEarly) {
  Sim sim(SmallPlatform(), PolicyKind::kNoMigration, 1000);
  ScrambledZipfian zipf(100, 0.99, 1);
  MicroWorkload::Config cfg;
  cfg.base.total_ops = 10000;
  cfg.wss_start = 0;
  cfg.wss_pages = 100;
  MicroWorkload w(&sim.ms(), &sim.as(), &zipf, cfg);
  sim.AddWorkload(&w);
  sim.RunUntilOps(500);
  EXPECT_GE(w.ops_done(), 500u);
  EXPECT_LT(w.ops_done(), 1000u);
}

TEST(MapRangeTest, MapsOnRequestedTier) {
  Sim sim(SmallPlatform(), PolicyKind::kNoMigration, 10000);
  const uint64_t got = MapRange(sim.ms(), sim.as(), 0, 100, Tier::kSlow);
  EXPECT_EQ(got, 100u);
  for (Vpn v = 0; v < 100; v++) {
    EXPECT_EQ(sim.ms().pool().TierOf(sim.ms().PteOf(sim.as(), v)->pfn), Tier::kSlow);
  }
}

TEST(MovePageSilentTest, MovesWithoutCounters) {
  Sim sim(SmallPlatform(), PolicyKind::kNoMigration, 100);
  sim.ms().MapNewPage(sim.as(), 0, Tier::kFast);
  EXPECT_TRUE(MovePageSilent(sim.ms(), sim.as(), 0, Tier::kSlow));
  EXPECT_EQ(sim.ms().pool().TierOf(sim.ms().PteOf(sim.as(), 0)->pfn), Tier::kSlow);
  EXPECT_EQ(sim.ms().counters().Get("migrate.sync_demote"), 0u);
  // Idempotent: already there.
  EXPECT_FALSE(MovePageSilent(sim.ms(), sim.as(), 0, Tier::kSlow));
}

TEST(DemoteAllTest, EvictsEverythingFromFast) {
  Sim sim(SmallPlatform(), PolicyKind::kNoMigration, 10000);
  MapRange(sim.ms(), sim.as(), 0, 200, Tier::kFast);
  const uint64_t moved = DemoteAll(sim.ms(), sim.as());
  EXPECT_EQ(moved, 200u);
  EXPECT_EQ(sim.ms().pool().UsedFrames(Tier::kFast), 0u);
}

TEST(MicroLayoutTest, FrequencyOptPlacesHottestInFast) {
  Sim sim(SmallPlatform(), PolicyKind::kNoMigration, 10000);
  MicroLayout layout;
  layout.rss_pages = 3000;
  layout.wss_pages = 1000;
  layout.wss_fast_pages = 300;
  layout.placement = Placement::kFrequencyOpt;
  ScrambledZipfian zipf(1000, 0.99, 42);
  const Vpn wss_start = SetupMicroLayout(sim, layout, zipf);
  EXPECT_EQ(wss_start, 2000u);
  // The 300 hottest pages are on the fast tier...
  for (uint64_t r = 0; r < 300; r++) {
    const Vpn vpn = wss_start + zipf.ItemOfRank(r);
    EXPECT_EQ(sim.ms().pool().TierOf(sim.ms().PteOf(sim.as(), vpn)->pfn), Tier::kFast)
        << "rank " << r;
  }
  // ...and the coldest are not.
  for (uint64_t r = 700; r < 1000; r++) {
    const Vpn vpn = wss_start + zipf.ItemOfRank(r);
    EXPECT_EQ(sim.ms().pool().TierOf(sim.ms().PteOf(sim.as(), vpn)->pfn), Tier::kSlow)
        << "rank " << r;
  }
}

TEST(MicroLayoutTest, RandomPlacementSplitsBySize) {
  Sim sim(SmallPlatform(), PolicyKind::kNoMigration, 10000);
  MicroLayout layout;
  layout.rss_pages = 3000;
  layout.wss_pages = 1000;
  layout.wss_fast_pages = 300;
  layout.placement = Placement::kRandom;
  ScrambledZipfian zipf(1000, 0.99, 42);
  const Vpn wss_start = SetupMicroLayout(sim, layout, zipf);
  uint64_t fast = 0;
  for (Vpn v = wss_start; v < wss_start + 1000; v++) {
    fast += sim.ms().pool().TierOf(sim.ms().PteOf(sim.as(), v)->pfn) == Tier::kFast;
  }
  EXPECT_EQ(fast, 300u);
  // With random placement, the hot set is NOT concentrated on fast: of the
  // 300 hottest ranks, roughly 30% should be fast.
  uint64_t hot_on_fast = 0;
  for (uint64_t r = 0; r < 300; r++) {
    const Vpn vpn = wss_start + zipf.ItemOfRank(r);
    hot_on_fast +=
        sim.ms().pool().TierOf(sim.ms().PteOf(sim.as(), vpn)->pfn) == Tier::kFast;
  }
  EXPECT_GT(hot_on_fast, 40u);
  EXPECT_LT(hot_on_fast, 160u);
}

TEST(MicroLayoutTest, ColdRssFillsFastFirst) {
  Sim sim(SmallPlatform(), PolicyKind::kNoMigration, 10000);
  MicroLayout layout;
  layout.rss_pages = 3000;
  layout.wss_pages = 1000;
  layout.wss_fast_pages = 0;
  layout.kernel_pages = 100;
  ScrambledZipfian zipf(1000, 0.99, 42);
  SetupMicroLayout(sim, layout, zipf);
  // Cold region (2000 pages) + kernel (100) on fast (4096 total).
  EXPECT_EQ(sim.ms().pool().UsedFrames(Tier::kFast), 2100u);
  EXPECT_EQ(sim.ms().pool().UsedFrames(Tier::kSlow), 1000u);
}

TEST(AnalyzeTest, ComputesPhaseBandwidthAndOps) {
  Sim sim(SmallPlatform(), PolicyKind::kNoMigration, 1000);
  ScrambledZipfian zipf(50, 0.99, 1);
  MicroWorkload::Config cfg;
  cfg.base.total_ops = 20000;
  cfg.base.bandwidth_window = 100000;
  cfg.wss_start = 0;
  cfg.wss_pages = 50;
  MicroWorkload w(&sim.ms(), &sim.as(), &zipf, cfg);
  sim.AddWorkload(&w);
  sim.Run();
  const PhaseReport r = Analyze(sim);
  EXPECT_EQ(r.total_ops, 20000u);
  EXPECT_GT(r.overall_gbps, 0.0);
  EXPECT_GT(r.transient_gbps, 0.0);
  EXPECT_GT(r.stable_gbps, 0.0);
  EXPECT_GT(r.mean_latency_cycles, 0.0);
  EXPECT_GE(r.p99_latency_cycles, r.mean_latency_cycles * 0.2);
  EXPECT_GT(r.ops_per_sec, 0.0);
  EXPECT_GT(r.total_cycles, 0u);
}

TEST(AnalyzeTest, EmptySimIsZeroes) {
  Sim sim(SmallPlatform(), PolicyKind::kNoMigration, 10);
  const PhaseReport r = Analyze(sim);
  EXPECT_EQ(r.total_ops, 0u);
  EXPECT_EQ(r.overall_gbps, 0.0);
}

size_t Occurrences(const std::string& s, const std::string& what) {
  size_t n = 0;
  for (size_t at = s.find(what); at != std::string::npos; at = s.find(what, at + 1)) {
    n++;
  }
  return n;
}

// A run whose trace ring wrapped warns exactly once, whether it is exported
// as metrics, as a trace or as both, and its trace file records the loss.
TEST(MetricsCollectorTest, TruncatedTraceWarnsOncePerRun) {
  Sim sim(SmallPlatform(), PolicyKind::kNoMigration, 16);
  TraceSink& trace = sim.ms().trace();
  const uint64_t emitted = trace.capacity() + 5;
  for (uint64_t i = 0; i < emitted; i++) {
    trace.Emit(TraceEvent::kHintFault, i, 0, 1);
  }
  const std::string metrics_path = ::testing::TempDir() + "truncated_metrics.json";
  const std::string trace_path = ::testing::TempDir() + "truncated_trace.json";
  const std::string warning = "dropped 5 of " + std::to_string(emitted) + " events";
  for (const auto& [metrics, traced] : {std::pair{true, false}, {false, true}, {true, true}}) {
    SCOPED_TRACE(std::string(metrics ? "metrics " : "") + (traced ? "trace" : ""));
    MetricsCollector collector("truncated", metrics ? metrics_path : "",
                               traced ? trace_path : "");
    ::testing::internal::CaptureStderr();
    collector.Capture("run", sim, Analyze(sim));
    EXPECT_EQ(Occurrences(::testing::internal::GetCapturedStderr(), warning), 1u);
  }
  std::ifstream in(trace_path);
  std::stringstream doc;
  doc << in.rdbuf();
  EXPECT_NE(doc.str().find("\"otherData\":{\"emitted\":" + std::to_string(emitted) +
                           ",\"dropped\":5}"),
            std::string::npos);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "2.50"});
  std::ostringstream out;
  t.Print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(FmtTest, Formats) {
  EXPECT_EQ(Fmt(1.234, 2), "1.23");
  EXPECT_EQ(Fmt(1.0, 0), "1");
  EXPECT_EQ(FmtCount(123), "123");
  EXPECT_EQ(FmtCount(15900), "15.9K");
  EXPECT_EQ(FmtCount(2500000), "2.5M");
}

}  // namespace
}  // namespace nomad
