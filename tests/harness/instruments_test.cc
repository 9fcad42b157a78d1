// Instruments are pay-per-use. A MemorySystem with its instruments off
// records nothing and allocates no trace ring, and turning them on or off
// never moves a simulated number: the runner turns them on only for a run
// with an active collector, so each runner cell below is made once with a
// collector and once without, and every simulated field must match.
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "src/harness/sharded_sim.h"
#include "src/workload/micro.h"
#include "tests/harness/run_compare.h"

namespace nomad {
namespace {

// A write-heavy NOMAD run on a small machine, so promotions commit and
// abort and every instrument has something to record when it is on.
void RunMigrating(bool instruments, const std::function<void(Sim&)>& check) {
  const Scale scale{1024};
  Sim sim(MakePlatform(PlatformId::kC, scale), PolicyKind::kNomad, 20000);
  sim.ms().set_instruments_enabled(instruments);
  MicroLayout layout;
  layout.rss_pages = scale.Pages(20.0);
  layout.wss_pages = scale.Pages(10.0);
  layout.wss_fast_pages = scale.Pages(6.0);
  layout.kernel_pages = scale.Pages(3.5);
  ScrambledZipfian zipf(layout.wss_pages, 0.99, 9);
  MicroWorkload::Config cfg;
  cfg.base.total_ops = 100000;
  cfg.wss_start = SetupMicroLayout(sim, layout, zipf);
  cfg.wss_pages = layout.wss_pages;
  cfg.write_fraction = 1.0;
  MicroWorkload app(&sim.ms(), &sim.as(), &zipf, cfg);
  sim.AddWorkload(&app);
  sim.Run();
  check(sim);
}

TEST(InstrumentsTest, OffRecordsAndAllocatesNothing) {
  std::string counters_on;
  RunMigrating(true, [&](Sim& sim) {
    MemorySystem& ms = sim.ms();
    EXPECT_TRUE(ms.instruments_enabled());
    EXPECT_GT(ms.trace().total_emitted(), 0u);
    EXPECT_EQ(ms.trace().allocated(), ms.trace().capacity());
    EXPECT_GT(ms.prof().total_cycles(ProfNode::kTpm), 0u);
    EXPECT_FALSE(ms.hists().All().empty());
    EXPECT_GT(ms.provenance().promotions(), 0u);
    EXPECT_GT(ms.provenance().aborts(), 0u);
    counters_on = ms.counters().ToString();
  });
  RunMigrating(false, [&](Sim& sim) {
    MemorySystem& ms = sim.ms();
    EXPECT_FALSE(ms.instruments_enabled());
    // The mechanisms ran: transactions committed and aborted...
    EXPECT_GT(sim.nomad()->tpm_stats().commits, 0u);
    EXPECT_GT(sim.nomad()->tpm_stats().aborts, 0u);
    EXPECT_EQ(ms.counters().ToString(), counters_on);
    // ...and no instrument saw them.
    EXPECT_EQ(ms.trace().total_emitted(), 0u);
    EXPECT_EQ(ms.trace().allocated(), 0u);
    for (size_t n = 0; n < kNumProfNodes; n++) {
      EXPECT_EQ(ms.prof().total_cycles(static_cast<ProfNode>(n)), 0u) << n;
    }
    EXPECT_EQ(ms.prof().unattributed(), 0u);
    EXPECT_TRUE(ms.prof().paths().empty());
    EXPECT_TRUE(ms.hists().All().empty());
    EXPECT_EQ(ms.provenance().tracked(), 0u);
    EXPECT_EQ(ms.provenance().promotions(), 0u);
    EXPECT_EQ(ms.provenance().aborts(), 0u);
    EXPECT_EQ(ms.provenance().dropped(), 0u);
    // No 16K-bucket reserve for a ledger that never records.
    EXPECT_LT(ms.provenance().pages().bucket_count(), size_t{1} << 14);
  });
}

TEST(InstrumentsTest, CollectorDoesNotChangeResults) {
  struct Cell {
    uint32_t shards;
    uint32_t threads;
  };
  for (PolicyKind policy : {PolicyKind::kNomad, PolicyKind::kTpp, PolicyKind::kMemtisDefault}) {
    for (const Cell cell : {Cell{1, 1}, Cell{4, 1}, Cell{4, 4}}) {
      const std::string name = std::string("instruments_test_") + PolicyKindName(policy) + "_s" +
                               std::to_string(cell.shards) + "t" + std::to_string(cell.threads);
      SCOPED_TRACE(name);
      ShardedRunConfig cfg;
      cfg.base.policy = policy;
      cfg.base.total_ops = 40000;
      cfg.shards = cell.shards;
      cfg.exec_threads = cell.threads;
      const ShardedRunResult off = RunShardedMicro(cfg);
      ShardedRunResult on;
      const std::string doc =
          MetricsDoc(name, [&](MetricsCollector* c) { on = RunShardedMicro(cfg, c); });
      ExpectIdentical(off, on);
      // The collector run really had its instruments on: every shard
      // exported an enabled, non-empty trace.
      EXPECT_NE(doc.find("\"enabled\":true"), std::string::npos) << doc;
      EXPECT_EQ(doc.find("\"enabled\":false"), std::string::npos) << doc;
      EXPECT_EQ(doc.find("\"emitted\":0,"), std::string::npos) << doc;
    }
  }
}

TEST(InstrumentsDeathTest, CaptureRejectsARunWithInstrumentsOff) {
  // A consumer that forgot to turn instruments on must fail loudly rather
  // than export empty trace, profile, histogram and provenance sections.
  Sim sim(MakePlatform(PlatformId::kA, Scale{1024}), PolicyKind::kTpp, 64);
  sim.ms().set_instruments_enabled(false);
  const std::string path = ::testing::TempDir() + "instruments_test_capture.json";
  EXPECT_DEATH(
      {
        MetricsCollector collector("instruments_test", path, "");
        collector.Capture("tpp-off", sim, PhaseReport{});
      },
      "captured run 'tpp-off' had its instruments off");
}

}  // namespace
}  // namespace nomad
