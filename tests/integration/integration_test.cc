// Cross-module integration tests: full simulations under every policy,
// plus parameterized invariant sweeps (property-style) over policies,
// platforms and read/write mixes.
#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/workload/micro.h"

namespace nomad {
namespace {

// A small medium-pressure scenario: WSS slightly exceeds what fast memory
// can hold once the kernel reservation and cold RSS are in place.
struct Scenario {
  PolicyKind policy;
  PlatformId platform;
  double write_fraction;
};

std::string ScenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  std::string n = PolicyKindName(info.param.policy);
  for (char& c : n) {
    if (c == '-') {
      c = '_';
    }
  }
  n += std::string("_") + PlatformName(info.param.platform);
  n += info.param.write_fraction > 0 ? "_write" : "_read";
  return n;
}

class PolicySweep : public ::testing::TestWithParam<Scenario> {};

TEST_P(PolicySweep, RunsToCompletionWithInvariants) {
  const Scenario& sc = GetParam();
  const Scale scale{1024};  // 16 GB -> 4096 pages per tier
  const PlatformSpec platform = MakePlatform(sc.platform, scale);
  if (!PolicySupported(sc.policy, platform)) {
    GTEST_SKIP() << "policy unsupported on this platform";
  }
  Sim sim(platform, sc.policy, 20000);

  MicroLayout layout;
  layout.rss_pages = scale.Pages(27.0);
  layout.wss_pages = scale.Pages(13.5);
  layout.wss_fast_pages = scale.Pages(2.5);
  layout.kernel_pages = scale.Pages(3.5);
  ScrambledZipfian zipf(layout.wss_pages, 0.99, 42);
  const Vpn wss_start = SetupMicroLayout(sim, layout, zipf);

  MicroWorkload::Config cfg;
  cfg.base.total_ops = 150000;
  cfg.wss_start = wss_start;
  cfg.wss_pages = layout.wss_pages;
  cfg.write_fraction = sc.write_fraction;
  MicroWorkload app(&sim.ms(), &sim.as(), &zipf, cfg);
  sim.AddWorkload(&app);
  sim.Run();

  MemorySystem& ms = sim.ms();
  // 1. The workload finished.
  EXPECT_EQ(app.ops_done(), 150000u);
  // 2. No OOM ever (NOMAD must reclaim shadows in time).
  EXPECT_EQ(ms.counters().Get("oom"), 0u);
  EXPECT_EQ(ms.pool().oom_count(), 0u);
  // 3. Frame accounting is consistent: every mapped VPN has a frame that
  //    points back at it.
  uint64_t mapped = 0;
  for (Vpn v = 0; v < sim.as().num_pages(); v++) {
    const Pte* pte = ms.PteOf(sim.as(), v);
    if (pte == nullptr || !pte->present) {
      continue;
    }
    mapped++;
    const PageFrame f = ms.pool().frame(pte->pfn);
    EXPECT_TRUE(f.in_use());
    EXPECT_EQ(f.owner(), &sim.as());
    EXPECT_EQ(f.vpn(), v);
    EXPECT_FALSE(f.is_shadow());
  }
  EXPECT_EQ(mapped, layout.rss_pages);
  // 4. Used = mapped + kernel + shadows (+ in-flight TPM copies).
  const uint64_t used =
      ms.pool().UsedFrames(Tier::kFast) + ms.pool().UsedFrames(Tier::kSlow);
  uint64_t shadows = 0;
  if (sim.nomad() != nullptr) {
    shadows = sim.nomad()->shadows().count();
  }
  EXPECT_GE(used, mapped + layout.kernel_pages + shadows);
  EXPECT_LE(used, mapped + layout.kernel_pages + shadows + 2);
  // 5. Bandwidth was measured.
  const PhaseReport r = Analyze(sim);
  EXPECT_GT(r.overall_gbps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweep,
    ::testing::Values(
        Scenario{PolicyKind::kNoMigration, PlatformId::kA, 0.0},
        Scenario{PolicyKind::kTpp, PlatformId::kA, 0.0},
        Scenario{PolicyKind::kTpp, PlatformId::kA, 1.0},
        Scenario{PolicyKind::kMemtisDefault, PlatformId::kA, 0.0},
        Scenario{PolicyKind::kMemtisQuickCool, PlatformId::kA, 1.0},
        Scenario{PolicyKind::kNomad, PlatformId::kA, 0.0},
        Scenario{PolicyKind::kNomad, PlatformId::kA, 1.0},
        Scenario{PolicyKind::kNomad, PlatformId::kC, 0.0},
        Scenario{PolicyKind::kNomad, PlatformId::kD, 1.0},
        Scenario{PolicyKind::kMemtisDefault, PlatformId::kC, 1.0},
        Scenario{PolicyKind::kTpp, PlatformId::kD, 0.0}),
    ScenarioName);

// NOMAD-specific cross-module properties on a thrashing run.
class NomadIntegration : public ::testing::Test {};

TEST_F(NomadIntegration, ShadowConsistencyUnderThrashing) {
  const Scale scale{1024};
  const PlatformSpec platform = MakePlatform(PlatformId::kA, scale);
  Sim sim(platform, PolicyKind::kNomad, 20000);
  MicroLayout layout;
  layout.rss_pages = scale.Pages(27.0);
  layout.wss_pages = scale.Pages(13.5);
  layout.wss_fast_pages = scale.Pages(2.5);
  layout.kernel_pages = scale.Pages(3.5);
  ScrambledZipfian zipf(layout.wss_pages, 0.99, 7);
  const Vpn wss_start = SetupMicroLayout(sim, layout, zipf);
  MicroWorkload::Config cfg;
  cfg.base.total_ops = 200000;
  cfg.wss_start = wss_start;
  cfg.wss_pages = layout.wss_pages;
  cfg.write_fraction = 0.2;
  MicroWorkload app(&sim.ms(), &sim.as(), &zipf, cfg);
  sim.AddWorkload(&app);
  sim.Run();

  MemorySystem& ms = sim.ms();
  NomadPolicy& nomad = *sim.nomad();
  // Every shadowed master must have a live slow-tier shadow frame, and a
  // read-only or shadow_rw-tracked PTE.
  uint64_t checked = 0;
  for (Vpn v = 0; v < sim.as().num_pages(); v++) {
    const Pte* pte = ms.PteOf(sim.as(), v);
    if (pte == nullptr || !pte->present) {
      continue;
    }
    const PageFrame f = ms.pool().frame(pte->pfn);
    if (!f.shadowed()) {
      continue;
    }
    checked++;
    const Pfn shadow = nomad.shadows().ShadowOf(pte->pfn);
    ASSERT_NE(shadow, kInvalidPfn);
    const PageFrame s = ms.pool().frame(shadow);
    EXPECT_TRUE(s.in_use());
    EXPECT_TRUE(s.is_shadow());
    EXPECT_EQ(s.tier(), Tier::kSlow);
    EXPECT_EQ(s.lru(), LruList::kNone);  // shadows are off the LRU
    // A shadowed master must not be writable (writes must trap).
    EXPECT_FALSE(pte->writable);
  }
  EXPECT_EQ(checked, nomad.shadows().count());
  // Thrashing happened and the machinery was exercised.
  EXPECT_GT(nomad.tpm_stats().commits, 100u);
  EXPECT_GT(ms.counters().Get("nomad.shadow_fault") +
                ms.counters().Get("nomad.shadow_discard"),
            0u);
  // The observability layer saw the same mechanisms the counters did: every
  // committed transaction emitted a kTpmCommit trace record.
  EXPECT_GE(ms.trace().CountOf(TraceEvent::kTpmCommit), 1u);
  EXPECT_GT(ms.trace().total_emitted(), 0u);
}

TEST_F(NomadIntegration, WriteHeavyRunAbortsButProgresses) {
  const Scale scale{1024};
  const PlatformSpec platform = MakePlatform(PlatformId::kC, scale);
  Sim sim(platform, PolicyKind::kNomad, 20000);
  MicroLayout layout;
  layout.rss_pages = scale.Pages(20.0);
  layout.wss_pages = scale.Pages(10.0);
  layout.wss_fast_pages = scale.Pages(6.0);
  layout.kernel_pages = scale.Pages(3.5);
  ScrambledZipfian zipf(layout.wss_pages, 0.99, 9);
  const Vpn wss_start = SetupMicroLayout(sim, layout, zipf);
  MicroWorkload::Config cfg;
  cfg.base.total_ops = 200000;
  cfg.wss_start = wss_start;
  cfg.wss_pages = layout.wss_pages;
  cfg.write_fraction = 1.0;
  MicroWorkload app(&sim.ms(), &sim.as(), &zipf, cfg);
  sim.AddWorkload(&app);
  sim.Run();

  const auto& stats = sim.nomad()->tpm_stats();
  EXPECT_GT(stats.commits, 0u);
  // Table 4's phenomenon: write-heavy workloads abort transactions.
  EXPECT_GT(stats.aborts, 0u);
  // Aborted copies leave kTpmAbort records; the trace agrees with the
  // policy's own statistics (modulo ring wraparound).
  const TraceSink& trace = sim.ms().trace();
  EXPECT_GE(trace.CountOf(TraceEvent::kTpmAbort), 1u);
  if (trace.dropped() == 0) {
    EXPECT_EQ(trace.CountOf(TraceEvent::kTpmAbort), stats.aborts);
    EXPECT_EQ(trace.CountOf(TraceEvent::kTpmCommit), stats.commits);
  }
}

TEST_F(NomadIntegration, DeterministicAcrossRuns) {
  auto run_once = [] {
    const Scale scale{2048};
    const PlatformSpec platform = MakePlatform(PlatformId::kA, scale);
    Sim sim(platform, PolicyKind::kNomad, 10000);
    MicroLayout layout;
    layout.rss_pages = scale.Pages(20.0);
    layout.wss_pages = scale.Pages(10.0);
    layout.wss_fast_pages = scale.Pages(6.0);
    layout.kernel_pages = scale.Pages(3.5);
    ScrambledZipfian zipf(layout.wss_pages, 0.99, 3);
    const Vpn wss_start = SetupMicroLayout(sim, layout, zipf);
    MicroWorkload::Config cfg;
    cfg.base.total_ops = 50000;
    cfg.wss_start = wss_start;
    cfg.wss_pages = layout.wss_pages;
    cfg.write_fraction = 0.5;
    MicroWorkload app(&sim.ms(), &sim.as(), &zipf, cfg);
    sim.AddWorkload(&app);
    const Cycles end = sim.Run();
    return std::make_tuple(end, sim.ms().counters().ToString(),
                           sim.nomad()->tpm_stats().commits,
                           sim.nomad()->tpm_stats().aborts);
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace nomad
