// Regression test for fault injection on the batched access fast path.
//
// MemorySystem::AccessBatch resolves the common case (TLB hit, no PTE
// update needed) fully inline; everything else falls out to the scalar
// AccessResolved path. Both must consult the FaultInjector at exactly the
// same opportunity points — kLatencySpike once per LLC-miss device access
// — or the fault *schedule*, which is indexed by opportunity rather than
// by time, would silently depend on how the caller chunks its accesses.
// The core test executes one identical access stream chunked as K=1 and
// as K=8 submissions and requires both executions to agree on every
// observable: injector opportunity/injection tallies, per-access latency
// sums, and the full counter set, byte for byte.
#include <gtest/gtest.h>

#include <vector>

#include "src/fault/fault_injector.h"
#include "src/harness/experiment.h"
#include "src/sim/rng.h"
#include "src/workload/micro.h"
#include "src/workload/zipfian.h"

namespace nomad {
namespace {

constexpr uint64_t kRegionPages = 96;
constexpr uint64_t kAsPages = 160;
constexpr uint64_t kSeed = 1234;
constexpr uint64_t kOps = 4000;

PlatformSpec TestPlatform() {
  PlatformSpec p = MakePlatform(PlatformId::kA);
  p.tiers[0].capacity_bytes = 64 * kPageSize;
  p.tiers[1].capacity_bytes = 128 * kPageSize;
  p.llc_bytes = 32 * 1024;  // small: plenty of LLC misses (= opportunities)
  return p;
}

// The same pseudo-random access stream for every execution.
std::vector<MemorySystem::BatchAccess> MakeStream() {
  std::vector<MemorySystem::BatchAccess> ops;
  ops.reserve(kOps);
  Rng rng(kSeed);
  for (uint64_t i = 0; i < kOps; i++) {
    MemorySystem::BatchAccess a;
    a.vpn = rng.Below(kRegionPages);
    a.offset = rng.Below(kPageSize);
    a.is_write = rng.Chance(0.3);
    ops.push_back(a);
  }
  return ops;
}

struct ChunkedRun {
  uint64_t spike_opportunities = 0;
  uint64_t spike_injected = 0;
  Cycles total_latency = 0;
  std::string counters;
  std::string injector;
};

// Executes the stream in fixed-size chunks against a fresh MemorySystem.
// No actors run, so virtual time stays put and the two executions differ
// ONLY in how accesses are grouped into AccessBatch submissions.
ChunkedRun RunChunked(size_t chunk, bool arm) {
  Engine engine;
  MemorySystem ms(TestPlatform(), &engine);
  AddressSpace as(kAsPages);
  ms.RegisterCpu(0);

  auto fi = std::make_unique<FaultInjector>(kSeed);
  if (arm) {
    FaultSchedule spike;
    spike.probability = 0.02;
    spike.trigger_start = 50;  // plus a deterministic window
    spike.trigger_count = 20;
    spike.latency_cycles = 20000;
    fi->set_schedule(FaultKind::kLatencySpike, spike);
  }
  ms.set_fault_injector(std::move(fi));

  // Half the region on each tier: demand traffic hits both devices.
  MapRange(ms, as, 0, kRegionPages / 2, Tier::kFast);
  MapRange(ms, as, kRegionPages / 2, kRegionPages / 2, Tier::kSlow);

  const std::vector<MemorySystem::BatchAccess> ops = MakeStream();
  std::vector<Cycles> lat(chunk);
  ChunkedRun r;
  for (size_t i = 0; i < ops.size(); i += chunk) {
    const size_t n = std::min(chunk, ops.size() - i);
    r.total_latency += ms.AccessBatch(0, as, ops.data() + i, n, /*mlp=*/4, lat.data());
  }
  r.spike_opportunities = ms.faults()->opportunities(FaultKind::kLatencySpike);
  r.spike_injected = ms.faults()->injected(FaultKind::kLatencySpike);
  r.counters = ms.counters().ToString();
  r.injector = ms.faults()->Describe();
  return r;
}

TEST(BatchFaultTest, IdenticalFaultScheduleAcrossChunkSizes) {
  const ChunkedRun k1 = RunChunked(1, /*arm=*/true);
  const ChunkedRun k8 = RunChunked(8, /*arm=*/true);
  // Same opportunity stream -> same decisions -> same injections, same
  // added latency, same counters. Any divergence means the inline fast
  // path and the scalar resolver consult the injector at different points.
  EXPECT_GT(k1.spike_injected, 0u);
  EXPECT_EQ(k1.spike_opportunities, k8.spike_opportunities);
  EXPECT_EQ(k1.spike_injected, k8.spike_injected);
  EXPECT_EQ(k1.injector, k8.injector);
  EXPECT_EQ(k1.total_latency, k8.total_latency);
  EXPECT_EQ(k1.counters, k8.counters);
}

TEST(BatchFaultTest, MissesPresentOpportunitiesOnTheFastPath) {
  // K=8 resolves most accesses on the inline fast path. If that path
  // bypassed the injector, the opportunity count would collapse to the
  // handful of slow-path accesses instead of one per LLC miss.
  const ChunkedRun k8 = RunChunked(8, /*arm=*/true);
  EXPECT_GT(k8.spike_opportunities, kOps / 4) << "fast path skips fault consults";
}

TEST(BatchFaultTest, UnarmedInjectorKeepsChunkEquivalence) {
  // The consult itself must be behaviorally free when nothing is armed.
  const ChunkedRun k1 = RunChunked(1, /*arm=*/false);
  const ChunkedRun k8 = RunChunked(8, /*arm=*/false);
  EXPECT_EQ(k1.spike_injected, 0u);
  EXPECT_EQ(k8.spike_injected, 0u);
  EXPECT_EQ(k1.total_latency, k8.total_latency);
  EXPECT_EQ(k1.counters, k8.counters);
}

// End-to-end: a full Sim whose workload uses the default batch of 8 still
// reaches the injector from its hot loop.
TEST(BatchFaultTest, WorkloadFastPathReachesInjector) {
  Sim sim(TestPlatform(), PolicyKind::kNomad, kAsPages);
  auto fi = std::make_unique<FaultInjector>(kSeed);
  FaultSchedule spike;
  spike.probability = 0.01;
  spike.latency_cycles = 20000;
  fi->set_schedule(FaultKind::kLatencySpike, spike);
  sim.ms().set_fault_injector(std::move(fi));

  MapRange(sim.ms(), sim.as(), 0, kRegionPages, Tier::kSlow);
  MicroWorkload::Config cfg;
  cfg.base.total_ops = kOps;
  cfg.base.seed = kSeed;
  cfg.base.batch = 8;
  cfg.wss_start = 0;
  cfg.wss_pages = kRegionPages;
  cfg.write_fraction = 0.3;
  ScrambledZipfian zipf(kRegionPages, 0.99, kSeed);
  MicroWorkload actor(&sim.ms(), &sim.as(), &zipf, cfg);
  sim.AddWorkload(&actor);
  sim.Run(Cycles{1} << 36);

  EXPECT_GT(sim.ms().faults()->opportunities(FaultKind::kLatencySpike), kOps / 4);
  EXPECT_GT(sim.ms().faults()->injected(FaultKind::kLatencySpike), 0u);
  // Every injection site bumps the same counter, so the exporter-visible
  // tally matches the injector's own bookkeeping exactly.
  EXPECT_EQ(sim.ms().counters().Get(cnt::kFaultInjLatencySpike),
            sim.ms().faults()->injected(FaultKind::kLatencySpike));
}

}  // namespace
}  // namespace nomad
