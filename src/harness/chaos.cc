#include "src/harness/chaos.h"

#include <memory>
#include <sstream>

#include "src/harness/sharded_sim.h"
#include "src/obs/event_registry.h"
#include "src/sim/rng.h"

namespace nomad {

namespace {

double UnitDouble(Rng& rng) {
  return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
}

// Seed-derived schedules concentrated on the cell's focus kind. Each shard
// derives from its own seed (the same +7919*s spread the partitioner uses
// for workload streams), so shards fault at different times — the
// interesting case for the barrier and the watchdog.
std::unique_ptr<FaultInjector> MakeCellInjector(const ChaosCellConfig& cfg, uint32_t shard) {
  const uint64_t shard_seed = cfg.seed + 7919 * shard;
  auto fi = std::make_unique<FaultInjector>(shard_seed);
  Rng rng(shard_seed ^ 0x50AC50ACull);
  switch (cfg.focus) {
    case ChaosFocus::kShardStall: {
      // A deterministic window of consecutive stalled epochs longer than
      // the watchdog threshold — every cell provokes at least one stall
      // verdict per shard — plus random stalls and delivery delays after.
      FaultSchedule stall;
      stall.trigger_start = 2 + rng.Below(6);
      stall.trigger_count = 5 + rng.Below(4);
      stall.probability = 0.02 + UnitDouble(rng) * 0.08;
      fi->set_schedule(FaultKind::kShardStall, stall);
      FaultSchedule delay;
      delay.probability = 0.05 + UnitDouble(rng) * 0.15;
      fi->set_schedule(FaultKind::kShardDelay, delay);
      break;
    }
    case ChaosFocus::kAllocFailWave: {
      // Each firing arms a 64-opportunity burst of fast-tier allocation
      // failures (see RunLockstep), so pressure arrives in waves rather
      // than as independent misses.
      FaultSchedule wave;
      wave.trigger_start = 1 + rng.Below(4);
      wave.trigger_count = 1;
      wave.probability = 0.05 + UnitDouble(rng) * 0.15;
      fi->set_schedule(FaultKind::kAllocFailWave, wave);
      break;
    }
    case ChaosFocus::kPcqOverflow: {
      FaultSchedule ovf;
      ovf.probability = 0.10 + UnitDouble(rng) * 0.25;
      fi->set_schedule(FaultKind::kPcqOverflow, ovf);
      break;
    }
  }
  return fi;
}

// Counters that record a *graceful degradation* decision: the system chose
// a slower-but-safe path (or flagged one) instead of wedging. The soak
// matrix asserts these are nonzero — a chaos cell whose faults produced no
// observable degradation is not exercising the resilience paths.
uint64_t DegradationCount(const CounterSet& c) {
  return c.Get(cnt::kFaultInjShardStall) + c.Get(cnt::kFaultInjShardDelay) +
         c.Get(cnt::kFaultInjAllocFailWave) + c.Get(cnt::kWatchdogStall) +
         c.Get(cnt::kNomadPcqOverflow) + c.Get(cnt::kNomadDegradedSyncMigration) +
         c.Get(cnt::kNomadSyncFallback) + c.Get(cnt::kNomadPromoteWaitNomem) +
         c.Get(cnt::kNomadAllocFailReclaimMiss) + c.Get(cnt::kMigrateSyncFailNomem);
}

}  // namespace

const char* ChaosFocusName(ChaosFocus f) {
  switch (f) {
    case ChaosFocus::kShardStall:
      return "shard_stall";
    case ChaosFocus::kAllocFailWave:
      return "alloc_fail_wave";
    case ChaosFocus::kPcqOverflow:
      return "pcq_overflow";
  }
  return "?";
}

bool ChaosFocusFromName(const std::string& name, ChaosFocus* out) {
  for (ChaosFocus f : kChaosFocuses) {
    if (name == ChaosFocusName(f)) {
      *out = f;
      return true;
    }
  }
  return false;
}

ChaosCellResult RunChaosCell(const ChaosCellConfig& cfg) {
  // An undersized machine: per shard the fast tier holds half the working
  // set, so promotion, demotion, shadow reclaim and the allocation-failure
  // path all run continuously while the faults land.
  ShardedRunConfig scfg;
  scfg.base.platform = PlatformId::kA;
  scfg.base.scale_denom = 64;
  scfg.base.policy = PolicyKind::kNomad;
  scfg.base.rss_gb = 2.0;
  scfg.base.wss_gb = 1.0;
  scfg.base.wss_fast_gb = 0.25;
  scfg.base.kernel_gb = 0.25;
  scfg.base.fast_gb = 0.5;
  scfg.base.slow_gb = 2.0;
  scfg.base.placement = Placement::kRandom;
  scfg.base.write_fraction = 0.3;
  scfg.base.total_ops = cfg.total_ops;
  scfg.base.threads = 1;
  scfg.base.seed = cfg.seed;
  scfg.shards = cfg.shards;
  scfg.exec_threads = cfg.exec_threads;
  scfg.epoch_cycles = 200000;
  scfg.audit = true;
  scfg.watchdog_stall_epochs = 4;
  // The [&cfg] capture is safe: RunShardedMicro calls the factory once per
  // shard, concurrently, from the worker thread that builds that shard. It
  // only reads cfg, which outlives RunShardedMicro, and MakeCellInjector is
  // a pure function of (cfg, shard). nomad_analyze NA002 flags the pattern;
  // baselined with justification in tools/nomad_analyze/baseline.txt.
  scfg.fault_factory = [&cfg](uint32_t shard) { return MakeCellInjector(cfg, shard); };

  const ShardedRunResult run = RunShardedMicro(scfg);

  ChaosCellResult r;
  r.invariant_violations = run.invariant_violations;
  r.faults_injected = run.faults_injected;
  r.watchdog_stalls = run.watchdog_stalls;
  r.epochs = run.epochs;
  r.ok = run.invariant_violations == 0;

  // Canonical recovery record. Everything here is required to be a pure
  // function of (seed, focus): virtual times, sorted counters, queue
  // watermarks, TPM stats and the injectors' hit/opportunity tallies.
  std::ostringstream os;
  os << "chaos_cell seed=" << cfg.seed << " focus=" << ChaosFocusName(cfg.focus)
     << " shards=" << cfg.shards << " ops=" << cfg.total_ops << "\n";
  os << "epochs=" << run.epochs << " messages=" << run.messages
     << " total_ops=" << run.total_ops << " max_vt=" << run.max_virtual_time
     << " watchdog_stalls=" << run.watchdog_stalls << "\n";
  for (size_t s = 0; s < run.per_shard.size(); s++) {
    const MicroRunResult& shard = run.per_shard[s];
    r.degradations += DegradationCount(shard.counters);
    os << "shard " << s << "\n";
    os << "injector " << shard.injector << "\n";
    os << "queues pcq_hwm=" << shard.pcq_hwm << " pending_hwm=" << shard.pending_hwm
       << " overflows=" << shard.pcq_overflows << "\n";
    os << "tpm commits=" << shard.tpm_commits << " aborts=" << shard.tpm_aborts
       << " shadows=" << shard.shadow_pages << "\n";
    os << "frames fast=" << shard.fast_used << " slow=" << shard.slow_used << "\n";
    os << shard.counters.ToString();
  }
  r.recovery = os.str();
  return r;
}

bool ChaosCellDeterministic(ChaosCellConfig cfg, std::string* diff) {
  cfg.exec_threads = 1;
  const ChaosCellResult base = RunChaosCell(cfg);
  cfg.exec_threads = 4;
  const ChaosCellResult wide = RunChaosCell(cfg);
  if (base.recovery == wide.recovery) {
    return true;
  }
  if (diff != nullptr) {
    *diff = "--- threads=1 ---\n" + base.recovery + "--- threads=4 ---\n" + wide.recovery;
  }
  return false;
}

}  // namespace nomad
