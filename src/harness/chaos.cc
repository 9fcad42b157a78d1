#include "src/harness/chaos.h"

#include <memory>
#include <sstream>

#include "src/fault/fault_injector.h"
#include "src/harness/sharded_sim.h"
#include "src/obs/event_registry.h"
#include "src/sim/rng.h"

namespace nomad {

namespace {

double UnitDouble(Rng& rng) {
  return static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
}

constexpr uint32_t kCellShards = 4;
// When a corrupting cell frees its frame: well inside the shortest run the
// campaign makes (16K ops, about 13 epochs of 200K cycles), so an auditor
// steps after it.
constexpr Cycles kCorruptAt = 1000000;

// Each shard derives from its own seed (the same +7919*s spread the
// partitioner uses for workload streams), so shards fault at different
// times — the interesting case for the watchdog.
uint64_t ShardSeed(const ChaosCellConfig& cfg, uint32_t shard) {
  return cfg.seed + 7919 * shard;
}

// Seed-derived schedules concentrated on the cell's focus kind.
std::unique_ptr<FaultInjector> MakeCellInjector(const ChaosCellConfig& cfg, uint32_t shard) {
  const uint64_t shard_seed = ShardSeed(cfg, shard);
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
      // failures (see RunEpochs), so pressure arrives in waves rather
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
    case ChaosFocus::kMigration: {
      // Each per-page kind is independently left quiet, armed for an exact
      // window of opportunities (the "Nth opportunity" replay mode), or
      // armed with a random probability, and a magnitude where it has one.
      struct KindRange {
        FaultKind kind;
        double max_probability;
        Cycles max_latency;
      };
      const KindRange kinds[] = {
          {FaultKind::kAllocFail, 0.30, 0},
          {FaultKind::kDirtyWrite, 0.40, 0},
          {FaultKind::kLatencySpike, 0.10, 50000},
          {FaultKind::kPcqOverflow, 0.20, 0},
          {FaultKind::kTlbDelay, 0.10, 20000},
      };
      for (const KindRange& k : kinds) {
        FaultSchedule sched;
        const double mode = UnitDouble(rng);
        if (mode < 0.2) {
          // Quiet for the whole run.
        } else if (mode < 0.35) {
          sched.trigger_start = rng.Below(200);
          sched.trigger_count = 1 + rng.Below(16);
        } else {
          sched.probability = UnitDouble(rng) * k.max_probability;
        }
        if (k.max_latency > 0) {
          sched.latency_cycles = 1000 + rng.Below(k.max_latency);
        }
        fi->set_schedule(k.kind, sched);
      }
      break;
    }
  }
  return fi;
}

// Frees a mapped frame behind its PTE's back at `when`, which a correct
// checker must flag as pte.frame_identity (at least).
class CorruptorActor : public Actor {
 public:
  CorruptorActor(Sim* sim, Cycles when) : sim_(sim), when_(when) {}

  Cycles Step(Engine& engine) override {
    if (engine.now() < when_) {
      engine.SleepUntil(when_);
      return 0;
    }
    MemorySystem& ms = sim_->ms();
    for (Vpn v = 0; v < sim_->as().num_pages(); v++) {
      const Pte* pte = ms.PteOf(sim_->as(), v);
      if (pte != nullptr && pte->present && !ms.pool().frame(pte->pfn).migrating()) {
        ms.lru(ms.pool().TierOf(pte->pfn)).Remove(pte->pfn);
        ms.pool().Free(pte->pfn);
        break;
      }
    }
    engine.SleepUntil(kNever);
    return 1;
  }

  std::string name() const override { return "corruptor"; }

 private:
  Sim* sim_;
  Cycles when_;
};

// What a cell adds to one shard: an auditor stepping at a period derived
// from the shard seed, and the corruptor when the cell corrupts.
struct ShardWatch {
  ShardWatch(Sim& sim, uint64_t shard_seed, bool corrupt)
      : checker(&sim.ms()), auditor(&checker, AuditConfig(shard_seed)), corruptor(&sim, kCorruptAt) {
    checker.AddSpace(&sim.as());
    checker.set_shadows(&sim.nomad()->shadows());
    checker.set_queues(&sim.nomad()->queues());
    sim.engine().AddActor(&auditor);
    if (corrupt) {
      sim.engine().AddActor(&corruptor);
    }
  }

  static InvariantCheckActor::Config AuditConfig(uint64_t shard_seed) {
    Rng rng(shard_seed ^ 0xAD17ull);
    InvariantCheckActor::Config c;
    c.period = 50000 + rng.Below(350000);
    c.die_on_violation = false;
    return c;
  }

  InvariantChecker checker;
  InvariantCheckActor auditor;
  CorruptorActor corruptor;
};

// Counters that record a *graceful degradation* decision: the system chose
// a slower-but-safe path (or flagged one) instead of wedging. The chaos
// campaign asserts these are nonzero — a chaos cell whose faults produced no
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
    case ChaosFocus::kMigration:
      return "migration";
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

ChaosCellResult RunChaosCell(const ChaosCellConfig& cfg, MetricsCollector* collector,
                             const std::string& label) {
  // An undersized machine: per shard the fast tier holds half the working
  // set, and the cold pages fill it before the working set is mapped, so
  // the working set starts on the slow tier next to a full fast tier.
  // Promotion, demotion, shadow reclaim and the allocation-failure path all
  // run continuously while the faults land.
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
  if (cfg.focus == ChaosFocus::kMigration) {
    // Read-mostly seeds commit nearly every transaction; write-heavy ones
    // abort many on dirty writes.
    Rng rng(cfg.seed ^ 0x3B17Eull);
    scfg.base.write_fraction = UnitDouble(rng) * 0.5;
  }
  scfg.base.total_ops = cfg.total_ops;
  scfg.base.threads = 1;
  scfg.base.seed = cfg.seed;
  scfg.base.pattern = cfg.pattern;
  scfg.shards = kCellShards;
  scfg.exec_threads = cfg.exec_threads;
  scfg.epoch_cycles = 200000;
  scfg.audit = true;
  scfg.watchdog_stall_epochs = 4;
  if (collector != nullptr && collector->active()) {
    // A captured cell is being diagnosed: its trace carries the migration
    // spans, and its timeline is sampled once per epoch.
    scfg.base.enable_spans = true;
    if (collector->timeline_requested()) {
      scfg.base.timeline_interval = scfg.epoch_cycles;
    }
  }
  // The [&cfg, &watches] capture is safe: RunShardedMicro calls the hook
  // once per shard, concurrently, from the worker thread that builds that
  // shard. The hook only reads cfg, which outlives RunShardedMicro, writes
  // only watches[shard], which no other call touches, and wires only that
  // shard's Sim. nomad_analyze NA002 flags the pattern; baselined with
  // justification in tools/nomad_analyze/baseline.txt.
  std::vector<std::unique_ptr<ShardWatch>> watches(kCellShards);
  scfg.shard_setup = [&cfg, &watches](uint32_t shard, Sim& sim) {
    sim.ms().set_fault_injector(MakeCellInjector(cfg, shard));
    watches[shard] = std::make_unique<ShardWatch>(sim, ShardSeed(cfg, shard), cfg.corrupt);
  };

  const ShardedRunResult run = RunShardedMicro(scfg, collector, label);

  ChaosCellResult r;
  r.invariant_violations = run.invariant_violations;
  r.faults_injected = run.faults_injected;
  r.watchdog_stalls = run.watchdog_stalls;
  r.epochs = run.epochs;
  for (const std::unique_ptr<ShardWatch>& w : watches) {
    r.audits += w->auditor.audits();
    r.audit_violations.insert(r.audit_violations.end(), w->auditor.violations().begin(),
                              w->auditor.violations().end());
  }
  r.ok = run.invariant_violations == 0 && r.audit_violations.empty();

  // Canonical recovery record. Everything here is required to be a pure
  // function of (seed, focus, pattern): virtual times, sorted counters,
  // queue watermarks, TPM stats and the injectors' hit/opportunity tallies.
  std::ostringstream os;
  os << "chaos_cell seed=" << cfg.seed << " focus=" << ChaosFocusName(cfg.focus)
     << " shards=" << kCellShards << " ops=" << cfg.total_ops << "\n";
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

}  // namespace nomad
