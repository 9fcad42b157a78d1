#include "src/harness/sharded_sim.h"

#include <algorithm>
#include <iostream>
#include <thread>

#include "src/base/annotations.h"
#include "src/check/check.h"
#include "src/check/invariants.h"
#include "src/obs/event_registry.h"
#include "src/workload/kvstore.h"
#include "src/workload/liblinear.h"
#include "src/workload/micro.h"
#include "src/workload/pagerank.h"
#include "src/workload/ycsb.h"

namespace nomad {

namespace {

uint64_t OpsDone(const Sim& sim) {
  uint64_t ops = 0;
  for (const WorkloadActor* w : sim.workloads()) {
    ops += w->ops_done();
  }
  return ops;
}

bool WorkloadsDone(const Sim& sim) {
  for (const WorkloadActor* w : sim.workloads()) {
    if (!w->done()) {
      return false;
    }
  }
  return true;
}

// Controller state, written by the epoch barrier's completion callback and
// read by every worker after release; the barrier's mutex provides the
// happens-before edges in both directions. Confined to the barrier
// callback (shard 0's logical owner), not lock-annotated: the protecting
// mutex is ShardBarrier's private internals.
struct NOMAD_SHARD_CONFINED Control {
  uint64_t total_ops = 0;
  uint64_t messages = 0;
  uint32_t done_shards = 0;
  uint64_t epochs = 0;
  uint64_t watchdog_stalls = 0;
  bool stop = false;
};

// The lockstep epoch engine shared by every sharded benchmark. Each of T
// worker threads owns the statically-assigned shards {t, t+T, t+2T, ...}
// and builds them, in that order, with `build` (which returns the shard's
// Sim) before its first epoch. A worker never reads another worker's
// shards, and the end-of-epoch-0 barrier orders every build before the
// first drain, so building needs no barrier of its own. With T == 1 the
// calling thread builds every shard in shard order.
//
// An epoch ends at ONE phase-flip barrier: whichever worker arrives last
// drains the router and updates the controller inside the barrier's
// completion callback (under the barrier mutex, before any waiter is
// released), so no second barrier crossing is needed. Messages are staged
// lock-free per sender during the epoch and flushed per (sender, dest) run
// before arriving. `on_epoch` runs after a shard's engine reaches the
// epoch boundary and may inspect that shard only (benchmark-specific
// snapshots live there).
Control RunLockstep(uint32_t S, const std::function<Sim&(uint32_t)>& build,
                    uint32_t exec_threads, Cycles epoch_cycles, uint64_t max_epochs,
                    ShardRouter& router, const std::function<void(uint32_t, uint64_t)>& on_epoch,
                    uint64_t watchdog_stall_epochs = 0) {
  const uint32_t T = std::max<uint32_t>(1, std::min<uint32_t>(exec_threads, S));
  ShardBarrier barrier(T);
  Control ctrl;
  std::vector<Sim*> sims(S, nullptr);  // sims[s] is written by its owning worker
  std::vector<uint64_t> last_reported(S, 0);
  std::vector<char> done(S, 0);
  // Watchdog state. last_progress / stalled are written only inside the
  // barrier callback; stall_pending[s] is written there and cleared by the
  // worker that owns shard s after the barrier releases — the barrier
  // mutex provides both happens-before edges.
  std::vector<uint64_t> last_progress(S, 0);
  std::vector<char> stalled(S, 0);
  std::vector<uint64_t> stall_pending(S, 0);

  auto worker = [&](uint32_t t) {
    for (uint32_t s = t; s < S; s += T) {
      sims[s] = &build(s);
    }
    for (uint64_t epoch = 0;; epoch++) {
      const Cycles epoch_end = (epoch + 1) * epoch_cycles;
      for (uint32_t s = t; s < S; s += T) {
        if (done[s]) {
          continue;
        }
        Sim& sim = *sims[s];
        // Surface last epoch's watchdog verdict from the owning shard so
        // the trace record carries the shard's own virtual clock and the
        // counter lands in the shard's own CounterSet (deterministic for
        // any T: the verdict was computed from drained messages only).
        if (stall_pending[s] != 0) {
          sim.ms().Trace(TraceEvent::kWatchdogStall, epoch, stall_pending[s]);
          sim.ms().counters().Add(cnt::kWatchdogStall, 1);
          stall_pending[s] = 0;
        }
        // Shard-aware chaos, one consult per (shard, epoch) from the
        // shard's OWN injector: the decision stream depends only on the
        // shard's seed and epoch count, never on thread assignment.
        bool stall = false;
        bool delay_sends = false;
        if (FaultInjector* fi = sim.ms().faults(); fi != nullptr) {
          if (fi->ShouldInject(FaultKind::kShardStall)) {
            stall = true;
            sim.ms().counters().Add(cnt::kFaultInjShardStall, 1);
          }
          if (fi->ShouldInject(FaultKind::kShardDelay)) {
            delay_sends = true;
            sim.ms().counters().Add(cnt::kFaultInjShardDelay, 1);
          }
          if (fi->ShouldInject(FaultKind::kAllocFailWave)) {
            // Arm a burst window of allocation failures starting at the
            // shard's NEXT alloc opportunity: a whole wave of fast-tier
            // pressure, as opposed to kAllocFail's isolated misses.
            FaultSchedule wave = fi->schedule(FaultKind::kAllocFail);
            wave.trigger_start = fi->opportunities(FaultKind::kAllocFail);
            wave.trigger_count = 64;
            fi->set_schedule(FaultKind::kAllocFail, wave);
            sim.ms().counters().Add(cnt::kFaultInjAllocFailWave, 1);
          }
        }
        if (stall) {
          // The shard parks at the barrier without advancing virtual time
          // this epoch — the livelock shape the watchdog exists to flag.
          continue;
        }
        sim.engine().Run(epoch_end);
        if (on_epoch) {
          on_epoch(s, epoch);
        }
        const uint64_t ops = OpsDone(sim);
        if (ops > last_reported[s]) {
          router.Stage(s, 0, kShardMsgProgress, ops - last_reported[s], epoch_end);
          last_reported[s] = ops;
        }
        bool finished = false;
        if (WorkloadsDone(sim)) {
          done[s] = 1;
          finished = true;
          router.Stage(s, 0, kShardMsgDone, ops, sim.engine().now());
        }
        // kShardDelay: staged messages sit in the sender row one extra
        // epoch (staging rows are persistent, so they flush — in staging
        // order, keeping (sender, seq) intact — on the next pass). A shard
        // finishing this epoch is skipped forever after, so its sends must
        // flush now regardless or they would never be delivered.
        if (!delay_sends || finished) {
          router.FlushSends(s);
        }
      }
      barrier.ArriveAndWait([&] {
        // Runs exactly once per epoch, by the last arriver, under the
        // barrier mutex: every worker's sends happen-before this, and the
        // control update happens-before every worker's post-barrier read.
        // Drain order is (sender id, seq), independent of which thread
        // runs this or how shards were assigned to threads.
        router.Drain(0, [&](const ShardMsg& m) {
          ctrl.messages++;
          if (m.kind == kShardMsgProgress) {
            ctrl.total_ops += m.a;
            last_progress[m.from] = epoch + 1;
            stalled[m.from] = 0;
          } else if (m.kind == kShardMsgDone) {
            ctrl.done_shards++;
            last_progress[m.from] = epoch + 1;
            stalled[m.from] = 0;
          }
        });
        ctrl.epochs = epoch + 1;
        if (watchdog_stall_epochs > 0) {
          // Livelock detection on the drained stream only: a live shard
          // whose last progress report is too old is stalled. Edge-
          // triggered — one verdict per stall episode, re-armed by the
          // next progress message.
          for (uint32_t s = 0; s < S; s++) {
            const uint64_t quiet = epoch + 1 - last_progress[s];
            if (!done[s] && !stalled[s] && quiet >= watchdog_stall_epochs) {
              stalled[s] = 1;
              stall_pending[s] = quiet;
              ctrl.watchdog_stalls++;
            }
          }
        }
        NOMAD_CHECK(epoch < max_epochs, "sharded run exceeded max_epochs=", max_epochs,
                    " done_shards=", ctrl.done_shards, " of ", S);
        ctrl.stop = ctrl.done_shards == S;
      });
      if (ctrl.stop) {
        return;
      }
    }
  };

  if (T == 1) {
    worker(0);  // run inline: no thread spawn for the common CI case
  } else {
    std::vector<std::thread> pool;
    pool.reserve(T);
    for (uint32_t t = 0; t < T; t++) {
      pool.emplace_back(worker, t);
    }
    for (std::thread& th : pool) {
      th.join();
    }
  }
  return ctrl;
}

// Samples a shard's timeline keeps; older samples are overwritten.
constexpr size_t kTimelineCapacity = 4096;

// The settings every run shares, whatever its workload. The default is a
// one-shard run without timeline, spans, faults or instruments.
struct Plan {
  uint32_t shards = 1;
  uint32_t exec_threads = 1;
  Cycles epoch_cycles = 0;
  uint64_t max_epochs = 0;
  uint64_t watchdog_stall_epochs = 0;
  Cycles timeline_interval = 0;
  bool enable_spans = false;
  // Trace ring, profiler, histograms and provenance (see Instrumented).
  bool instruments = false;
  std::function<std::unique_ptr<FaultInjector>(uint32_t shard)> fault_factory;
};

// The instruments are on when something reads them: an active collector
// (it exports all four), span records (they live in the trace ring) or the
// timeline sampler (it reads trace counts and histograms). Nothing in the
// simulation itself reads them back, so without these they stay off.
bool Instrumented(const Plan& plan, const MetricsCollector* collector) {
  return (collector != nullptr && collector->active()) || plan.enable_spans ||
         plan.timeline_interval > 0;
}

template <typename ShardedConfig>
Plan PlanOf(const ShardedConfig& cfg, const MetricsCollector* collector) {
  NOMAD_CHECK(cfg.shards > 0, "a run needs at least one shard");
  // Lockstep advances in epochs of epoch_cycles; zero would never advance
  // virtual time. A one-shard run has no epochs and ignores the field.
  NOMAD_CHECK(cfg.shards == 1 || cfg.epoch_cycles > 0,
              "epoch_cycles must be > 0 for a run with shards=", cfg.shards);
  Plan plan;
  plan.shards = cfg.shards;
  plan.exec_threads = cfg.exec_threads;
  plan.epoch_cycles = cfg.epoch_cycles;
  plan.max_epochs = cfg.max_epochs;
  plan.timeline_interval = cfg.base.timeline_interval;
  plan.enable_spans = cfg.base.enable_spans;
  plan.instruments = Instrumented(plan, collector);
  return plan;
}

// The scale divisor of a run's config; zero would divide by zero.
Scale ScaleOf(uint64_t denom) {
  NOMAD_CHECK(denom > 0, "scale_denom must be > 0");
  return Scale{denom};
}

// Lockstep samples the timeline at epoch boundaries, so its cadence is the
// requested interval rounded up to whole epochs.
uint64_t SampleEpochs(const Plan& plan) {
  return (plan.timeline_interval + plan.epoch_cycles - 1) / plan.epoch_cycles;
}

// Everything one shard owns: its machine, the workload actors on it and the
// data they read. A worker thread builds and runs only the shards it was
// statically assigned; the calling thread reads the shards after every
// worker joined.
struct NOMAD_SHARD_CONFINED Shard {
  std::unique_ptr<Sim> sim;
  std::unique_ptr<ScrambledZipfian> zipf;  // the micro workload's key sampler
  std::unique_ptr<KvStore> store;          // YCSB's records
  std::vector<std::unique_ptr<WorkloadActor>> apps;
  uint64_t total_ops = 0;  // the shard's configured ops; first_half is at half
  bool half_snapped = false;
  CounterSet first_half;
};

// Builds shard s's machine with the wiring every run gets: its instruments
// switch, the shard's own fault injector, span records and timeline. Runs
// on the worker thread that owns shard s, so plan.fault_factory is called
// from several threads.
Sim& BuildSim(const Plan& plan, uint32_t s, const PlatformSpec& platform, PolicyKind policy,
              uint64_t as_pages, Shard& sh, const NomadPolicy::Config& nomad = {}) {
  sh.sim = std::make_unique<Sim>(platform, policy, as_pages, nomad);
  Sim& sim = *sh.sim;
  // Set before the shard's first step and never changed after, so every
  // profiler span opens and closes under the same setting.
  sim.ms().set_instruments_enabled(plan.instruments);
  if (plan.fault_factory) {
    sim.ms().set_fault_injector(plan.fault_factory(s));
  }
  if (plan.enable_spans) {
    sim.ms().set_span_tracing(true);
  }
  if (plan.timeline_interval > 0) {
    if (plan.shards == 1) {
      sim.EnableTimeline({plan.timeline_interval, kTimelineCapacity});
    } else {
      // The epoch loop samples instead of an engine actor (see RunShards).
      sim.EnableTimeline({SampleEpochs(plan) * plan.epoch_cycles, kTimelineCapacity},
                         /*engine_driven=*/false);
    }
  }
  return sim;
}

// The application benchmarks' machine (sec. 4.2): the platform's default
// 16 GB fast tier (a shard gets its 1/N), the kernel's reservation, and the
// dataset [0, end) pre-loaded with the default fast-first placement, then
// pushed to the slow tier when `demote`, as the paper's "customized tool"
// does before the Redis and Liblinear runs.
template <typename AppConfig>
Sim& BuildAppSim(const Plan& plan, uint32_t s, const AppConfig& c, Vpn end, bool demote,
                 Shard& sh) {
  const Scale scale = ScaleOf(c.scale_denom);
  Sim& sim = BuildSim(plan, s, MakePlatform(c.platform, scale, 16.0 / plan.shards, c.slow_gb),
                      c.policy, end + 16, sh);
  sim.ms().ReserveFastFrames(scale.Pages(c.kernel_gb));
  MapRange(sim.ms(), sim.as(), 0, end, Tier::kFast);
  if (demote) {
    DemoteAll(sim.ms(), sim.as());
  }
  return sim;
}

void AddApp(Shard& sh, std::unique_ptr<WorkloadActor> app) {
  sh.sim->AddWorkload(app.get());
  sh.apps.push_back(std::move(app));
}

// Builds shard s into `sh`: its Sim, the workload actors and their data.
// It may touch nothing but `sh` and read-only inputs, because the shards
// of a lockstep run are built concurrently.
using BuildShard = std::function<void(uint32_t s, Shard& sh)>;

// Builds every shard and runs them until every workload finished, taking
// each shard's first-half snapshot on the way. A shard's content depends
// only on its own config and seed, and each shard has its own FramePool,
// so where and in what order shards are built cannot change any PFN or
// result.
Control RunShards(const Plan& plan, std::vector<Shard>& shards, const BuildShard& build) {
  if (plan.shards == 1) {
    // The classic loop: an exact half-way snapshot, and a stop as soon as
    // the workloads finish. Lockstep would keep the daemons running on to
    // the next epoch boundary, which changes the counters.
    Shard& sh = shards[0];
    build(0, sh);
    sh.sim->RunUntilOps(sh.total_ops / 2);
    sh.first_half = sh.sim->ms().counters();
    sh.half_snapped = true;
    sh.sim->Run();
    Control ctrl;
    ctrl.total_ops = OpsDone(*sh.sim);
    return ctrl;
  }
  const uint64_t sample_epochs = plan.timeline_interval > 0 ? SampleEpochs(plan) : 0;
  ShardRouter router(plan.shards);
  return RunLockstep(
      plan.shards,
      [&](uint32_t s) -> Sim& {
        build(s, shards[s]);
        return *shards[s].sim;
      },
      plan.exec_threads, plan.epoch_cycles, plan.max_epochs, router,
      [&](uint32_t s, uint64_t epoch) {
        Shard& sh = shards[s];
        if (!sh.half_snapped && OpsDone(*sh.sim) * 2 >= sh.total_ops) {
          // Phase snapshot at epoch granularity: deterministic because the
          // epoch schedule is fixed.
          sh.first_half = sh.sim->ms().counters();
          sh.half_snapped = true;
        }
        if (sample_epochs > 0 && (epoch + 1) % sample_epochs == 0) {
          // The owning worker samples its own shard right after the shard's
          // engine reached the epoch boundary: shard-confined state only,
          // at a virtual time fixed by the epoch schedule — byte-identical
          // for any exec_threads value.
          sh.sim->SampleTimeline(OpsDone(*sh.sim), epoch + 1);
        }
      },
      plan.watchdog_stall_epochs);
}

// Captures shard s under "<label>.shard<s>", or under the label itself when
// the run has one shard. The default label is the policy name.
void CaptureShard(MetricsCollector* collector, const std::string& label, uint32_t s,
                  uint32_t shards, Sim& sim, const PhaseReport& report) {
  if (collector == nullptr) {
    return;
  }
  std::string name = label.empty() ? PolicyKindName(sim.kind()) : label;
  if (shards > 1) {
    name += ".shard" + std::to_string(s);
  }
  collector->Capture(name, sim, report);
}

// Builds and runs application shards and folds each into an AppRunResult.
ShardedAppResult RunApps(const Plan& plan, const BuildShard& build, MetricsCollector* collector,
                         const std::string& label) {
  std::vector<Shard> shards(plan.shards);
  const Control ctrl = RunShards(plan, shards, build);
  ShardedAppResult result;
  result.total_ops = ctrl.total_ops;
  result.messages = ctrl.messages;
  result.epochs = ctrl.epochs;
  uint64_t ops_sum = 0;
  for (uint32_t s = 0; s < plan.shards; s++) {
    Sim& sim = *shards[s].sim;
    const PhaseReport report = Analyze(sim);
    AppRunResult r;
    r.ops_per_sec = report.ops_per_sec;
    r.runtime_ms = CyclesToSeconds(report.total_cycles, sim.platform().ghz) * 1e3;
    r.promotions = Promotions(sim.ms().counters());
    r.demotions = Demotions(sim.ms().counters());
    if (NomadPolicy* nomad = sim.nomad()) {
      r.tpm_commits = nomad->tpm_stats().commits;
      r.tpm_aborts = nomad->tpm_stats().aborts;
    }
    result.max_virtual_time = std::max(result.max_virtual_time, sim.engine().now());
    ops_sum += OpsDone(sim);
    CaptureShard(collector, label, s, plan.shards, sim, report);
    result.per_shard.push_back(r);
  }
  // Shards run concurrently in virtual time, so the machine-level rate is
  // the whole op count over the slowest shard's runtime.
  if (result.max_virtual_time > 0) {
    result.aggregate_ops_per_sec =
        static_cast<double>(ops_sum) /
        CyclesToSeconds(result.max_virtual_time, shards[0].sim->platform().ghz);
  }
  return result;
}

}  // namespace

ShardedRunResult RunShardedMicro(const ShardedRunConfig& cfg, MetricsCollector* collector,
                                 const std::string& label) {
  NOMAD_CHECK(cfg.base.threads > 0, "threads must be > 0 for a micro run, got ",
              cfg.base.threads);
  Plan plan = PlanOf(cfg, collector);
  plan.watchdog_stall_epochs = cfg.watchdog_stall_epochs;
  plan.fault_factory = cfg.fault_factory;
  const uint32_t S = plan.shards;

  // --- partition: each shard is a 1/N machine running 1/N of the work ---
  // Each shard is built by the worker that runs it (see RunShards).
  std::vector<Shard> shards(S);
  const Control ctrl = RunShards(plan, shards, [&](uint32_t s, Shard& sh) {
    MicroRunConfig c = cfg.base;
    c.rss_gb /= S;
    c.wss_gb /= S;
    c.wss_fast_gb /= S;
    c.kernel_gb /= S;
    c.fast_gb /= S;
    c.slow_gb /= S;
    c.total_ops = cfg.base.total_ops / S;
    // Distinct streams per shard; 7919 keeps seeds far apart without
    // correlating with the +1000+thread offsets used inside a shard.
    c.seed = cfg.base.seed + 7919 * s;

    sh.total_ops = c.total_ops;
    const Scale scale = ScaleOf(c.scale_denom);
    Sim& sim = BuildSim(plan, s, MakePlatform(c.platform, scale, c.fast_gb, c.slow_gb),
                        c.policy, scale.Pages(c.rss_gb) + 16, sh, c.nomad);
    MicroLayout layout;
    layout.rss_pages = scale.Pages(c.rss_gb);
    layout.wss_pages = scale.Pages(c.wss_gb);
    layout.wss_fast_pages = scale.Pages(c.wss_fast_gb);
    layout.kernel_pages = scale.Pages(c.kernel_gb);
    layout.placement = c.placement;
    layout.seed = c.seed;
    sh.zipf = std::make_unique<ScrambledZipfian>(layout.wss_pages, c.zipf_theta, c.seed);
    const Vpn wss_start = SetupMicroLayout(sim, layout, *sh.zipf);
    for (int t = 0; t < c.threads; t++) {
      MicroWorkload::Config wcfg;
      wcfg.base.total_ops = c.total_ops / static_cast<uint64_t>(c.threads);
      wcfg.base.seed = c.seed + 1000 + static_cast<uint64_t>(t);
      wcfg.base.batch = c.batch;
      wcfg.wss_start = wss_start;
      wcfg.wss_pages = layout.wss_pages;
      wcfg.write_fraction = c.write_fraction;
      AddApp(sh, std::make_unique<MicroWorkload>(&sim.ms(), &sim.as(), sh.zipf.get(), wcfg));
    }
  });

  // --- merge, strictly in shard-id order ---
  ShardedRunResult result;
  result.total_ops = ctrl.total_ops;
  result.messages = ctrl.messages;
  result.epochs = ctrl.epochs;
  result.watchdog_stalls = ctrl.watchdog_stalls;
  for (uint32_t s = 0; s < S; s++) {
    Shard& sh = shards[s];
    Sim& sim = *sh.sim;
    MicroRunResult r;
    r.report = Analyze(sim);
    r.counters = sim.ms().counters();
    r.first_half = sh.half_snapped ? sh.first_half : r.counters;
    r.fast_used = sim.ms().pool().UsedFrames(Tier::kFast);
    r.slow_used = sim.ms().pool().UsedFrames(Tier::kSlow);
    if (NomadPolicy* nomad = sim.nomad()) {
      r.shadow_pages = nomad->shadows().count();
      r.tpm_commits = nomad->tpm_stats().commits;
      r.tpm_aborts = nomad->tpm_stats().aborts;
      r.pcq_hwm = nomad->queues().pcq_hwm();
      r.pending_hwm = nomad->queues().pending_hwm();
      r.pcq_overflows = nomad->queues().overflow_count();
    }
    result.max_virtual_time = std::max(result.max_virtual_time, sim.engine().now());
    result.aggregate_gbps += r.report.overall_gbps;
    if (const FaultInjector* fi = sim.ms().faults()) {
      r.injector = fi->Describe();
      result.faults_injected += fi->total_injected();
    }
    if (cfg.audit) {
      // Quiescence audit: with every worker joined and the shard's engine
      // drained, each shard must independently satisfy the full invariant
      // suite — cross-shard messages must not have corrupted owned state.
      InvariantChecker checker(&sim.ms());
      checker.AddSpace(&sim.as());
      if (NomadPolicy* nomad = sim.nomad()) {
        checker.set_shadows(&nomad->shadows());
        checker.set_queues(&nomad->queues());
      }
      for (const InvariantViolation& v : checker.Check()) {
        std::cerr << "shard " << s << " invariant [" << v.rule << "] " << v.detail << "\n";
        result.invariant_violations++;
      }
    }
    CaptureShard(collector, label, s, S, sim, r.report);
    result.per_shard.push_back(std::move(r));
  }
  return result;
}

ShardedAppResult RunShardedYcsb(const ShardedYcsbConfig& cfg, MetricsCollector* collector,
                                const std::string& label) {
  const Plan plan = PlanOf(cfg, collector);
  const uint32_t S = plan.shards;
  const auto build = [&](uint32_t s, Shard& sh) {
    YcsbRunConfig c = cfg.base;
    c.record_count = cfg.base.record_count / S;
    c.total_ops = cfg.base.total_ops / S;
    c.slow_gb /= S;
    c.kernel_gb /= S;
    c.seed = cfg.base.seed + 7919 * s;

    sh.total_ops = c.total_ops;
    KvStore::Config kcfg;
    kcfg.record_count = c.record_count;
    kcfg.record_size = c.record_size;
    sh.store = std::make_unique<KvStore>(kcfg);
    Sim& sim = BuildAppSim(plan, s, c, sh.store->Layout(0), c.demote_first, sh);
    YcsbWorkload::Config wcfg;
    wcfg.base.total_ops = c.total_ops;
    wcfg.base.seed = c.seed;
    // One database op per engine step: an op's ~35 line accesses already
    // span a TPM copy window, so stores can interleave with (and abort)
    // transactions at realistic granularity.
    wcfg.base.batch = 1;
    AddApp(sh, std::make_unique<YcsbWorkload>(&sim.ms(), &sim.as(), sh.store.get(), wcfg));
  };
  return RunApps(plan, build, collector, label);
}

MicroRunResult RunMicroBench(const MicroRunConfig& config, MetricsCollector* collector,
                             const std::string& label) {
  ShardedRunConfig cfg;
  cfg.base = config;
  cfg.shards = 1;
  return std::move(RunShardedMicro(cfg, collector, label).per_shard[0]);
}

AppRunResult RunYcsbBench(const YcsbRunConfig& config, MetricsCollector* collector,
                          const std::string& label) {
  ShardedYcsbConfig cfg;
  cfg.base = config;
  cfg.shards = 1;
  return RunShardedYcsb(cfg, collector, label).per_shard[0];
}

AppRunResult RunPageRankBench(const PageRankRunConfig& config, MetricsCollector* collector,
                              const std::string& label) {
  PageRankWorkload::Config wcfg;
  wcfg.vertices = config.vertices;
  wcfg.iterations = config.iterations;
  wcfg.neighbor_sample = config.neighbor_sample;
  wcfg.base.seed = config.seed;
  const Vpn end = PageRankWorkload::Layout(&wcfg, 0);

  // Standard placement: the graph spreads over fast then slow memory.
  Plan plan;
  plan.instruments = Instrumented(plan, collector);
  const auto build = [&](uint32_t s, Shard& sh) {
    Sim& sim = BuildAppSim(plan, s, config, end, /*demote=*/false, sh);
    AddApp(sh, std::make_unique<PageRankWorkload>(&sim.ms(), &sim.as(), wcfg));
  };
  return RunApps(plan, build, collector, label).per_shard[0];
}

AppRunResult RunLiblinearBench(const LiblinearRunConfig& config, MetricsCollector* collector,
                               const std::string& label) {
  // Worker threads share the model and split the samples (multicore
  // liblinear, as the paper runs it).
  std::vector<LiblinearWorkload::Config> wcfgs(config.threads);
  Vpn end = 0;
  for (int t = 0; t < config.threads; t++) {
    LiblinearWorkload::Config& wcfg = wcfgs[t];
    wcfg.samples = config.samples;
    wcfg.row_lines = config.row_lines;
    wcfg.sample_lines = config.sample_lines;
    wcfg.model_pages = config.model_pages;
    wcfg.features_per_sample = config.features_per_sample;
    wcfg.epochs = config.epochs;
    wcfg.base.seed = config.seed + t;
    wcfg.base.batch = 1;  // one sample per step: weight stores interleave
                          // with in-flight transactional copies
    wcfg.thread_index = t;
    wcfg.num_threads = config.threads;
    end = LiblinearWorkload::Layout(&wcfg, 0);
  }

  // The paper demotes all Liblinear pages to the slow tier before running.
  Plan plan;
  plan.instruments = Instrumented(plan, collector);
  const auto build = [&](uint32_t s, Shard& sh) {
    Sim& sim = BuildAppSim(plan, s, config, end, /*demote=*/true, sh);
    for (const LiblinearWorkload::Config& wcfg : wcfgs) {
      AddApp(sh, std::make_unique<LiblinearWorkload>(&sim.ms(), &sim.as(), wcfg));
    }
  };
  return RunApps(plan, build, collector, label).per_shard[0];
}

}  // namespace nomad
